"""The library names that the benchmark's traced runs wrap must exist.

``bench/spans.py`` replaces each ``(module, attribute)`` of its ``PATCHES``
with a timing wrapper, looked up on the ``sumdisc`` module of that name, so
a src rename that misses one fails only in a traced benchmark run.  The
file is parsed here, not imported or changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def patch_targets() -> list[tuple[str, str]]:
    """The (module, attribute) pairs of the PATCHES literal."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["PATCHES"]:
            return [(mod, attr) for mod, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no PATCHES assignment in {SPANS}")


@pytest.mark.parametrize("mod, attr", patch_targets(),
                         ids=[f"{m}.{a}" for m, a in patch_targets()])
def test_patch_target_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(f"sumdisc.{mod}"), attr))
