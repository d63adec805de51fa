"""The golden-output registry, ``golden.json``, and the runner of all its
entries.

Each entry pins one ``sumdisc`` command line (``argv``) by the SHA-256 of
its stdout and, unless ``stderr_sha256`` is null, of its stderr, taken
on the bytes the command writes (CSV rows end in CRLF); ``why`` says what
the pin covers.  ``tier`` says who else runs it:

- ``suite``: ``test_cli.test_golden_stdout`` too, in-process, in the
  default pytest run;
- ``ci``: only this script, for commands too slow for the suite.

    python tests/golden.py

runs every entry as ``python -O -m sumdisc.cli <argv>`` with the
repository's ``src`` first on the path, prints one line per entry
(seconds, OK or MISMATCH, argv), and exits 1 if any entry exits nonzero
or prints other bytes.  A new pin is one entry in ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIERS = ("suite", "ci")


def load(tier: str | None = None) -> list[dict]:
    """The registry's entries, in file order: all of them, or one tier's."""
    entries = json.loads((HERE / "golden.json").read_text())
    return [e for e in entries if tier in (None, e["tier"])]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    src = str(HERE.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    failed = 0
    for entry in load():
        start = time.perf_counter()
        res = subprocess.run(
            [sys.executable, "-O", "-m", "sumdisc.cli", *entry["argv"]],
            capture_output=True, env=env)
        ok = (res.returncode == 0
              and sha256(res.stdout) == entry["stdout_sha256"]
              and entry["stderr_sha256"] in (None, sha256(res.stderr)))
        print(f"{time.perf_counter() - start:7.1f} s  {'OK' if ok else 'MISMATCH':8}  "
              f"{' '.join(entry['argv'])}", flush=True)
        if not ok:
            failed += 1
            print(f"    exit {res.returncode}, stdout {sha256(res.stdout)}, "
                  f"stderr {sha256(res.stderr)}", flush=True)
            if res.returncode:
                print(res.stderr.decode(errors="replace")[-2000:], flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
