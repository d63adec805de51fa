"""Command-line interface.

Every alpha input must be an exact fraction "p/q" (decimal input is
rejected so nothing gets silently rounded).  All randomized commands take
a seed with a fixed default, so identical invocations produce
byte-identical output.  Invariant failures exit 1 with a one-line JSON
failure record on stderr naming the module and the violated invariant;
usage errors exit 2.  ``_Command.invoke`` is the one place that sorts
failures into these exit codes, and ``_write`` the one output path of a
result: CSV rows under a header, or one JSON line per record, to stdout or
to a file.  The ``ok`` column of ``sweep`` and ``twonorm`` is always 1,
since a row exists only for a check that held: ``certify`` raises below
``bound - TOL_SCALE*n`` with ``bound >= n/300``, and ``evaluate`` raises
on both steps of the averaging chain.
"""

from __future__ import annotations

import csv
import json
import os
import random
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from fractions import Fraction
from typing import Iterable

import click

from . import certifier, checks, family, fourier, solver
from .hypergraph import CapExceeded, Coloring, SumEdge
from .numtheory import InternalInvariantViolation

_ALPHA_RE = re.compile(r"^\s*(\d+)\s*/\s*(\d+)\s*$")
_POSITIVE = click.IntRange(min=1)
# below it certify has no certificate, so the command is refused before any work
_CERTIFIABLE = click.IntRange(min=certifier.MIN_N)


def _parse_alpha(_ctx, _param, value: str) -> Fraction:
    m = _ALPHA_RE.match(value)
    if not m:
        raise click.BadParameter(
            f"alpha must be an exact fraction 'p/q', got {value!r}")
    p, q = int(m.group(1)), int(m.group(2))
    if q == 0:
        raise click.BadParameter("alpha denominator must be nonzero")
    alpha = Fraction(p, q)
    if not (0 <= alpha < 1):
        raise click.BadParameter(f"alpha {value} outside [0, 1)")
    return alpha


def _write(out: str, rows: Iterable, header: list[str] | None = None) -> None:
    """Write a command's result: with a header, CSV rows through
    ``csv.writer``; without one, each dict row as a JSON line.  To stdout
    for "-", else to the file ``out``, under ``SUMDISC_OUT_DIR`` when that
    is set."""
    with (nullcontext(sys.stdout) if out == "-" else
          open(os.path.join(os.environ.get("SUMDISC_OUT_DIR", ""), out),
               "w", newline="")) as stream:
        if header is None:
            stream.writelines(json.dumps(row) + "\n" for row in rows)
        else:
            writer = csv.writer(stream)
            writer.writerow(header)
            writer.writerows(rows)


class _Command(click.Command):
    """A sumdisc command.  A failed invariant exits 1 with a JSON record
    on stderr; an n above a search cap is a usage error (exit 2).  Nothing
    else is caught."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except InternalInvariantViolation as exc:
            record = {"module": exc.module, "invariant": exc.invariant,
                      "message": str(exc)}
            click.echo(json.dumps(record), err=True)
            ctx.exit(1)
        except CapExceeded as exc:
            raise click.UsageError(str(exc), ctx) from exc


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main() -> None:
    """Discrepancy toolkit for sums of two arithmetic progressions."""


@main.command("family")
@click.option("--n", type=_POSITIVE, required=True)
@click.option("--format", "fmt", type=click.Choice(["jsonl", "csv"]),
              default="jsonl", show_default=True)
@click.option("--family-out", "--out", "out", default="-", show_default=True)
@click.option("--stats", is_flag=True, help="print summary stats to stderr")
def family_cmd(n: int, fmt: str, out: str, stats: bool) -> None:
    """Build the structured edge family and dump it, one edge per row."""
    fam = family.build_family(family.FamilyConfig(n=n))
    records = family.family_records(fam)
    if fmt == "jsonl":
        _write(out, records)
    else:
        # csv.writer writes the e1 and e2 rows' missing k and b (None) as ""
        _write(out, ([rec["sub"], rec["d1"], rec["l1"], rec["d2"], rec["l2"],
                      rec.get("k"), rec.get("b")] for rec in records),
               ["sub", "d1", "l1", "d2", "l2", "k", "b"])
    if stats:
        st = family.family_stats(fam)
        click.echo(json.dumps(st.__dict__), err=True)


@main.command("certify")
@click.option("--n", type=_CERTIFIABLE, required=True)
@click.option("--alpha", callback=_parse_alpha, required=True,
              help="exact fraction p/q in [0, 1)")
@click.option("--out", default="-", show_default=True)
def certify_cmd(n: int, alpha: Fraction, out: str) -> None:
    """Certify one alpha and print the witness certificate as JSON."""
    _write(out, [certifier.certify(alpha, n).to_json_dict()])


def _sweep_chunk(args: tuple) -> list[list]:
    # a branch without delta2 or k leaves it None, which csv.writer writes as ""
    n, alphas = args
    return [[f"{c.alpha.numerator}/{c.alpha.denominator}", c.case_tag, c.delta1,
             c.delta2, c.k, f"{c.measured:.9g}", f"{c.certified_bound:.9g}", 1]
            for alpha in alphas for c in [certifier.certify(alpha, n)]]


@main.command("sweep")
@click.option("--n", type=_CERTIFIABLE, required=True)
@click.option("--grid", type=_POSITIVE, default=1000, show_default=True)
@click.option("--random", "n_random", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--adversarial/--no-adversarial", default=True, show_default=True)
@click.option("--threads", type=_POSITIVE, default=os.cpu_count() or 1,
              show_default="cores")
@click.option("--out", default="-", show_default=True)
def sweep_cmd(n: int, grid: int, n_random: int, seed: int, adversarial: bool,
              threads: int, out: str) -> None:
    """Certify a whole alpha sample and emit one CSV row per point.

    The sample is cut into one chunk per requested thread; the chunks run
    in a process pool of min(threads, chunks, cores) workers, or in this
    process when that is one.  Rows keep the sample's order either way.
    """
    alphas = certifier.sweep_alphas(n, grid, n_random=n_random, seed=seed,
                                    adversarial=adversarial)
    size = max(1, -(-len(alphas) // threads))
    chunks = [(n, alphas[i:i + size])
              for i in range(0, len(alphas), size)]
    workers = min(threads, len(chunks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_sweep_chunk, chunks))
    else:
        parts = list(map(_sweep_chunk, chunks))
    _write(out, (row for rows in parts for row in rows),
           ["alpha", "case", "delta1", "delta2", "k", "measured", "bound", "ok"])


@main.command("disc")
@click.option("--n", type=_POSITIVE, required=True)
@click.option("--method", type=click.Choice(["exact", "local", "random"]),
              required=True)
@click.option("--trials", type=_POSITIVE, default=100, show_default=True)
@click.option("--restarts", type=_POSITIVE, default=20, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--out", default="-", show_default=True)
def disc_cmd(n: int, method: str, trials: int, restarts: int, seed: int,
             out: str) -> None:
    """Compute a discrepancy value (exact or heuristic upper bound)."""
    if method == "exact":
        report = solver.exact_discrepancy(n)
    elif method == "local":
        report = solver.local_search_upper(n, restarts=restarts, seed=seed)
    else:
        report = solver.random_coloring_upper(n, trials=trials, seed=seed)
    _write(out, [report.to_json_dict()])


def _parse_colorings(spec: str, n: int, seed: int) -> list[tuple[str, Coloring]]:
    out = []
    for part in spec.split(","):
        part = part.strip()
        if part == "ones":
            out.append(("ones", Coloring.all_plus(n)))
        elif part == "alt":
            out.append(("alt", Coloring.alternating(n)))
        elif part == "block":
            out.append(("block", Coloring.block(n)))
        elif part.startswith("random:"):
            try:
                count = int(part.split(":", 1)[1])
            except ValueError:
                count = 0
            if count < 1:
                raise click.BadParameter(
                    f"random:<count> needs a positive integer count, got {part!r}",
                    param_hint="--colorings")
            for i in range(count):
                out.append((f"random{i}", Coloring.random(n, seed + i)))
        else:
            raise click.BadParameter(f"unknown coloring spec {part!r}",
                                     param_hint="--colorings")
    return out


@main.command("twonorm")
@click.option("--n", type=_POSITIVE, required=True)
@click.option("--colorings", default="random:10,ones,alt", show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--out", default="-", show_default=True)
def twonorm_cmd(n: int, colorings: str, seed: int, out: str) -> None:
    """Averaging lower bound over the family, one CSV row per coloring."""
    named = _parse_colorings(colorings, n, seed)
    engine = solver.TwoNormEngine(family.build_family(family.FamilyConfig(n=n)))
    rows = [[name, bnd.total, f"{bnd.derived_disc_lb:.9g}", bnd.witness_value, 1]
            for name, chi in named for bnd in [engine.evaluate(chi)]]
    _write(out, rows, ["coloring_id", "S", "bound", "max_abs", "ok"])


@main.command("spectrum")
@click.option("--d1", type=_POSITIVE, required=True)
@click.option("--l1", type=_POSITIVE, required=True)
@click.option("--d2", type=_POSITIVE, required=True)
@click.option("--l2", type=_POSITIVE, required=True)
@click.option("--grid", type=_POSITIVE, default=256, show_default=True)
@click.option("--out", default="-", show_default=True)
def spectrum_cmd(d1: int, l1: int, d2: int, l2: int, grid: int, out: str) -> None:
    """Magnitudes of one edge's exponential sum on the grid t/m."""
    edge = SumEdge(d1=d1, l1=l1, d2=d2, l2=l2)
    _write(out, ([t, grid, f"{abs(value):.9g}"]
                 for t, value in enumerate(fourier.edge_spectrum(edge, grid))),
           ["alpha_num", "alpha_den", "magnitude"])


@main.command("verify-lemmas")
@click.option("--n", type=_CERTIFIABLE, required=True)
@click.option("--grid", type=_POSITIVE, default=2000, show_default=True,
              help="sweep grid size for the certification check")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--trials", type=_POSITIVE, default=200, show_default=True,
              help="random edges for the cardinality oracle check")
def verify_lemmas_cmd(n: int, grid: int, seed: int, trials: int) -> None:
    """Run the verification suite and exit 0 only if every check holds."""
    # build_family checks the count bounds itself
    c1, c2, c3 = family.build_family(family.FamilyConfig(n=n)).counts
    click.echo(f"family counts ok: e1={c1} e2={c2} e3={c3} (<= 7n = {7 * n})")
    rng = random.Random(seed)
    checks.parseval(rng, 25)
    click.echo("parseval suite ok (n in {8,16,32,64}, rel err <= 1e-8)")
    checks.cardinality(rng, trials)
    click.echo(f"cardinality oracle ok ({trials} random edges)")
    alphas = certifier.sweep_alphas(n, grid, n_random=max(grid // 10, 10),
                                    seed=seed)
    worst, _ = checks.certification(n, alphas)
    click.echo(f"certification sweep ok ({len(alphas)} points, "
               f"min slack {worst:.3f})")
    click.echo("all checks passed")


if __name__ == "__main__":
    main()
