"""The three benchmark workloads and their output checks.

Each workload builds reusable state in ``setup``, runs its operations in
``work`` and re-checks every output in ``check``; only ``setup`` and
``work`` are timed, each piece of them inside a ``chunk(name, scan=False)``
context: a span in a traced repetition, a calibrated lap time otherwise
(see ``worker.SCAN_EXPONENT`` for scans).  The same seed gives the same
chunks, so a run can take each chunk's median over its repetitions.  An op is one alpha (certify_sweep), one coloring
(twonorm_chain) or one enumeration or solver call (disc_search).  An op
fails if it raises or its output fails a check; ``check(verify=False)``
counts only raising ops and leaves the costly checks to a repetition that
verifies and must give the same digest.  ``check`` also returns the
exact output fields that go into the run's digest (never floats), the
guards (outputs that must never move, compared across repetitions and,
for the default seed, with ``expected.json``), and the fields the matching
CLI command prints, so the CLI pass can be compared with the library path.  ``cli`` runs the matching ``sumdisc`` commands
in-process through click on the same inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from time import perf_counter

import numpy as np

from sumdisc import certifier, family, hypergraph, solver
from sumdisc.hypergraph import Coloring

BOUND_TOL = 1e-6  # measured >= certified bound - BOUND_TOL * n
RECOMPUTE_TOL = 1e-9  # |recomputed - measured| <= RECOMPUTE_TOL * n
TWO_PI_I = 2j * math.pi


class Check:
    """Op counts, failure messages, exact output fields and guards of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digest_lines: list[str] = []
        self.cli_lines: list[str] = []
        self.guards: dict[str, float] = {}
        self.layers: dict[str, float] = {}

    def op(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(message)


def _opt(value) -> str:
    return "" if value is None else str(value)


def _exp_sum_magnitudes(certs, chunk: int = 1 << 19) -> np.ndarray:
    """|sum of e(alpha x) over the edge's elements x| for every certificate,
    recomputed term by term with numpy, independently of the library's
    ``indicator_fourier``.

    Two grid points j1*d1 + j2*d2 coincide only if l1 > d2/g and l2 > d1/g,
    g = gcd(d1, d2).  Otherwise the edge is the whole grid, and its sum is
    the product of the sums over j*d1 (j < l1) and j*d2 (j < l2).  An edge
    with collisions is summed over ``edge_elements_array``.  Progressions
    are summed ``chunk`` terms at a time to bound memory.
    """
    out = np.empty(len(certs))
    rows: list[int] = []  # per progression: its certificate, phase step, length
    steps: list[float] = []
    lengths: list[int] = []

    def flush():
        lens = np.array(lengths)
        starts = np.cumsum(lens) - lens
        j = np.arange(lens.sum()) - np.repeat(starts, lens)
        terms = np.exp(TWO_PI_I * np.mod(j * np.repeat(steps, lens), 1.0))
        sums = np.abs(np.add.reduceat(terms, starts))
        out[rows[::2]] = sums[0::2] * sums[1::2]
        rows.clear()
        steps.clear()
        lengths.clear()

    pending = 0
    for i, cert in enumerate(certs):
        e, p, q = cert.edge, cert.alpha.numerator, cert.alpha.denominator
        g = math.gcd(e.d1, e.d2)
        if e.l1 * g > e.d2 and e.l2 * g > e.d1:
            x = hypergraph.edge_elements_array(e)
            out[i] = abs(np.exp(TWO_PI_I * np.mod(x * (p / q), 1.0)).sum())
            continue
        for d, length in ((e.d1, e.l1), (e.d2, e.l2)):
            rows.append(i)
            steps.append(d * p % q / q)  # exact phase step, then rounded
            lengths.append(length)
        pending += e.l1 + e.l2
        if pending >= chunk:
            flush()
            pending = 0
    if rows:
        flush()
    return out


def _run_cli(runner, args):
    from sumdisc.cli import main

    start = perf_counter()
    result = runner.invoke(main, [str(a) for a in args])
    return result, perf_counter() - start


class CertifySweep:
    """The ``sumdisc sweep`` alpha recipe, certified one alpha at a time.

    At 2**18 the O(sqrt(n)) ``select_delta1`` scan and the O(d1)
    ``dirichlet_approx`` scan dominate; at 4096 the ``Fraction`` arithmetic
    in ``certify`` does, so a gain for one size that costs the other shows.
    """

    # (n, grid points, seeded random rationals)
    SIZES = ((4096, 30000, 3000), (1 << 18, 2000, 1000))
    CHUNK = 400  # alphas per timed chunk, about 40 ms

    def setup(self, seed, chunk):
        state = []
        for n, grid, n_random in self.SIZES:
            with chunk(f"setup.n{n}"):
                state.append((n, certifier.sweep_alphas(n, grid, n_random=n_random,
                                                        seed=seed)))
        return state

    def work(self, state, seed, chunk):
        out = []
        for n, alphas in state:
            for i in range(0, len(alphas), self.CHUNK):
                with chunk(f"work.n{n}.{i // self.CHUNK}"):
                    for alpha in alphas[i:i + self.CHUNK]:
                        try:
                            out.append((n, alpha, certifier.certify(alpha, n)))
                        except Exception as exc:  # a raising op is a failed op
                            out.append((n, alpha, exc))
        return out

    def work_ops(self, state):
        return sum(len(alphas) for _, alphas in state)

    def check(self, state, results, verify=True):
        chk = Check()
        counts: dict[tuple[int, int], int] = {}
        slack: dict[tuple[int, int], float] = {}
        certs = [cert for _, _, cert in results if not isinstance(cert, Exception)]
        again = iter(_exp_sum_magnitudes(certs) if verify else [])
        for n, alpha, cert in results:
            a = f"{alpha.numerator}/{alpha.denominator}"
            if isinstance(cert, Exception):
                chk.op(False, f"n={n} alpha={a}: {cert!r}")
                continue
            measured = float(next(again, cert.measured))
            ok = not verify or (
                cert.alpha == alpha and cert.n == n and cert.case_tag in (1, 2, 3)
                and abs(measured - cert.measured) <= RECOMPUTE_TOL * n
                and measured >= cert.certified_bound - BOUND_TOL * n)
            chk.op(ok, f"n={n} alpha={a}: measured {cert.measured!r}, recomputed "
                       f"{measured!r}, bound {cert.certified_bound!r}, case {cert.case_tag}")
            e = cert.edge
            fields = [a, str(cert.case_tag), str(cert.delta1), _opt(cert.delta2),
                      _opt(cert.k)]
            chk.digest_lines.append(f"{n} {' '.join(fields)} "
                                    f"{e.d1},{e.l1},{e.d2},{e.l2}")
            chk.cli_lines.append(f"{n} {','.join(fields)}")
            key = (cert.case_tag, n)
            counts[key] = counts.get(key, 0) + 1
            ratio = cert.measured / cert.certified_bound
            slack[key] = min(slack.get(key, ratio), ratio)
        for n, alphas in state:
            chk.guards[f"certifier.certify.samples.n{n}"] = len(alphas)
            for case in (1, 2, 3):
                chk.guards[f"certifier.case{case}.count.n{n}"] = counts.get((case, n), 0)
                chk.guards[f"certifier.case{case}.min_slack.n{n}"] = slack.get((case, n), 0.0)
        chk.guards["certifier.certify.calls"] = len(results)
        return chk

    def cli(self, seed):
        from click.testing import CliRunner

        runner = CliRunner()
        chk = Check()
        elapsed = 0.0
        threads = min(2, os.cpu_count() or 1)
        for n, grid, n_random in self.SIZES:
            base = ["sweep", "--n", n, "--grid", grid, "--random", n_random,
                    "--seed", seed]
            one, secs = _run_cli(runner, base + ["--threads", 1])
            elapsed += secs
            rows = list(csv.reader(io.StringIO(one.stdout)))[1:]
            chk.op(one.exit_code == 0 and all(r[7] == "1" for r in rows),
                   f"sweep n={n} --threads 1: exit {one.exit_code}")
            chk.cli_lines.extend(f"{n} {','.join(r[:5])}" for r in rows)
            many, _ = _run_cli(runner, base + ["--threads", threads])
            chk.op(many.exit_code == 0 and many.stdout == one.stdout,
                   f"sweep n={n} --threads {threads} output differs from --threads 1")
        return chk, {"cli.sweep.s": elapsed}


class TwonormChain:
    """The ``sumdisc twonorm`` pipeline at N=16384: family, engine, then
    the averaging bound for ``ones``, ``alt``, ``block`` and 24 seeded
    random colorings.  Exercises the family build and the dense numpy side
    of the solver; the certifier does not run."""

    N = 16384
    COLORINGS = "ones,alt,block,random:24"
    FAMILY_COUNTS = (24, 7852, 19949)  # |E1|, |E2|, |E3| at N=16384

    def _colorings(self, seed):
        n = self.N
        named = [("ones", Coloring.all_plus(n)), ("alt", Coloring.alternating(n)),
                 ("block", Coloring.block(n))]
        # same seeds as `sumdisc twonorm --colorings random:24 --seed <seed>`
        return named + [(f"random{i}", Coloring.random(n, seed + i)) for i in range(24)]

    def setup(self, seed, chunk):
        with chunk("setup.family"):
            fam = family.build_family(family.FamilyConfig(n=self.N))
        with chunk("solver.engine_build"):
            engine = solver.TwoNormEngine(fam)
        with chunk("setup.colorings"):
            colorings = self._colorings(seed)
        return fam, engine, colorings

    def work(self, state, seed, chunk):
        _, engine, colorings = state
        out = []
        for name, chi in colorings:
            with chunk(f"work.{name}"):
                try:
                    out.append((name, engine.evaluate(chi)))
                except Exception as exc:  # a raising op is a failed op
                    out.append((name, exc))
        return out

    def work_ops(self, state):
        return len(state[2])

    def check(self, state, results, verify=True):
        # every check here is cheap, so every repetition makes them all
        fam, engine, _ = state
        n = self.N
        chk = Check()
        chk.op(tuple(fam.counts) == self.FAMILY_COUNTS,
               f"family counts {fam.counts}, expected {self.FAMILY_COUNTS}")
        chk.digest_lines.append("family " + " ".join(map(str, fam.counts)))
        for name, bnd in results:
            if isinstance(bnd, Exception):
                chk.op(False, f"{name}: {bnd!r}")
                continue
            w = bnd.witness_value
            chk.op(90000 * bnd.total >= n ** 3 and 1440000 * w * w > n
                   and bnd.n_edges == len(fam),
                   f"{name}: S={bnd.total} witness={w}")
            chk.digest_lines.append(f"{name} {bnd.total} {w} {bnd.n_edges}")
            chk.cli_lines.append(f"{name},{bnd.total},{w}")
        for sub, count in zip(("e1", "e2", "e3"), fam.counts):
            chk.guards[f"family.edges.{sub}"] = count
        chk.guards["solver.evaluate.calls"] = len(results)
        chk.layers["solver.engine_lags"] = int(engine.lags.size)
        chk.layers["solver.engine_bytes"] = int(
            engine.lags.nbytes + engine.weights.nbytes
            + engine.seg_starts.nbytes + engine.fam_profile.nbytes)
        return chk

    def cli(self, seed):
        from click.testing import CliRunner

        chk = Check()
        res, secs = _run_cli(CliRunner(), ["twonorm", "--n", self.N, "--colorings",
                                           self.COLORINGS, "--seed", seed])
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        chk.op(res.exit_code == 0 and len(rows) == 27
               and all(r["ok"] == "1" for r in rows),
               f"twonorm: exit {res.exit_code}, {len(rows)} rows")
        chk.cli_lines.extend(f"{r['coloring_id']},{r['S']},{r['max_abs']}" for r in rows)
        return chk, {"cli.twonorm.s": secs}


class DiscSearch:
    """``sumdisc disc`` at small N: all distinct edges at n=32 and n=16,
    then random and local search at 32 and exact search at 16.  Exercises
    the bulk enumeration and the packed-bitmask and pure-Python search;
    the certifier, family and engine do not run."""

    DISTINCT_EDGES = {32: 107189, 16: 5068}
    EXACT_16 = 5
    TRIALS = 100
    RESTARTS = 10

    def setup(self, seed, chunk):
        # The solvers keep each n's edge masks in a process-wide cache; a
        # one-trial search fills it through the public API, so ``work``
        # times the searches only.
        for n in self.DISTINCT_EDGES:
            with chunk(f"setup.n{n}"):
                solver.random_coloring_upper(n, trials=1, seed=seed)
        return None

    def work(self, state, seed, chunk):
        # (label, call, whether it is a numpy scan over the packed masks)
        calls = [
            ("random", lambda: solver.random_coloring_upper(
                32, trials=self.TRIALS, seed=seed), True),
            ("local", lambda: solver.local_search_upper(
                32, restarts=self.RESTARTS, seed=seed), True),
            ("exact", lambda: solver.exact_discrepancy(16), False),
        ]
        out = []
        for label, call, scan in calls:
            with chunk(f"work.{label}", scan):
                try:
                    out.append((label, call()))
                except Exception as exc:  # a raising op is a failed op
                    out.append((label, exc))
        return out

    def work_ops(self, state):
        return 3

    def check(self, state, results, verify=True):
        chk = Check()
        bits = {}
        for n, expected in self.DISTINCT_EDGES.items() if verify else ():
            # the public enumeration, independently of the solvers' cache
            masks = hypergraph.canonical_edge_masks(n)
            chk.op(len(masks) == expected, f"m({n}) = {len(masks)}, expected {expected}")
            bits[n] = np.unpackbits(masks, axis=1, bitorder="little")[:, :n].astype(np.int64)
            chk.layers[f"hypergraph.masks_bytes.n{n}"] = int(masks.nbytes)
            if n == 32:
                # a full-edge scan reads every mask row and one int64 size per edge
                chk.layers["solver.scan_bytes"] = int(masks.nbytes + 8 * len(masks))
        for label, rep in results:
            if isinstance(rep, Exception):
                chk.op(False, f"{label}: {rep!r}")
                continue
            n = rep.n
            chk.guards[f"hypergraph.distinct_edges.n{n}"] = rep.n_edges
            # re-score the witness over every distinct edge, independently of
            # the solver's popcount scan
            rescored = (int(np.abs(bits[n] @ np.asarray(rep.witness_coloring)).max())
                        if verify else rep.disc_value)
            ok = (rescored == rep.disc_value and rep.n_edges == self.DISTINCT_EDGES[n]
                  and (label != "exact" or rep.disc_value == self.EXACT_16))
            chk.op(ok, f"{label} n={n}: disc {rep.disc_value}, rescored {rescored}, "
                       f"{rep.n_edges} edges")
            chk.digest_lines.append(f"{label} {n} {rep.disc_value} {rep.n_edges}")
            chk.cli_lines.append(f"{rep.method},{rep.disc_value},{rep.n_edges}")
        return chk

    def cli(self, seed):
        from click.testing import CliRunner

        runner = CliRunner()
        chk = Check()
        elapsed = 0.0
        for args in (["--n", 32, "--method", "random", "--trials", self.TRIALS,
                      "--seed", seed],
                     ["--n", 32, "--method", "local", "--restarts", self.RESTARTS,
                      "--seed", seed],
                     ["--n", 16, "--method", "exact"]):
            res, secs = _run_cli(runner, ["disc"] + args)
            elapsed += secs
            chk.op(res.exit_code == 0, f"disc {args}: exit {res.exit_code}")
            if res.exit_code == 0:
                rec = json.loads(res.stdout)
                chk.cli_lines.append(f"{rec['method']},{rec['disc']},{rec['n_edges']}")
        return chk, {"cli.disc.s": elapsed}


WORKLOADS = {
    "certify_sweep": CertifySweep(),
    "twonorm_chain": TwonormChain(),
    "disc_search": DiscSearch(),
}
