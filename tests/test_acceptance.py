"""Acceptance suite: one test per criterion, each printing a PASS line with
the numbers that back it.  Criterion 7 runs at both stated sizes: at n=64
over the enumerated distinct edges, at n=256 through the exact
max-imbalance sweep with the envelope taken at the progression count, a
lower bound on the number of distinct edges.  The last test checks that
the invariant checks behind these criteria still run under ``python -O``.
"""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import sumdisc
from sumdisc import checks
from sumdisc.certifier import sweep_alphas
from sumdisc.family import FamilyConfig, build_family
from sumdisc.fourier import quadrature_sum_sq, sum_sq_disc
from sumdisc.hypergraph import Coloring, SumEdge, edge_cardinality
from sumdisc.solver import (TwoNormEngine, exact_discrepancy,
                            local_search_upper, random_coloring_upper)


@pytest.mark.parametrize("n", [1024, 4096])
def test_c1_certification_sweep(n):
    """Criterion 1: certified magnitude >= n/300 - 1e-6*n on a 1e5 grid
    plus 1e3 random rationals plus branch-boundary points."""
    alphas = sweep_alphas(n, 10 ** 5, n_random=10 ** 3, seed=20240501)
    min_slack, cases = checks.certification(n, alphas)
    print(f"[criterion 1] PASS n={n}: {len(alphas)} points, "
          f"min slack {min_slack:.3f} >= 0, cases={cases}")


def test_c2_family_counts():
    """Criterion 2: |e3| <= 6n, |e1 u e2| < n, |family| <= 7n, exactly."""
    for n in (576, 1024, 4096, 65536):
        fam = build_family(FamilyConfig(n=n))
        c1, c2, c3 = fam.counts
        assert c3 <= 6 * n
        assert c1 + c2 < n
        assert c1 + c2 + c3 <= 7 * n
        print(f"[criterion 2] PASS n={n}: e1={c1} e2={c2} e3={c3} "
              f"total={c1 + c2 + c3} <= {7 * n}")


def test_c3_parseval():
    """Criterion 3: translate-loop total vs grid quadrature <= 1e-8
    relative, 100 random (coloring, edge) pairs per size."""
    worst = checks.parseval(random.Random(33), 100)
    print(f"[criterion 3] PASS n in (8, 16, 32, 64): 100 pairs each, "
          f"worst rel err {worst:.2e}")


def test_c4_cardinality_oracle():
    """Criterion 4: cardinality matches brute force on 1e4 random edges and
    equals l1*l2 whenever the injectivity hypothesis holds."""
    rng = random.Random(44)
    free = checks.cardinality(rng, 10 ** 4)
    # additionally force 1e4 hypothesis-satisfying edges
    forced = 0
    while forced < 10 ** 4:
        e = SumEdge(rng.randint(1, 100), rng.randint(1, 100),
                    rng.randint(1, 10 ** 4), rng.randint(1, 100))
        if e.l1 * math.gcd(e.d1, e.d2) > e.d2:
            continue
        assert e.collision_free and edge_cardinality(e) == e.l1 * e.l2
        forced += 1
    print(f"[criterion 4] PASS: 1e4 random edges match brute force "
          f"({free} collision-free), "
          f"1e4 constructed hypothesis edges give l1*l2 exactly")


def test_c5_averaging_chain():
    """Criterion 5: S >= n^3/90000 and the maximizing translate exceeds
    sqrt(n)/1200, for 100 random + structured colorings per size."""
    for n in (576, 1024, 2048):
        engine = TwoNormEngine(build_family(FamilyConfig(n=n)))
        colorings = [("ones", Coloring.all_plus(n)),
                     ("alt", Coloring.alternating(n)),
                     ("block", Coloring.block(n))]
        colorings += [(f"random{s}", Coloring.random(n, seed=s))
                      for s in range(100)]
        min_total = math.inf
        min_wit = math.inf
        for _, chi in colorings:
            bound = engine.evaluate(chi)  # checks both facts internally
            assert 90000 * bound.total >= n ** 3
            assert 1200 ** 2 * bound.witness_value ** 2 > n
            min_total = min(min_total, bound.total)
            min_wit = min(min_wit, bound.witness_value)
        print(f"[criterion 5] PASS n={n}: {len(colorings)} colorings, "
              f"min S={min_total} >= {n ** 3 // 90000 + 1}, "
              f"min witness {min_wit} > sqrt(n)/1200 = {math.sqrt(n) / 1200:.3f}")


# VmHWM, the peak RSS of the child's own address space: Linux carries the
# forking process's high-water mark across exec into ru_maxrss, so under
# the test runner ru_maxrss would read the runner's peak
AVERAGING_2_17 = """
import json, re, sys, time
from sumdisc.family import FamilyConfig, build_family
from sumdisc.hypergraph import Coloring
from sumdisc.solver import TwoNormEngine
n = 1 << 17
start = time.perf_counter()
engine = TwoNormEngine(build_family(FamilyConfig(n=n)))
rows = []
for name, chi in (("ones", Coloring.all_plus(n)), ("random0", Coloring.random(n, 0))):
    bound = engine.evaluate(chi)
    rows.append((name, bound.total, bound.witness_value))
seconds = time.perf_counter() - start
with open("/proc/self/status") as f:
    hwm_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB", f.read()).group(1))
json.dump({"rows": rows, "seconds": seconds, "hwm_kb": hwm_kb}, sys.stdout)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads VmHWM from /proc/self/status")
def test_c5_averaging_chain_n131072():
    """Criterion 5 at N = 2^17, in bounded memory: family, engine and two
    colorings in a fresh process, under 30 s and 512 MB of peak RSS."""
    n = 1 << 17
    src = str(Path(sumdisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", AVERAGING_2_17], env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    for name, total, witness in out["rows"]:
        assert 90000 * total >= n ** 3, name
        assert 1440000 * witness ** 2 > n, name
    rss_mb = out["hwm_kb"] / 1024
    assert out["seconds"] < 30 and rss_mb < 512, out
    print(f"[criterion 5] PASS n={n}: {out['rows']} in {out['seconds']:.1f} s, "
          f"peak RSS {rss_mb:.0f} MB")


def test_c6_fourier_side_equality():
    """Criterion 6: translate-loop S equals grid quadrature of
    |chi_hat|^2 * sum_E |edge_hat|^2 to 1e-6 relative at small n."""
    rng = random.Random(66)
    for n in (8, 16, 32, 48, 64):
        fam = build_family(FamilyConfig(n=n))
        edges = [fam.edge(i) for i in range(len(fam))]
        m = 2 * (n + max(e.span for e in edges)) + 1
        worst = 0.0
        for _ in range(10):
            chi = Coloring.random(n, seed=rng.randrange(2 ** 31))
            loop = sum(sum_sq_disc(chi, e) for e in edges)
            quad = quadrature_sum_sq(chi, edges, m)
            rel = abs(loop - quad) / loop
            worst = max(worst, rel)
            assert rel <= 1e-6
        print(f"[criterion 6] PASS n={n}: 10 colorings, worst rel err {worst:.2e}")


def test_c7_envelope_n64():
    """Criterion 7 at n=64: best-of-100 random colorings stays below the
    harness envelope 4*sqrt(n*ln(2m)) over all m distinct edges."""
    n = 64
    report = random_coloring_upper(n, trials=100, seed=7)
    assert report.envelope is not None
    assert report.disc_value <= report.envelope
    print(f"[criterion 7] PASS n=64: best disc {report.disc_value} <= "
          f"envelope {report.envelope:.1f} over m={report.n_edges} edges")


def test_c7_envelope_n256():
    """Criterion 7 at n=256: best-of-100 random colorings stays below the
    harness envelope 4*sqrt(n*ln(2m)).  The colorings are scored by the
    exact sweep over every hyperedge; the envelope grows with m, so taking
    it at the progression count m_lo <= m makes the check stricter."""
    n = 256
    report = random_coloring_upper(n, trials=100, seed=7)
    assert report.n_edges_lower_bound
    assert report.disc_value <= report.envelope
    chi = Coloring(n, report.witness_coloring)
    assert abs(sum(chi(z) for z in report.witness_edge)) == report.disc_value
    print(f"[criterion 7] PASS n=256: best disc {report.disc_value} <= "
          f"envelope {report.envelope:.1f} over m >= {report.n_edges} edges "
          f"(lower bound: distinct progressions)")


def test_c8_exact_solver_sanity():
    """Criterion 8: exact values at n=1,2 and upper bounds never below the
    exact optimum for n <= 16."""
    assert exact_discrepancy(1).disc_value == 1
    assert exact_discrepancy(2).disc_value == 1
    for n in range(1, 17):
        exact = exact_discrepancy(n).disc_value
        rand = random_coloring_upper(n, trials=30, seed=88).disc_value
        local = local_search_upper(n, restarts=8, seed=88).disc_value
        assert rand >= exact and local >= exact, n
    print("[criterion 8] PASS: exact(1)=1, exact(2)=1; random and "
          "local-search bounds dominate the exact optimum for n=1..16")


# Each script breaks one proved fact; under -O it must still end in
# InternalInvariantViolation, named by module and invariant.
BROKEN_UNDER_O = {
    "solver two-norm-bound": """
from sumdisc.family import FamilyConfig, build_family
from sumdisc.hypergraph import Coloring
from sumdisc.solver import TwoNormEngine
engine = TwoNormEngine(build_family(FamilyConfig(n=100)))
engine.fam_profile[:] = 0
engine.evaluate(Coloring.random(100, seed=0))
""",
    "solver profile-mass": """
from sumdisc import solver
from sumdisc.family import FamilyConfig, build_family
from sumdisc.hypergraph import SumEdge
split = solver.staircase_split
def one_row_short(e):
    a, (o, b) = split(e)
    return a, (o, SumEdge(b.d1, b.l1, b.d2, b.l2 - 1))
solver.staircase_split = one_row_short
# n=1024 has colliding edges (their pieces b have two rows), the ones the
# filters take as staircase pieces
solver.TwoNormEngine(build_family(FamilyConfig(n=1024)))
""",
    "solver edge-mass": """
from sumdisc import solver
from sumdisc.family import FamilyConfig, build_family
# one chain prefix sum where the triangle filters take two
solver._chain_sums = lambda values, d1: values.reshape(-1, d1).cumsum(axis=0).ravel()
solver.TwoNormEngine(build_family(FamilyConfig(n=100)))
""",
    "solver edge-total": """
from sumdisc.family import FamilyConfig, build_family
from sumdisc.hypergraph import Coloring
from sumdisc.solver import TwoNormEngine
engine = TwoNormEngine(build_family(FamilyConfig(n=100)))
# the same mass, moved off the filters' transpose: S moves by A(0) - A(1)
engine.fam_profile[:2] += [1, -1]
engine.evaluate(Coloring.random(100, seed=0))
""",
    "solver exact-rescore": """
from sumdisc import solver
# keep every word with vertices 2..n at -1: the bound 1 fails on {2, 3}
solver._children = lambda parents, words, sizes, bound, bit: parents
solver.exact_discrepancy(8)
""",
    "solver random-rescore": """
from sumdisc import solver
# a scan that reports one less than its word's max over every edge
scan = solver._scan
def one_less(words, sizes, batches):
    best, word = scan(words, sizes, batches)
    return best - 1, word
solver._scan = one_less
solver.random_coloring_upper(8, trials=3, seed=0)
""",
    "solver local-search-flip": """
from sumdisc import solver
# accept every vertex, improving or not
solver._improving_flips = lambda words, pos, signed, value: (1 << 64) - 1
solver.local_search_upper(8, restarts=1, seed=0)
""",
    "hypergraph fft-rounding": """
import numpy as np
from sumdisc.hypergraph import Coloring, exact_autocorrelation
irfft = np.fft.irfft
np.fft.irfft = lambda *a, **k: irfft(*a, **k) + 0.3
exact_autocorrelation(Coloring.random(100, seed=0).values)
""",
    "hypergraph sweep-witness-rescore": """
from sumdisc import hypergraph
hypergraph._trim = lambda e, offset, n: (hypergraph.SumEdge(1, 1, 1, 1), 1)
hypergraph.max_edge_imbalance(hypergraph.Coloring.random(20, seed=5))
""",
    "family count-e3": """
import numpy as np
from sumdisc import family
# every M-set five times: |e3| = 630 > 6n, the family 654 <= 7n at n=100
m_sets = family.m_sets
family.m_sets = lambda *args: tuple(np.tile(c, 5) for c in m_sets(*args))
family.build_family(family.FamilyConfig(n=100))
""",
    "family m-set-size": """
import numpy as np
from sumdisc import family
# the interval [2, 20] gives class 2 of d1=3 seven members at n=36, one
# more than 3*sqrt(n)/d1
family.m_interval = lambda n, d1, k: (2, 20)
family.m_sets(36, 3, 0, np.array(family.totatives(3), dtype=np.int64))
""",
    "certifier initial-approximation": """
from fractions import Fraction
from sumdisc import certifier
# the walk claims d1 = 1, a1 = 0 (error 1/3) as its hit
certifier._walk_delta1 = lambda p, q, n: (1, 0, 1, [])
certifier.certify(Fraction(1, 3), 1024)
""",
    "certifier phase-budget-2": """
from fractions import Fraction
from sumdisc import certifier
# branch 2's a2 = nearest_int(d2*p, q), one off
nearest = certifier.nearest_int
certifier.nearest_int = lambda num, den: nearest(num, den) + 1
certifier.certify(Fraction(4, 27), 1024)
""",
}


RUN_BROKEN = """
import sys
from sumdisc.numtheory import InternalInvariantViolation
if __debug__:
    sys.exit("not running under -O")
try:
    exec(sys.argv[1])
except InternalInvariantViolation as exc:
    print(exc.module, exc.invariant)
else:
    sys.exit("no violation raised")
"""


@pytest.mark.parametrize("expected", sorted(BROKEN_UNDER_O))
def test_checks_survive_python_O(expected):
    src = str(Path(sumdisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-O", "-c", RUN_BROKEN,
                          BROKEN_UNDER_O[expected]],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == expected
    print(f"[python -O] PASS: {expected} raised InternalInvariantViolation")
