"""Checks of the facts the lower bound rests on, shared by
``sumdisc verify-lemmas`` and the acceptance suite.  Each one checks
through ``check_invariant`` (so it also runs under ``python -O``) and
returns the numbers its caller prints.  The family count bounds need no
function here: ``build_family`` checks them itself.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .certifier import TOL_SCALE, certify
from .fourier import parseval_check
from .hypergraph import Coloring, SumEdge, edge_cardinality
from .numtheory import check_invariant


def certification(n: int, alphas: list[Fraction]) -> tuple[float, dict[int, int]]:
    """Certify each alpha; return the minimum slack
    ``measured - (n/300 - TOL_SCALE*n)`` and the alpha count per branch."""
    threshold = n / 300 - TOL_SCALE * n
    min_slack, worst = math.inf, None
    cases = {1: 0, 2: 0, 3: 0}
    for alpha in alphas:
        cert = certify(alpha, n)
        cases[cert.case_tag] += 1
        if cert.measured - threshold < min_slack:
            min_slack, worst = cert.measured - threshold, alpha
    check_invariant(min_slack >= 0, "certified-magnitude",
                    f"slack {min_slack} < 0 at alpha={worst}, n={n}")
    return min_slack, cases


def parseval(rng: random.Random, pairs: int) -> float:
    """Worst relative gap between the translate-loop total and the grid
    quadrature on 2*(n + span) + 1 points, over ``pairs`` random
    (coloring, edge) pairs at each n in 8, 16, 32, 64."""
    worst = 0.0
    for n in (8, 16, 32, 64):
        for _ in range(pairs):
            chi = Coloring.random(n, seed=rng.randrange(2 ** 31))
            e = SumEdge(rng.randint(1, 10), rng.randint(1, 8),
                        rng.randint(1, 10), rng.randint(1, 8))
            err = parseval_check(chi, e, 2 * (n + e.span) + 1)
            check_invariant(err <= 1e-8, "parseval",
                            f"relative error {err} for {e} at n={n}")
            worst = max(worst, err)
    return worst


def cardinality(rng: random.Random, trials: int) -> int:
    """Compare ``edge_cardinality`` with a brute-force sumset, and
    ``collision_free`` with "the size is l1*l2", on ``trials`` random edges
    (differences and lengths up to 100); return the collision-free count."""
    free = 0
    for _ in range(trials):
        e = SumEdge(rng.randint(1, 100), rng.randint(1, 100),
                    rng.randint(1, 100), rng.randint(1, 100))
        size = len({j1 * e.d1 + j2 * e.d2
                    for j1 in range(e.l1) for j2 in range(e.l2)})
        card = edge_cardinality(e)
        check_invariant(card == size, "cardinality-oracle",
                        f"{e}: edge_cardinality {card} != {size}")
        check_invariant(e.collision_free == (size == e.l1 * e.l2),
                        "collision-free", f"{e}: {size} elements")
        free += e.collision_free
    return free
