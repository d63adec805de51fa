"""Certified witness edges: for any alpha in [0, 1) produce a family edge
whose indicator exponential sum at alpha has magnitude at least n/300.

The construction runs a three-branch analysis on how well alpha is
approximated by a fraction a1/d1 with denominator d1 <= sqrt(n):

* branch 1 - very good approximation, small denominator (d1 <= 24): a
  single long progression with difference d1 keeps all phases within a
  sixth of a turn, giving magnitude >= n/288.
* branch 2 - very good approximation, d1 > 24: a second approximation with
  denominator below d1 supplies the other progression; the two denominators
  are necessarily coprime, the sumset has at least n/150 elements, and all
  phases stay within a sixth of a turn, giving >= n/300.
* branch 3 - approximation error at least 1/n: the error selects a dyadic
  scale k, and a second difference is built from the modular inverse of a1
  so that d2*alpha is extremely close to an integer; the edge lands in the
  scale-k part of the family and gives >= n/288.

Every structural step (branch selection, interval membership, coprimality,
scale bounds, phase-budget hypotheses) is checked in exact integer or
rational arithmetic and raises InternalInvariantViolation on failure;
floating point only enters when the final magnitude is measured.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .family import (in_m_interval, kbar, length1_at_scale, length2_at_scale)
from .fourier import indicator_fourier
from .hypergraph import SumEdge, edge_cardinality
from .numtheory import InternalInvariantViolation
from .numtheory import check_invariant as _check
from .numtheory import dirichlet_approx, mod_inverse_pair, nearest_int

MIN_N = 576
TOL_SCALE = 1e-6


class BelowMinN(ValueError):
    """certify() rejects n < 576: below that the middle branch's
    denominator range is empty and the guarantees do not all hold."""


@dataclass(frozen=True)
class Certificate:
    """Witness output: the chosen edge plus all intermediate data.

    ``measured`` is |indicator transform| at alpha, ``certified_bound`` the
    guaranteed lower bound (n/288 for branches 1 and 3, n/300 for branch 2).
    """

    alpha: Fraction
    n: int
    case_tag: int
    delta1: int
    a1: int
    edge: SumEdge
    certified_bound: float
    measured: float
    delta2: int | None = None
    a2: int | None = None
    k: int | None = None
    s: int | None = None
    gamma: int | None = None
    b: int | None = None
    d: Fraction | None = None
    mu: int | None = None

    def to_json_dict(self) -> dict:
        rec = {
            "alpha": f"{self.alpha.numerator}/{self.alpha.denominator}",
            "n": self.n,
            "case": self.case_tag,
            "delta1": self.delta1,
            "a1": self.a1,
            "edge": {"d1": self.edge.d1, "l1": self.edge.l1,
                     "d2": self.edge.d2, "l2": self.edge.l2},
            "certified_bound": self.certified_bound,
            "measured": self.measured,
        }
        for name in ("delta2", "a2", "k", "s", "gamma", "b", "mu"):
            val = getattr(self, name)
            if val is not None:
                rec[name] = val
        if self.d is not None:
            rec["d"] = f"{self.d.numerator}/{self.d.denominator}"
        return rec


def select_delta1(alpha: Fraction, n: int) -> tuple[int, int]:
    """Smallest d <= floor(sqrt(n)) with |d*alpha - a| < n**-0.5 for the
    nearest integer a, returned as a reduced pair (d, a).

    Existence follows from the pigeonhole bound |d*alpha - a| <= 1/(Q+1)
    with Q = floor(sqrt(n)), and Q+1 > sqrt(n).  Dividing out gcd(a, d)
    only shrinks both the denominator and the error.
    """
    if not (0 <= alpha < 1):
        raise ValueError("alpha must lie in [0, 1)")
    p, q = alpha.numerator, alpha.denominator
    for delta in range(1, math.isqrt(n) + 1):
        t = delta * p
        a = nearest_int(t, q)
        r = abs(t - a * q)
        # |delta*alpha - a| < n**-0.5  <=>  n*r*r < q*q
        if n * r * r < q * q:
            g = math.gcd(a, delta)
            return delta // g, a // g
    raise InternalInvariantViolation(
        "dirichlet-existence",
        f"no denominator <= sqrt({n}) approximates {alpha} within n**-0.5")


def classify_case(alpha: Fraction, delta1: int, a1: int, n: int) -> int:
    """Branch tag from exact comparison of |alpha - a1/d1| against 1/n."""
    err = abs(alpha - Fraction(a1, delta1))
    if err < Fraction(1, n):
        return 1 if delta1 <= 24 else 2
    return 3


def certify(alpha: Fraction, n: int, tol_scale: float = TOL_SCALE) -> Certificate:
    """Produce a certified witness edge for alpha.

    The returned edge always belongs to the built family for n, and
    ``measured >= certified_bound - tol_scale * n``.
    """
    if not isinstance(alpha, Fraction):
        alpha = Fraction(alpha)
    if not (0 <= alpha < 1):
        raise ValueError("alpha must lie in [0, 1)")
    if n < MIN_N:
        raise BelowMinN(f"n={n} < {MIN_N}")

    delta1, a1 = select_delta1(alpha, n)
    err1 = abs(alpha - Fraction(a1, delta1))
    # |alpha - a1/d1| < n**-0.5 / d1, exactly
    _check(err1.numerator ** 2 * n * delta1 ** 2 < err1.denominator ** 2,
           "initial-approximation", f"err {err1} >= n**-0.5/{delta1}")
    case = classify_case(alpha, delta1, a1, n)

    if case == 1:
        l1 = (n + 6 * delta1 - 1) // (6 * delta1)
        edge = SumEdge(d1=delta1, l1=l1, d2=1, l2=1)
        return _finish(alpha, n, case, delta1, a1, edge, n / 288, tol_scale)

    if case == 2:
        l1 = (n + 12 * delta1 - 1) // (12 * delta1)
        wit = dirichlet_approx(alpha, delta1 - 1)
        delta2, a2 = wit.delta, wit.a
        _check(math.gcd(delta1, delta2) == 1, "coprime-denominators",
               f"gcd({delta1},{delta2}) != 1")
        l2 = (delta1 - 1 + 11) // 12
        edge = SumEdge(d1=delta1, l1=l1, d2=delta2, l2=l2)
        card = edge_cardinality(edge)
        _check(card.collision_free and card.value == l1 * l2,
               "injective-sumset", f"collisions in {edge}")
        _check(150 * l1 * l2 >= n, "size-bound",
               f"|E| = {l1 * l2} < n/150")
        _phase_budget_checks(alpha, delta1, a1, l1, delta2, a2, l2)
        return _finish(alpha, n, case, delta1, a1, edge, n / 300, tol_scale,
                       delta2=delta2, a2=a2)

    # case 3: approximation error at least 1/n selects a dyadic scale
    _check(err1 >= Fraction(1, n), "branch-threshold", "err < 1/n in branch 3")
    u, v = err1.numerator, err1.denominator
    k = 0
    # increase k while err1 < 2**-(k+1) * n**-0.5 / d1
    while ((u * delta1) << (k + 1)) ** 2 * n < v ** 2:
        k += 1
    _check(k <= kbar(n, delta1), "scale-range",
           f"k={k} > kbar={kbar(n, delta1)}")
    # err1 in [2**-(k+1), 2**-k) * n**-0.5 / d1, exactly
    _check(((u * delta1) << (k + 1)) ** 2 * n >= v ** 2, "scale-lower",
           f"err {err1} below scale-{k} shell")
    _check(((u * delta1) << k) ** 2 * n < v ** 2, "scale-upper",
           f"err {err1} at or above scale-{k} shell")

    s = 1 if alpha > Fraction(a1, delta1) else -1
    if delta1 == 1:
        gamma = None
        b = 1
    else:
        pair = mod_inverse_pair(a1, delta1)
        gamma = pair.k
        b = delta1 - gamma if s == 1 else gamma
    _check((b * a1 + s) % delta1 == 0, "inverse-residue",
           f"b*a1 + s not divisible by d1 (b={b}, a1={a1}, s={s})")
    mu = (b * a1 + s) // delta1

    four_k = 4 ** k
    d = 1 / (err1 * four_k * delta1 ** 2) - Fraction(b, four_k * delta1)
    ceil_d = math.ceil(d)
    delta2 = b + ceil_d * four_k * delta1
    _check(in_m_interval(n, delta1, k, delta2), "interval-membership",
           f"d2={delta2} outside the scale-{k} interval")
    _check(math.gcd(delta1, delta2) == 1, "coprime-denominators",
           f"gcd({delta1},{delta2}) != 1")

    l1 = length1_at_scale(n, k)
    l2 = length2_at_scale(n, k)
    _check(delta2 > l1, "second-difference-dominates", f"d2={delta2} <= l1={l1}")
    a2 = mu + ceil_d * four_k * a1
    _phase_budget_checks(alpha, delta1, a1, l1, delta2, a2, l2)
    edge = SumEdge(d1=delta1, l1=l1, d2=delta2, l2=l2)
    card = edge_cardinality(edge)
    _check(card.collision_free and card.value == l1 * l2,
           "injective-sumset", f"collisions in {edge}")
    _check(144 * l1 * l2 >= n, "size-bound", f"|E| = {l1 * l2} < n/144")
    return _finish(alpha, n, 3, delta1, a1, edge, n / 288, tol_scale,
                   delta2=delta2, a2=a2, k=k, s=s, gamma=gamma, b=b, d=d, mu=mu)


def _phase_budget_checks(alpha: Fraction, delta1: int, a1: int, l1: int,
                         delta2: int, a2: int, l2: int) -> None:
    """Exact per-progression phase budgets |d*alpha - a| <= 1/(12*(L-1)).

    A length-1 progression contributes no phase, so its budget is vacuous.
    """
    if l1 > 1:
        _check(abs(delta1 * alpha - a1) <= Fraction(1, 12 * (l1 - 1)),
               "phase-budget-1", f"|d1*alpha - a1| too large for l1={l1}")
    if l2 > 1:
        _check(abs(delta2 * alpha - a2) <= Fraction(1, 12 * (l2 - 1)),
               "phase-budget-2", f"|d2*alpha - a2| too large for l2={l2}")


def _finish(alpha: Fraction, n: int, case: int, delta1: int, a1: int,
            edge: SumEdge, bound: float, tol_scale: float, **extra) -> Certificate:
    measured = abs(indicator_fourier(edge, alpha))
    _check(measured >= bound - tol_scale * n, "magnitude-bound",
           f"measured {measured:.6f} < bound {bound:.6f} at alpha={alpha}")
    return Certificate(alpha=alpha, n=n, case_tag=case, delta1=delta1, a1=a1,
                       edge=edge, certified_bound=bound, measured=measured,
                       **extra)


# ---------------------------------------------------------------------------
# sweep drivers
# ---------------------------------------------------------------------------


def sweep_alphas(n: int, grid: int, n_random: int = 0, seed: int = 0,
                 adversarial: bool = True) -> list[Fraction]:
    """Deterministic alpha sample: uniform grid, seeded random rationals,
    and points straddling the branch boundaries a/d +- 1/n."""
    alphas: list[Fraction] = [Fraction(t, grid) for t in range(grid)]
    rng = random.Random(seed)
    for _ in range(n_random):
        q = rng.randint(1, 10 ** 6)
        alphas.append(Fraction(rng.randint(0, q - 1), q))
    if adversarial:
        inv_n = Fraction(1, n)
        eps_list = [inv_n - Fraction(1, n * n), inv_n,
                    inv_n + Fraction(1, n * n), Fraction(1, 2 * n),
                    Fraction(1, n * n)]
        denoms = list(range(1, 25)) + [25, 26, math.isqrt(n) - 1, math.isqrt(n)]
        for d in denoms:
            for a in range(0, d + 1):
                if a and math.gcd(a, d) != 1:
                    continue
                base = Fraction(a, d)
                for eps in eps_list:
                    for cand in (base - eps, base + eps):
                        if 0 <= cand < 1:
                            alphas.append(cand)
                if 0 <= base < 1:
                    alphas.append(base)
    seen = set()
    out = []
    for a in alphas:
        if a not in seen:
            seen.add(a)
            out.append(a)
    return out


def sweep(n: int, alphas: Iterable[Fraction],
          tol_scale: float = TOL_SCALE) -> Iterator[Certificate]:
    for alpha in alphas:
        yield certify(alpha, n, tol_scale=tol_scale)
