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
scale bounds, phase-budget hypotheses) is an integer comparison: for
alpha = p/q each threshold on an error |d*alpha - a| is cross-multiplied
into a test on |d*p - a*q| against q, and a failed check raises
InternalInvariantViolation (also under ``python -O``).  The only rational
built per alpha is the case-3 ``Certificate.d``; floating point only
enters when the final magnitude is measured.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .family import e1_edge, e2_edge, e3_edge, in_m_interval, kbar
from .fourier import indicator_fourier
from .hypergraph import SumEdge, edge_cardinality
from .numtheory import (InternalInvariantViolation, dirichlet_approx,
                        first_convergent)

MIN_N = 576
TOL_SCALE = 1e-6


class BelowMinN(ValueError):
    """certify() rejects n < 576: below that the middle branch's
    denominator range is empty and the guarantees do not all hold."""


class Certificate(NamedTuple):
    """Witness output: the chosen edge plus all intermediate data.

    ``measured`` is |indicator transform| at alpha, ``certified_bound`` the
    guaranteed lower bound (n/288 for branches 1 and 3, n/300 for branch 2).
    A named tuple, built once per alpha at the cost of a tuple.
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
    with Q = floor(sqrt(n)), and Q+1 > sqrt(n).  The smallest such d is a
    convergent denominator of alpha, so the walk over convergents
    (``first_convergent``) finds it.  The pair is already reduced: a
    convergent p_i/q_i is in lowest terms, and at d = 1 the numerator a is
    0 or 1.
    """
    p, q = alpha.numerator, alpha.denominator
    if not 0 <= p < q:
        raise ValueError("alpha must lie in [0, 1)")
    qq = q * q
    # |delta*alpha - a| < n**-0.5  <=>  n*r*r < q*q
    hit = first_convergent(p, q, math.isqrt(n), lambda r: n * r * r < qq)
    if hit is None:
        raise InternalInvariantViolation(
            "dirichlet-existence",
            f"no denominator <= sqrt({n}) approximates {alpha} within n**-0.5")
    return hit[:2]


def certify(alpha: Fraction, n: int) -> Certificate:
    """Produce a certified witness edge for alpha.

    The returned edge always belongs to the built family for n, and
    ``measured >= certified_bound - TOL_SCALE * n``.

    Every branch decision and check compares integers: for alpha = p/q
    the base error |alpha - a1/d1| is E/(q*d1) with E = |d1*p - a1*q|, and
    each threshold is cross-multiplied against it.
    """
    if not isinstance(alpha, Fraction):
        alpha = Fraction(alpha)
    p, q = alpha.numerator, alpha.denominator
    if not 0 <= p < q:
        raise ValueError("alpha must lie in [0, 1)")
    if n < MIN_N:
        raise BelowMinN(f"n={n} < {MIN_N}")

    delta1, a1 = select_delta1(alpha, n)
    signed = delta1 * p - a1 * q
    e1 = abs(signed)
    qq = q * q
    # |alpha - a1/d1| < n**-0.5 / d1  <=>  E^2 * n < q^2
    if not e1 * e1 * n < qq:
        raise InternalInvariantViolation(
            "initial-approximation",
            f"err {e1}/{q * delta1} >= n**-0.5/{delta1}")

    # branches 1 and 2: |alpha - a1/d1| < 1/n  <=>  E * n < q * d1
    if e1 * n < q * delta1:
        if delta1 <= 24:
            return _finish(alpha, n, 1, delta1, a1, e1_edge(n, delta1), n / 288)
        delta2, a2 = dirichlet_approx(alpha, delta1 - 1)
        if math.gcd(delta1, delta2) != 1:
            raise InternalInvariantViolation(
                "coprime-denominators", f"gcd({delta1},{delta2}) != 1")
        edge = e2_edge(n, delta1, delta2)
        _size_checks(edge, 150, n)
        _phase_budget_checks(p, q, e1, edge.l1, delta2, a2, edge.l2)
        return _finish(alpha, n, 2, delta1, a1, edge, n / 300,
                       delta2=delta2, a2=a2)

    # case 3: approximation error at least 1/n selects a dyadic scale, the
    # largest k with err1 < 2**-k * n**-0.5 / d1, i.e. 4^k * E^2 * n < q^2
    k = (((qq - 1) // (e1 * e1 * n)).bit_length() - 1) // 2
    if k > kbar(n, delta1):
        raise InternalInvariantViolation(
            "scale-range", f"k={k} > kbar={kbar(n, delta1)}")
    # err1 in [2**-(k+1), 2**-k) * n**-0.5 / d1, exactly
    if not (e1 << (k + 1)) ** 2 * n >= qq:
        raise InternalInvariantViolation(
            "scale-lower", f"err {e1}/{q * delta1} below scale-{k} shell")
    if not (e1 << k) ** 2 * n < qq:
        raise InternalInvariantViolation(
            "scale-upper", f"err {e1}/{q * delta1} at or above scale-{k} shell")

    s = 1 if signed > 0 else -1
    if delta1 == 1:
        gamma = None
        b = 1
    else:
        gamma = pow(a1, -1, delta1)
        b = delta1 - gamma if s == 1 else gamma
    if (b * a1 + s) % delta1 != 0:
        raise InternalInvariantViolation(
            "inverse-residue",
            f"b*a1 + s not divisible by d1 (b={b}, a1={a1}, s={s})")
    mu = (b * a1 + s) // delta1

    # d = 1/(err1 * 4^k * d1^2) - b/(4^k * d1) = (q - b*E) / (E * 4^k * d1)
    four_k = 4 ** k
    step = four_k * delta1
    d_num, d_den = q - b * e1, e1 * step
    ceil_d = -(-d_num // d_den)
    delta2 = b + ceil_d * step
    if not in_m_interval(n, delta1, k, delta2):
        raise InternalInvariantViolation(
            "interval-membership", f"d2={delta2} outside the scale-{k} interval")
    if math.gcd(delta1, delta2) != 1:
        raise InternalInvariantViolation(
            "coprime-denominators", f"gcd({delta1},{delta2}) != 1")

    edge = e3_edge(n, delta1, k, delta2)
    if not delta2 > edge.l1:
        raise InternalInvariantViolation(
            "second-difference-dominates", f"d2={delta2} <= l1={edge.l1}")
    a2 = mu + ceil_d * four_k * a1
    _phase_budget_checks(p, q, e1, edge.l1, delta2, a2, edge.l2)
    _size_checks(edge, 144, n)
    return _finish(alpha, n, 3, delta1, a1, edge, n / 288,
                   delta2=delta2, a2=a2, k=k, s=s, gamma=gamma, b=b,
                   d=Fraction(d_num, d_den), mu=mu)


def _size_checks(edge: SumEdge, c: int, n: int) -> None:
    """The edge's l1*l2 lattice points are distinct and at least n/c."""
    size = edge.l1 * edge.l2
    if edge_cardinality(edge) != size:
        raise InternalInvariantViolation("injective-sumset", f"collisions in {edge}")
    if not c * size >= n:
        raise InternalInvariantViolation("size-bound", f"|E| = {size} < n/{c}")


def _phase_budget_checks(p: int, q: int, e1: int, l1: int,
                         delta2: int, a2: int, l2: int) -> None:
    """Exact per-progression phase budgets |d*alpha - a| <= 1/(12*(L-1)),
    as |d*p - a*q| * 12*(L-1) <= q; ``e1`` is |d1*p - a1*q|.

    A length-1 progression contributes no phase, so its budget is vacuous.
    """
    if l1 > 1 and not e1 * 12 * (l1 - 1) <= q:
        raise InternalInvariantViolation(
            "phase-budget-1", f"|d1*alpha - a1| too large for l1={l1}")
    if l2 > 1 and not abs(delta2 * p - a2 * q) * 12 * (l2 - 1) <= q:
        raise InternalInvariantViolation(
            "phase-budget-2", f"|d2*alpha - a2| too large for l2={l2}")


def _finish(alpha: Fraction, n: int, case: int, delta1: int, a1: int,
            edge: SumEdge, bound: float, **extra) -> Certificate:
    measured = abs(indicator_fourier(edge, alpha))
    if not measured >= bound - TOL_SCALE * n:
        raise InternalInvariantViolation(
            "magnitude-bound",
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
        # isqrt(n) - 1 is 0 below n = 4
        denoms = [d for d in (*range(1, 27), math.isqrt(n) - 1, math.isqrt(n))
                  if d >= 1]
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
    return list(dict.fromkeys(alphas))

