"""Exact integer and rational primitives.

Everything in this module is exact: rationals are stored reduced with a
positive denominator (``fractions.Fraction``), and all comparisons against
irrational thresholds of the form ``c * sqrt(n)`` are done by integer
squaring instead of floating point.  Rational approximation walks the
continued-fraction convergents of ``p/q`` (``first_convergent``) and
decides each step by an integer comparison on ``|d*p - a*q|`` against
``q``; no rational number is formed on the way.  The rest of the package
routes every branch decision through such integer comparisons; floats
appear only when a complex exponential is evaluated and in the FFT
autocorrelation of the averaging chain, whose results are rounded to
integers under a checked residue bound.

Proved facts are checked everywhere with ``check_invariant`` or by raising
``InternalInvariantViolation``; unlike ``assert``, both run under
``python -O``.  They are one mechanism, one exception type, spelled two
ways on purpose: ``check_invariant`` takes its message already built, so
``certifier`` and ``family`` raise directly inside ``if not ...:`` and
build their f-string messages only on failure.  In ``certify``, which
runs once per alpha, its checks (16 at the time) written as
``check_invariant`` calls with the same f-strings cut the rate from
78-81k to 53-59k calls/s (the sweep's alpha recipe at n = 4096 and 2^18,
the two spellings alternating in one process on one CPU of a 2-core
host, best of 9 passes each).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable


class InternalInvariantViolation(RuntimeError):
    """A step that is a proved fact failed; indicates a bug or bad input.

    ``module`` names the sumdisc module whose check failed: the one that
    raised, or the caller of ``check_invariant``.  It pickles with the
    instance, so the exception crosses a process pool intact.
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(invariant, message)
        self.invariant = invariant
        frame = sys._getframe(1)
        if frame.f_code is check_invariant.__code__:
            frame = frame.f_back
        self.module = frame.f_globals["__name__"].rpartition(".")[2]

    def __str__(self) -> str:
        return f"{self.invariant}: {self.args[1]}"


def check_invariant(cond: bool, invariant: str, message: str) -> None:
    """Raise InternalInvariantViolation unless ``cond``; unlike ``assert``
    this also runs under ``python -O``."""
    if not cond:
        raise InternalInvariantViolation(invariant, message)


def isqrt_ceil(x: int) -> int:
    """Smallest integer s with s*s >= x."""
    if x < 0:
        raise ValueError("isqrt_ceil of a negative number")
    if x == 0:
        return 0
    return 1 + math.isqrt(x - 1)


def nearest_int(num: int, den: int) -> int:
    """Nearest integer to num/den, ties rounded toward zero.

    den must be positive.  The tie rule only matters when num/den is exactly
    halfway between two integers; rounding toward zero keeps the scan
    deterministic.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    if num >= 0:
        f, r = divmod(num, den)
        return f + 1 if 2 * r > den else f
    f, r = divmod(-num, den)
    return -(f + 1) if 2 * r > den else -f


def first_convergent(p: int, q: int, limit: int,
                     accept: Callable[[int], bool]) -> tuple[int, int, int] | None:
    """First convergent denominator d <= limit of p/q (q >= 1) whose error
    passes ``accept``, as ``(d, a, r)`` with ``a = nearest_int(d*p, q)`` and
    ``r = |d*p - a*q|``; None if no convergent up to ``limit`` passes.

    ``accept(r)`` must be a threshold test ``||d*p/q|| < eps`` written on
    the integer r.  Then the answer is the smallest d in [1, limit] that
    passes at all: for 1 <= d < q_{i+1}, ||d*alpha|| >= ||q_i*alpha||
    (Lagrange; Khinchin, *Continued Fractions*, Sec. 6; Hardy & Wright,
    Ch. X), so the smallest qualifying d is a best approximation of the
    second kind and hence a convergent denominator q_i.  The walk takes
    O(log q) steps.

    The error needs no product: at q_i the Euclid remainder x_i equals
    |q_i*p - p_i*q| (Khinchin, Secs. 1-2), so r = min(x_i, q - x_i).  For
    i >= 1, x_i < q/2 and p_i is the nearest integer; at i = 0 the tie
    2*x == q gives the same r either way.  Only the hit forms d*p.
    """
    x, y = p % q, q            # Euclid on (p - floor(p/q)*q)/q
    d_prev, d = 0, 1           # q_{-1}, q_0
    while d <= limit:
        r = x if 2 * x <= q else q - x
        if accept(r):
            return d, nearest_int(d * p, q), r
        if x == 0:             # d = q: r == 0, the last convergent
            return None
        c, rem = divmod(y, x)
        x, y = rem, x
        d_prev, d = d, c * d + d_prev
    return None


def dirichlet_approx(alpha: Fraction, k: int) -> tuple[int, int]:
    """Smallest delta in [1, k] with ``|delta * alpha - a| < 1/k`` for some
    integer a, returned as the pair (delta, a); a is the nearest integer to
    delta * alpha (ties toward zero).

    Existence is the classical pigeonhole fact for one-dimensional
    approximation, so a walk without a hit is an internal bug.  The walk
    visits the O(log q) convergent denominators of alpha
    (``first_convergent``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    p, q = alpha.numerator, alpha.denominator
    if not 0 <= p < q:
        raise ValueError("alpha must lie in [0, 1)")
    # |delta*alpha - a| < 1/k  <=>  r*k < q
    hit = first_convergent(p, q, k, lambda r: r * k < q)
    if hit is None:
        raise InternalInvariantViolation(
            "dirichlet-existence",
            f"no denominator <= {k} approximates {alpha} within 1/{k}; "
            "this contradicts the pigeonhole principle")
    delta, a, _ = hit
    return delta, a


def totatives(delta: int) -> list[int]:
    """All b in [1, delta] with gcd(b, delta) == 1, in increasing order.

    For delta == 1 this is [1].  The length is Euler's phi of delta.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return [b for b in range(1, delta + 1) if math.gcd(b, delta) == 1]
