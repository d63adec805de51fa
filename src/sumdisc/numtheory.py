"""Exact integer and rational primitives.

Everything in this module is exact: rationals are stored reduced with a
positive denominator (``fractions.Fraction``), and all comparisons against
irrational thresholds of the form ``c * sqrt(n)`` are done by integer
squaring instead of floating point.  The rest of the package routes every
branch decision through these primitives; floats only ever appear when a
complex exponential is finally evaluated.

Proved facts are checked everywhere with ``check_invariant`` or by raising
``InternalInvariantViolation``; unlike ``assert``, both run under
``python -O``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction


class NotCoprime(ValueError):
    """Raised when a modular inverse is requested for non-coprime arguments."""


class DegenerateModulus(ValueError):
    """Raised when a modulus < 2 is passed where an inverse pair is needed."""


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


@dataclass(frozen=True)
class InversePair:
    """The pair (k, delta - k) of residues inverting a and -a mod delta.

    Invariants: ``k * a == 1 (mod delta)``, ``k_neg * a == -1 (mod delta)``,
    and both k and k_neg are coprime to delta and lie in [1, delta - 1].
    """

    k: int
    k_neg: int

    @property
    def delta(self) -> int:
        return self.k + self.k_neg


def mod_inverse_pair(a: int, delta: int) -> InversePair:
    """Residues k and delta-k with k*a = 1 and (delta-k)*a = -1 mod delta.

    Requires delta >= 2 and gcd(a, delta) == 1.  delta == 1 is rejected
    because [delta - 1] is empty there; callers with a trivial modulus must
    handle that case themselves.
    """
    if delta < 2:
        raise DegenerateModulus(f"modulus {delta} < 2 has no inverse pair")
    a_mod = a % delta
    if math.gcd(a_mod, delta) != 1:
        raise NotCoprime(f"{a} is not invertible mod {delta}")
    k = pow(a_mod, -1, delta)
    return InversePair(k=k, k_neg=delta - k)


@dataclass(frozen=True)
class DirichletWitness:
    """A denominator delta in [1, k] whose multiple of alpha is within 1/k
    of the integer a; ``err == |delta * alpha - a|`` is stored exactly."""

    delta: int
    a: int
    err: Fraction


def dirichlet_approx(alpha: Fraction, k: int) -> DirichletWitness:
    """Smallest delta in [1, k] with ``|delta * alpha - a| < 1/k`` for some
    integer a; a is the nearest integer to delta * alpha (ties toward zero).

    Existence is the classical pigeonhole fact for one-dimensional
    approximation, so a completed scan without a hit is an internal bug.
    The scan is O(k) exact integer operations.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not (0 <= alpha < 1):
        raise ValueError("alpha must lie in [0, 1)")
    p, q = alpha.numerator, alpha.denominator
    for delta in range(1, k + 1):
        t = delta * p
        a = nearest_int(t, q)
        r = abs(t - a * q)
        # |delta*alpha - a| < 1/k  <=>  r*k < q
        if r * k < q:
            return DirichletWitness(delta=delta, a=a, err=Fraction(r, q))
    raise InternalInvariantViolation(
        "dirichlet-existence",
        f"no denominator <= {k} approximates {alpha} within 1/{k}; "
        "this contradicts the pigeonhole principle")


def totatives(delta: int) -> list[int]:
    """All b in [1, delta] with gcd(b, delta) == 1, in increasing order.

    For delta == 1 this is [1].  The length is Euler's phi of delta.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return [b for b in range(1, delta + 1) if math.gcd(b, delta) == 1]
