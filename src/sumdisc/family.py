"""The structured O(N)-size edge family used by the certification argument.

The family splits into three parts:

* ``e1``: single progressions with difference d1 in [1, 24] and length
  ceil(N / (6*d1)).
* ``e2``: for d1 in [25, floor(sqrt(N))], length ceil(N / (12*d1)), paired
  with every second difference d2 in [1, d1 - 1] and second length
  ceil((d1 - 1) / 12).
* ``e3``: for every d1 up to floor(sqrt(N)) and every dyadic scale
  k in [0, kbar(d1)], second differences drawn from congruence classes
  b mod 2^(2k)*d1 (b coprime to d1) inside the open interval
  (2^k sqrt(N), 2^(k+1) sqrt(N) + 2^(2k) d1); lengths are
  ceil(2^k sqrt(N) / 12) and ceil(2^-k sqrt(N) / 12).

All interval endpoints involve sqrt(N), which is irrational for most N, so
they are taken exactly as integer square roots: ``m_interval`` gives each
scale's interval as its first and last integers (lo, hi), kbar is a bit
length, and each M-set is a range of that interval's integers, from the
first one congruent to b, in steps of 2^(2k)*d1.  Every edge in the family
fits inside [0, N-1]; the total counts obey |e3| <= 6N and
|e1| + |e2| + |e3| <= 7N.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache
from typing import Iterator, NamedTuple

from .hypergraph import SumEdge, edge_cardinality
from .numtheory import (InternalInvariantViolation, check_invariant,
                        isqrt_ceil, totatives)

# Below this N the count bounds are meaningless (e1 alone has 24 edges) and
# the family is only useful for exercising degenerate-input handling.
COUNT_CHECK_MIN_N = 25


class BadK(ValueError):
    """Raised when a dyadic scale k exceeds kbar for the given difference."""


@dataclass(frozen=True)
class FamilyConfig:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")


class Provenance(NamedTuple):
    delta1: int
    k: int
    b: int


# Cached, as are the two scale lengths and the scale intervals: certify
# asks for them once per alpha.  Per n the caches hold at most isqrt(n)
# ints for kbar, isqrt(n) * (kbar(n, 1) + 1) pairs for m_interval and
# kbar(n, 1) + 1 ints for each length.
@cache
def kbar(n: int, delta1: int) -> int:
    """Largest k >= 0 with 2^k * delta1 <= sqrt(n), exactly: the largest
    k with 2^k <= isqrt(n) // delta1.

    Requires delta1 <= sqrt(n) so that k = 0 qualifies.
    """
    if delta1 < 1 or delta1 * delta1 > n:
        raise ValueError(f"delta1={delta1} exceeds sqrt({n})")
    return (math.isqrt(n) // delta1).bit_length() - 1


@cache
def length1_at_scale(n: int, k: int) -> int:
    """ceil(2^k * sqrt(n) / 12) computed exactly."""
    return (isqrt_ceil((4 ** k) * n) + 11) // 12


@cache
def length2_at_scale(n: int, k: int) -> int:
    """ceil(2^-k * sqrt(n) / 12) computed exactly."""
    step = 12 << k
    return (isqrt_ceil(n) + step - 1) // step


@cache
def m_interval(n: int, delta1: int, k: int) -> tuple[int, int]:
    """The integers of the open interval
    (2^k sqrt(n), 2^(k+1) sqrt(n) + 4^k delta1) as their endpoints (lo, hi):
    lo is the least integer above 2^k sqrt(n), and hi - 4^k delta1 the
    greatest integer below 2^(k+1) sqrt(n)."""
    return (math.isqrt((4 ** k) * n) + 1,
            (4 ** k) * delta1 + math.isqrt((4 ** (k + 1)) * n - 1))


def in_m_interval(n: int, delta1: int, k: int, d2: int) -> bool:
    """Exact test for d2 in the open interval
    (2^k sqrt(n), 2^(k+1) sqrt(n) + 2^(2k) delta1)."""
    lo, hi = m_interval(n, delta1, k)
    return lo <= d2 <= hi


def build_m_set(n: int, delta1: int, b: int, k: int) -> tuple[int, ...]:
    """The second differences congruent to b mod 2^(2k)*delta1 inside the
    open dyadic interval at scale k, in increasing order: a range of
    ``m_interval``'s integers with step 2^(2k)*delta1.

    The member count never exceeds 3 * 2^-k * sqrt(n) / delta1.
    """
    if delta1 < 1 or delta1 * delta1 > n:
        raise ValueError(f"delta1={delta1} exceeds sqrt({n})")
    if b < 1 or b > delta1 or math.gcd(b, delta1) != 1:
        raise ValueError(f"b={b} is not a totative of {delta1}")
    if k < 0 or k > kbar(n, delta1):
        raise BadK(f"k={k} outside [0, {kbar(n, delta1)}] for delta1={delta1}")
    step = (4 ** k) * delta1
    lo, hi = m_interval(n, delta1, k)
    members = range(lo + (b - lo) % step, hi + 1, step)
    count = len(members)
    # count <= 3 * 2^-k sqrt(n) / delta1, checked by squaring
    if (count * (1 << k) * delta1) ** 2 > 9 * n:
        raise InternalInvariantViolation(
            "m-set-size",
            f"M({b},{k}) for delta1={delta1}, n={n} has {count} members, "
            "more than 3*2^-k*sqrt(n)/delta1")
    return tuple(members)


@dataclass(eq=False)
class FamilyE0:
    """The built family; treat as immutable after construction."""

    n: int
    e1: list[SumEdge]
    e2: list[SumEdge]
    e3: list[tuple[SumEdge, Provenance]]

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.e1), len(self.e2), len(self.e3))

    def __len__(self) -> int:
        return len(self.e1) + len(self.e2) + len(self.e3)

    def all_edges(self) -> Iterator[SumEdge]:
        yield from self.e1
        yield from self.e2
        for edge, _ in self.e3:
            yield edge


def e1_edge(n: int, d1: int) -> SumEdge:
    """The e1 edge of difference d1, one progression of length ceil(n/(6*d1))."""
    return SumEdge(d1=d1, l1=(n + 6 * d1 - 1) // (6 * d1), d2=1, l2=1)


def e2_edge(n: int, d1: int, d2: int) -> SumEdge:
    """The e2 edge (d1, d2), lengths ceil(n/(12*d1)) and ceil((d1-1)/12)."""
    return SumEdge(d1=d1, l1=(n + 12 * d1 - 1) // (12 * d1), d2=d2,
                   l2=(d1 - 1 + 11) // 12)


def e3_edge(n: int, d1: int, k: int, d2: int) -> SumEdge:
    """The scale-k e3 edge (d1, d2), lengths ceil(2^(+-k) sqrt(n) / 12)."""
    return SumEdge(d1=d1, l1=length1_at_scale(n, k), d2=d2,
                   l2=length2_at_scale(n, k))


def _e1_edges(n: int) -> list[SumEdge]:
    return [e1_edge(n, d1) for d1 in range(1, 25)]


def _e2_edges(n: int) -> list[SumEdge]:
    return [e2_edge(n, d1, d2)
            for d1 in range(25, math.isqrt(n) + 1) for d2 in range(1, d1)]


def _e3_edges(n: int) -> list[tuple[SumEdge, Provenance]]:
    out = []
    for d1 in range(1, math.isqrt(n) + 1):
        for k in range(0, kbar(n, d1) + 1):
            for b in totatives(d1):
                for d2 in build_m_set(n, d1, b, k):
                    out.append((e3_edge(n, d1, k, d2),
                                Provenance(delta1=d1, k=k, b=b)))
    return out


def build_family(cfg: FamilyConfig) -> FamilyE0:
    """Construct the full family and validate its containment and counts.

    Every edge must fit in [0, n-1] at every n; each sub-family spans less
    than about n/3, so a violation is a construction bug.  The count bounds
    |e3| <= 6n and |e1|+|e2|+|e3| <= 7n are checked for n >= 25 (below that
    even the 24 fixed e1 records exceed n).
    """
    n = cfg.n
    e1 = _e1_edges(n)
    e2 = _e2_edges(n)
    e3 = _e3_edges(n)
    widest = max((*e1, *e2, *(e for e, _ in e3)), key=lambda e: e.span)
    check_invariant(widest.span <= n - 1, "containment",
                    f"edge {widest} spans {widest.span} > {n - 1} at n={n}")

    if n >= COUNT_CHECK_MIN_N:
        check_invariant(len(e3) <= 6 * n, "count-e3",
                        f"|e3|={len(e3)} > 6n at n={n}")
        check_invariant(len(e1) + len(e2) < n, "count-e1-e2",
                        f"|e1|+|e2|={len(e1) + len(e2)} >= n at n={n}")
        check_invariant(len(e1) + len(e2) + len(e3) <= 7 * n, "count-total",
                        f"family size {len(e1) + len(e2) + len(e3)} > 7n at n={n}")
    return FamilyE0(n=n, e1=e1, e2=e2, e3=e3)


@dataclass(frozen=True)
class FamilyStats:
    n: int
    count_e1: int
    count_e2: int
    count_e3: int
    total: int
    max_element: int
    min_size_e2: int | None
    min_size_e3: int | None


def family_stats(f: FamilyE0) -> FamilyStats:
    """Summary counts plus the guaranteed minimum edge sizes.

    Where the injectivity criterion applies, e2 edges have at least n/150
    elements and e3 edges at least n/144; both bounds are re-checked here
    with integer arithmetic.
    """
    max_el = max((e.span for e in f.all_edges()), default=0)
    min_e2: int | None = None
    for e in f.e2:
        size = edge_cardinality(e)
        if e.collision_free and 150 * size < f.n:
            raise InternalInvariantViolation(
                "e2-size", f"e2 edge {e} has {size} < n/150 elements")
        min_e2 = size if min_e2 is None else min(min_e2, size)
    min_e3: int | None = None
    for e, _ in f.e3:
        if not e.collision_free:
            raise InternalInvariantViolation(
                "e3-injective", f"e3 edge {e} has colliding lattice points")
        size = e.l1 * e.l2
        if 144 * size < f.n:
            raise InternalInvariantViolation(
                "e3-size", f"e3 edge {e} has {size} < n/144 elements")
        min_e3 = size if min_e3 is None else min(min_e3, size)
    return FamilyStats(
        n=f.n,
        count_e1=len(f.e1),
        count_e2=len(f.e2),
        count_e3=len(f.e3),
        total=len(f),
        max_element=max_el,
        min_size_e2=min_e2,
        min_size_e3=min_e3,
    )


def family_records(f: FamilyE0) -> Iterator[dict]:
    """JSON-ready records, one per edge, with provenance."""
    for e in f.e1:
        yield {"sub": "e1", "d1": e.d1, "l1": e.l1, "d2": e.d2, "l2": e.l2}
    for e in f.e2:
        yield {"sub": "e2", "d1": e.d1, "l1": e.l1, "d2": e.d2, "l2": e.l2}
    for e, prov in f.e3:
        yield {"sub": "e3", "d1": e.d1, "l1": e.l1, "d2": e.d2, "l2": e.l2,
               "k": prov.k, "b": prov.b}


def write_family_jsonl(f: FamilyE0, stream) -> None:
    for rec in family_records(f):
        stream.write(json.dumps(rec) + "\n")
