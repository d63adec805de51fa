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
length, and ``m_sets`` gives a scale's M-sets as (b, d2) columns, each
class from its first integer congruent to b in steps of 2^(2k)*d1.  The
family is one int64 table of rows (d1, l1, d2, l2) built in numpy
(``FamilyE0``), and ``FamilyE0.edge(i)`` is where a row becomes a
``SumEdge``.  Every edge fits inside [0, N-1]; the total counts obey
|e3| <= 6N and |e1| + |e2| + |e3| <= 7N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterator

import numpy as np

from .hypergraph import SumEdge, collision_free, edge_cardinality, group_index
from .numtheory import (InternalInvariantViolation, check_invariant,
                        isqrt_ceil, totatives)

# Below this N the count bounds are meaningless (e1 alone has 24 edges) and
# the family is only useful for exercising degenerate-input handling.
COUNT_CHECK_MIN_N = 25


@dataclass(frozen=True)
class FamilyConfig:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")


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


def m_sets(n: int, delta1: int, k: int,
           tot: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The M-sets at scale k as two int64 columns (b, d2): for each totative
    b of delta1 in increasing order, the second differences congruent to b
    mod 2^(2k)*delta1 in ``m_interval``, in increasing order.  ``tot`` is
    ``totatives(delta1)`` as int64, which every scale of delta1 shares.

    Each class has at most 3 * 2^-k * sqrt(n) / delta1 members.
    """
    if not 0 <= k <= kbar(n, delta1):
        raise ValueError(f"k={k} outside [0, {kbar(n, delta1)}] for delta1={delta1}")
    step = (4 ** k) * delta1
    lo, hi = m_interval(n, delta1, k)
    first = lo + (tot - lo) % step
    count = (hi - first) // step + 1
    # count <= 3 * 2^-k sqrt(n) / delta1, checked by squaring
    bad = np.flatnonzero((count * (delta1 << k)) ** 2 > 9 * n)
    if bad.size:
        raise InternalInvariantViolation(
            "m-set-size",
            f"M({tot[bad[0]]},{k}) for delta1={delta1}, n={n} has {count[bad[0]]} "
            "members, more than 3*2^-k*sqrt(n)/delta1")
    return np.repeat(tot, count), np.repeat(first, count) + group_index(count) * step


@dataclass(eq=False)
class FamilyE0:
    """The built family as one read-only (m, 4) int64 table ``edges`` of
    rows (d1, l1, d2, l2): the e1 rows, then e2, then e3 by (d1, k, b, d2);
    ``k`` and ``b`` are the e3 rows' scale and congruence class."""

    n: int
    counts: tuple[int, int, int]
    edges: np.ndarray
    k: np.ndarray
    b: np.ndarray

    def __len__(self) -> int:
        return len(self.edges)

    def edge(self, i: int) -> SumEdge:
        """Row i as a ``SumEdge`` of Python ints."""
        return SumEdge(*self.edges[i].tolist())


def _e1_shape(n, d1):
    """(d1, l1, d2, l2) of the e1 edge of difference d1, one progression of
    length ceil(n/(6*d1)), for an int or an int64 array d1."""
    return d1, (n + 6 * d1 - 1) // (6 * d1), 1, 1


def _e2_shape(n, d1, d2):
    """(d1, l1, d2, l2) of the e2 edge (d1, d2), lengths ceil(n/(12*d1))
    and ceil((d1-1)/12), for ints or int64 arrays."""
    return d1, (n + 12 * d1 - 1) // (12 * d1), d2, (d1 + 10) // 12


def e1_edge(n: int, d1: int) -> SumEdge:
    """The e1 edge of difference d1."""
    return SumEdge(*_e1_shape(n, d1))


def e2_edge(n: int, d1: int, d2: int) -> SumEdge:
    """The e2 edge (d1, d2)."""
    return SumEdge(*_e2_shape(n, d1, d2))


def e3_edge(n: int, d1: int, k: int, d2: int) -> SumEdge:
    """The scale-k e3 edge (d1, d2), lengths ceil(2^(+-k) sqrt(n) / 12)."""
    return SumEdge(d1=d1, l1=length1_at_scale(n, k), d2=d2,
                   l2=length2_at_scale(n, k))


def build_family(cfg: FamilyConfig) -> FamilyE0:
    """Construct the full family and validate its containment and counts.

    Every edge must fit in [0, n-1] at every n; each sub-family spans less
    than about n/3, so a violation is a construction bug.  The count bounds
    |e1|+|e2|+|e3| <= 7n, |e3| <= 6n and |e1|+|e2| < n are checked for
    n >= 25 (below that even the 24 fixed e1 records exceed n).
    """
    n, r = cfg.n, math.isqrt(cfg.n)
    e1 = np.broadcast_arrays(*_e1_shape(n, np.arange(1, 25, dtype=np.int64)))
    # e2: each d1 in [25, r] with every d2 in [1, d1 - 1]
    per_d1 = np.arange(24, r, dtype=np.int64)
    e2 = _e2_shape(n, np.repeat(per_d1 + 1, per_d1), group_index(per_d1) + 1)
    # e3: the M-sets of each (d1, k) in turn, the totatives once per d1
    keys, classes = [], []
    for delta1 in range(1, r + 1):
        tot = np.array(totatives(delta1), dtype=np.int64)
        for k in range(kbar(n, delta1) + 1):
            classes.append(m_sets(n, delta1, k, tot))
            keys.append((delta1, k, classes[-1][0].size))
    b, d2 = (np.concatenate(col) for col in zip(*classes))
    d1, k, size = np.array(keys, dtype=np.int64).T
    d1, k = np.repeat(d1, size), np.repeat(k, size)
    l1 = np.array([length1_at_scale(n, s) for s in range(kbar(n, 1) + 1)])
    l2 = np.array([length2_at_scale(n, s) for s in range(kbar(n, 1) + 1)])
    e3 = (d1, l1[k], d2, l2[k])
    fam = FamilyE0(n=n, counts=(len(e1[0]), len(e2[0]), len(k)), k=k, b=b,
                   edges=np.stack([np.concatenate(c) for c in zip(e1, e2, e3)], axis=1))
    for col in (fam.edges, fam.k, fam.b):
        col.flags.writeable = False

    d1, l1, d2, l2 = fam.edges.T
    span = (l1 - 1) * d1 + (l2 - 1) * d2
    i = int(np.argmax(span))
    check_invariant(span[i] <= n - 1, "containment",
                    f"edge {fam.edge(i)} spans {span[i]} > {n - 1} at n={n}")
    c1, c2, c3 = fam.counts
    if n >= COUNT_CHECK_MIN_N:
        check_invariant(c1 + c2 + c3 <= 7 * n, "count-total",
                        f"family size {c1 + c2 + c3} > 7n at n={n}")
        check_invariant(c3 <= 6 * n, "count-e3", f"|e3|={c3} > 6n at n={n}")
        check_invariant(c1 + c2 < n, "count-e1-e2",
                        f"|e1|+|e2|={c1 + c2} >= n at n={n}")
    return fam


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
    n, (c1, c2, c3) = f.n, f.counts
    d1, l1, d2, l2 = f.edges.T
    free = collision_free(d1, l1, d2, l2, np.gcd)
    size = l1 * l2
    for i in np.flatnonzero(~free).tolist():
        size[i] = edge_cardinality(f.edge(i))
    e2, e3 = slice(c1, c1 + c2), slice(c1 + c2, None)
    bad = np.flatnonzero(free[e2] & (150 * size[e2] < n))
    if bad.size:
        i = c1 + int(bad[0])
        raise InternalInvariantViolation(
            "e2-size", f"e2 edge {f.edge(i)} has {size[i]} < n/150 elements")
    bad = np.flatnonzero(~free[e3])
    if bad.size:
        raise InternalInvariantViolation(
            "e3-injective",
            f"e3 edge {f.edge(c1 + c2 + int(bad[0]))} has colliding lattice points")
    bad = np.flatnonzero(144 * size[e3] < n)
    if bad.size:
        i = c1 + c2 + int(bad[0])
        raise InternalInvariantViolation(
            "e3-size", f"e3 edge {f.edge(i)} has {size[i]} < n/144 elements")
    return FamilyStats(n, c1, c2, c3, len(f), int(((l1 - 1) * d1 + (l2 - 1) * d2).max()),
                       int(size[e2].min()) if c2 else None,
                       int(size[e3].min()) if c3 else None)


def family_records(f: FamilyE0) -> Iterator[dict]:
    """JSON-ready records of Python ints, one per edge, with the e3 rows'
    scale and class."""
    c1, c2, _ = f.counts
    rows = f.edges.tolist()
    for sub, part in (("e1", rows[:c1]), ("e2", rows[c1:c1 + c2])):
        for d1, l1, d2, l2 in part:
            yield {"sub": sub, "d1": d1, "l1": l1, "d2": d2, "l2": l2}
    for (d1, l1, d2, l2), k, b in zip(rows[c1 + c2:], f.k.tolist(), f.b.tolist()):
        yield {"sub": "e3", "d1": d1, "l1": l1, "d2": d2, "l2": l2, "k": k, "b": b}
