"""Sums of two arithmetic progressions as hyperedges on [N].

A hyperedge template is the sumset
``E = {j1*d1 + j2*d2 : 0 <= j1 < l1, 0 <= j2 < l2}`` (both progressions
start at 0); translates ``a + E`` intersected with ``[1, N]`` are the
hyperedges of the full hypergraph.  Colorings are +-1 on [1, N] and 0
elsewhere, so the color value of a translate is a plain finite sum.
An edge whose lattice points collide is the disjoint union of two
collision-free translates (``staircase_split``, listed by ``translates``),
which gives its size in closed form, its sorted elements as the union of
two lattice grids, and the color values of all its translates as box
filters of the coloring along the two differences, exact in int64 with no
FFT; the max-imbalance sweep below rests on the same identity.

``canonical_edge_masks`` lists every distinct nonempty hyperedge at
small N, one 64-bit bitmask word per edge, in numpy batches of words
(one per first difference d1).  The bits a template's windows read form
one 2N-1 bit strip in two uint64 limbs, and each window is that strip
shifted and cut to N bits; a sort of each batch and one running sorted
union drop the windows that repeat an edge.  It does not iterate
the naive parameter space (which is astronomically redundant); instead it
enumerates canonical representatives, the windows in which all four
boundary rows/columns of the lattice rectangle contribute a visible
element, of two kinds of template:

* plain progressions, the templates (d1, l1, d1, 1) with l1 >= 1, and
* genuine two progressions, d2 < d1 with both lengths >= 2.

Any (d1, l1, d2, l2, offset) window reduces to one of these forms by
repeatedly dropping an invisible boundary row or column (which never
changes the visible set) and by collapsing equal differences into a single
progression, so the canonical sweep reaches every distinct hyperedge.

``max_edge_imbalance`` needs no enumeration and runs at any N: it takes the
maximum of |chi| over every window of every template with prefix sums
along the two progression directions, and handles windows whose lattice
points collide exactly (see the notes above it).  It makes one pass over
the cases of the windows; each case gives its window values as one array
with a locator that turns an index into that array into a window, and the
witness comes from one call to the locator of the case that set the maximum.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Iterable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numtheory import check_invariant

ENUMERATION_CAP = 64


class CapExceeded(ValueError):
    """Raised when an exhaustive operation is asked to run beyond its cap."""


class _EdgeKey(NamedTuple):
    d1: int
    l1: int
    d2: int
    l2: int


class SumEdge(_EdgeKey):
    """Sumset of two zero-based progressions, keyed by (d1, l1, d2, l2).

    A named tuple: immutable, hashed and compared as the plain tuple
    (d1, l1, d2, l2), and cheap to build, as ``certify`` does once per
    alpha and ``FamilyE0.edge`` once per row it is asked for.
    """

    __slots__ = ()

    def __new__(cls, d1: int, l1: int, d2: int, l2: int) -> "SumEdge":
        if d1 < 1 or l1 < 1 or d2 < 1 or l2 < 1:
            raise ValueError("differences and lengths must be positive")
        return tuple.__new__(cls, (d1, l1, d2, l2))

    @property
    def span(self) -> int:
        """Largest element; the edge lives in [0, span]."""
        return (self.l1 - 1) * self.d1 + (self.l2 - 1) * self.d2

    @property
    def collision_free(self) -> bool:
        """Whether the l1 x l2 lattice points are distinct elements."""
        return collision_free(self.d1, self.l1, self.d2, self.l2, math.gcd)


def collision_free(d1, l1, d2, l2, gcd):
    """Whether the l1 x l2 lattice points are distinct elements, for ints
    with ``math.gcd`` or int64 columns with ``np.gcd``: two points collide
    exactly when l1 > d2/g and l2 > d1/g with g = gcd(d1, d2)."""
    g = gcd(d1, d2)
    return (l1 * g <= d2) | (l2 * g <= d1)


def edge_elements_array(e: SumEdge) -> np.ndarray:
    """Sorted distinct elements of the sumset as an int64 array: the union
    of the lattice grids of its ``translates``, which are disjoint and
    collision-free, so a sort leaves no repeats to drop."""
    grids = [o + np.add.outer(np.arange(p.l1, dtype=np.int64) * p.d1,
                              np.arange(p.l2, dtype=np.int64) * p.d2).ravel()
             for o, p in translates(e)]
    out = np.concatenate(grids)
    out.sort()
    return out


def staircase_split(e: SumEdge) -> tuple[tuple[int, SumEdge], tuple[int, SumEdge]]:
    """An edge with l1 > D2 (every edge whose lattice points collide) as
    two disjoint collision-free translates ``(offset, piece)``.

    With g = gcd(d1, d2), D1 = d1/g and D2 = d2/g, D2*d1 = D1*d2, so the
    point (j1, j2) with j1 >= D2 is the element (j1 - D2, j2 + D1): the
    columns j1 >= D2 add to the first D2 columns only their rows
    j2 >= l2 - D1.
    """
    g = math.gcd(e.d1, e.d2)
    D1, D2 = e.d1 // g, e.d2 // g
    return ((0, SumEdge(e.d1, D2, e.d2, e.l2)),
            (D2 * e.d1 + max(0, e.l2 - D1) * e.d2,
             SumEdge(e.d1, e.l1 - D2, e.d2, min(e.l2, D1))))


def translates(e: SumEdge) -> tuple[tuple[int, SumEdge], ...]:
    """The edge as disjoint collision-free translates ``(offset, piece)``:
    itself at offset 0, or the two pieces of ``staircase_split``."""
    return ((0, e),) if e.collision_free else staircase_split(e)


def edge_cardinality(e: SumEdge) -> int:
    """Number of distinct elements of the sumset.

    A collision-free edge has exactly l1*l2 elements; any other edge is
    the sum of the sizes of its two ``staircase_split`` pieces.
    """
    if e.collision_free:
        return e.l1 * e.l2
    return sum(piece.l1 * piece.l2 for _, piece in staircase_split(e))


class Coloring:
    """A +-1 coloring of [1, N], implicitly 0 outside that range."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Iterable[int]):
        if n < 1:
            raise ValueError("n must be >= 1")
        arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
        if arr.shape != (n,):
            raise ValueError(f"expected {n} color values, got shape {arr.shape}")
        # checked before the cast, which would wrap 255 to -1 and cut 1.7 to 1
        if not np.all((arr == 1) | (arr == -1)):
            raise ValueError("color values must be +1 or -1")
        self.n = n
        self.values = arr.astype(np.int8)

    def __call__(self, z: int) -> int:
        if 1 <= z <= self.n:
            return int(self.values[z - 1])
        return 0

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Coloring) and self.n == other.n
                and bool(np.array_equal(self.values, other.values)))

    def __repr__(self) -> str:
        return f"Coloring(n={self.n})"

    @classmethod
    def all_plus(cls, n: int) -> "Coloring":
        return cls(n, np.ones(n, dtype=np.int8))

    @classmethod
    def alternating(cls, n: int) -> "Coloring":
        """+1 on odd vertices, -1 on even vertices."""
        v = np.where(np.arange(1, n + 1) % 2 == 1, 1, -1).astype(np.int8)
        return cls(n, v)

    @classmethod
    def block(cls, n: int) -> "Coloring":
        """+1 on the first half, -1 on the second half."""
        v = np.ones(n, dtype=np.int8)
        v[n // 2:] = -1
        return cls(n, v)

    @classmethod
    def random(cls, n: int, seed: int) -> "Coloring":
        rng = np.random.default_rng(seed)
        v = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
        return cls(n, v)


class TranslatedEdgeValue(NamedTuple):
    """Color value of one translate: value == sum of chi over (offset + E)."""

    edge: SumEdge
    offset: int
    value: int


def color_value(chi: Coloring, e: SumEdge, a: int) -> int:
    """Sum of chi over the translate a + E, with chi read as 0 off [1, N]."""
    z = edge_elements_array(e) + a
    inside = z[(z >= 1) & (z <= chi.n)]
    if inside.size == 0:
        return 0
    return int(chi.values[inside - 1].sum())


def exact_autocorrelation(v: np.ndarray) -> np.ndarray:
    """``A[k] = sum over j of v[j] * v[j + k]`` for the lags k = 0..n-1 of
    an integer vector v of length n, as int64.

    One real FFT, zero-padded to a power of two m >= 2n - 1 so nothing
    wraps around: ``irfft(|rfft(v, m)|**2)``, rounded to the nearest
    integer.  The float error of each entry is ``|v|_2**2 * O(eps *
    log2 m)`` (Higham, Accuracy and Stability of Numerical Algorithms,
    section 24), about 1e-10 for +-1 vectors at n = 16384 (the largest
    residue measured over ones, alt, block and five random colorings is
    1.1e-11 there, and 7.3e-11 at n = 2**17), so the
    check that every residue is below 0.25 leaves the rounding exact by a
    wide margin.
    """
    n = v.size
    m = 1 << (2 * n - 2).bit_length()
    fft = np.fft  # loaded on first use: importing numpy does not load it
    f = fft.rfft(v, m)
    f *= f.conj()
    raw = fft.irfft(f, m)[:n]
    out = np.rint(raw)
    residue = float(np.max(np.abs(raw - out)))
    check_invariant(residue < 0.25, "fft-rounding",
                    f"autocorrelation of length {n} is {residue} "
                    f"from the nearest integers")
    return out.astype(np.int64)


def _box(a: np.ndarray, d: int, length: int) -> np.ndarray:
    """``sum over j < length of a[i + j*d]`` at every i, entries past the
    end counting as 0: a difference of two ``chain_suffix`` sums."""
    s = chain_suffix(a, d, np.add)
    k = min(length * d, s.size)
    s[:s.size - k] -= s[k:]  # numpy reads overlapping operands as copies
    return s


def translate_values(chi: Coloring, e: SumEdge) -> np.ndarray:
    """Color values of all translates a + E for a in [-span, N], as int64.

    Index i corresponds to offset a = i - span.  Offsets outside this range
    give empty intersections, hence value 0.  Over one collision-free
    piece (d1, l1, d2, l2) of the edge's ``translates`` the values are two
    box filters of chi (indexed from -span, 0 off [1, N]): a length-l1 box
    along the d1-chains, then a length-l2 box along the d2-chains; each
    piece's values are shifted by its offset and summed.  No FFT, no
    rounding and no element list.
    """
    span = e.span
    x = np.zeros(span + chi.n + 1, dtype=np.int64)
    x[span + 1:] = chi.values
    out = np.zeros_like(x)
    for o, p in translates(e):
        out[:out.size - o] += _box(_box(x, p.d1, p.l1), p.d2, p.l2)[o:]
    return out


def count_progressions(n: int) -> int:
    """Number of distinct arithmetic progressions inside [1, n]: the n
    singletons plus one set per (start, difference, length >= 2).  Every
    progression is a hyperedge, so this is a lower bound on the distinct
    edge count."""
    total = n
    for d in range(1, n):
        k = (n - 1) // d
        total += k * n - d * k * (k + 1) // 2
    return total


# ---------------------------------------------------------------------------
# exact max-imbalance sweep over every hyperedge, without enumerating them
# ---------------------------------------------------------------------------
#
# Fix differences d2 < d1 < n, g = gcd, D1 = d1/g, D2 = d2/g, L = lcm = D1*d2,
# and read chi as 0 off [1, n].  With multiplicity,
#     H(y) = sum over i, j >= 0 of chi(y + i*d1 + j*d2)
# is two suffix sums, along d2-chains and then along d1-chains.
#
# * A window (offset a, lengths l1, l2) has no colliding lattice points when
#   l1 <= D2 or l2 <= D1; its value is then the rectangle
#   H(a) - H(a + l1*d1) - H(a + l2*d2) + H(a + l1*d1 + l2*d2).  For a fixed
#   l1 that is F(a) - F(a + l2*d2) with F(y) = H(y) - H(y + l1*d1), so the
#   best (a, l2) on one d2-chain is max F - min F: one pass gives every
#   offset and every length.  The same holds with the roles swapped.
# * When l1 >= D2 and l2 >= D1, column j1 >= D2 only adds the elements with
#   j2 >= l2 - D1 (the staircase identity), and the window is the set
#   (a + K) minus (a + c + K), K = {i*d1 + j*d2 : i, j >= 0},
#   c = l1*d1 + l2*d2 - L.  Its value is G(a) - G(a + c) with
#   G(y) = H(y) - H(y + L), the plain sum of chi over y + K.
#
# Duplicated windows cannot change a maximum, so nothing is deduplicated.


def chain_suffix(a: np.ndarray, d: int, op: np.ufunc) -> np.ndarray:
    """``op`` accumulated from the top down along every d-chain of ``a``
    (entries d apart); entries past the end count as 0."""
    k = -(-a.size // d)
    buf = np.zeros(k * d, dtype=a.dtype)
    buf[:a.size] = a
    acc = op.accumulate(buf.reshape(k, d)[::-1], axis=0)[::-1]
    return acc.reshape(-1)[:a.size]


def _ap_case(v: np.ndarray, d: int):
    """Progressions of difference d: per d-chain of [1, n], the max - min
    of chi's prefix sums (every start and every length), and the locator
    of a chain's window."""
    k = -(-v.size // d)
    buf = np.zeros((k + 1) * d, dtype=np.int32)
    buf[d: d + v.size] = v
    p = buf.reshape(k + 1, d).cumsum(axis=0)

    def locate(c: int) -> tuple[SumEdge, int]:
        i, j = sorted((int(np.argmax(p[:, c])), int(np.argmin(p[:, c]))))
        return SumEdge(d, j - i, 1, 1), 1 + c + i * d
    return p.max(axis=0) - p.min(axis=0), locate


class _PairSweep:
    """The cases of the windows with differences d2 < d1, from H and G
    over y in [y0, n + d1] (both are 0 above n)."""

    def __init__(self, v: np.ndarray, d1: int, d2: int):
        n = v.size
        g = math.gcd(d1, d2)
        self.n, self.d1, self.d2, self.g = n, d1, d2, g
        self.D1, self.D2 = d1 // g, d2 // g
        self.L = L = self.D1 * d2
        # every multiple of g from cond on lies in K
        self.cond = L - d1 - d2 + g
        # F-rows over l1 in [2, D2] (chains along d2), and over l2 in
        # [lo2, hi2] (chains along d1): l2 < D1 with l1 > D2, which needs
        # D2*d1 <= (l2 - 1)*d2 + n - 1 for all four boundaries to be visible
        self.k1 = -(-(n - d1 + d2 - 1) // d2)
        self.lo2 = max(2, 1 - (-(L - n + 1) // d2))
        self.hi2 = min(n, self.D1 - 1)
        self.k2 = -(-(n + d1 - d2 - 1) // d1)
        # low enough for every H the rows read and for a class of G
        # below 1 - cond, where G(y) is the class total
        y0 = min(n + 1 - self.k1 * d2 - self.D2 * d1, 1 - self.cond - g)
        if self.lo2 <= self.hi2:
            y0 = min(y0, n + 1 - self.k2 * d1 - self.hi2 * d2)
        self.y0 = y0
        x = np.zeros(n + d1 - y0 + 1, dtype=np.int32)
        x[1 - y0: n + 1 - y0] = v
        self.H = H = chain_suffix(chain_suffix(x, d2, np.add), d1, np.add)
        self.G = G = H.copy()
        if G.size > L:
            G[:-L] -= H[L:]

    def _rows(self, d: int, e: int, lo: int, hi: int, k: int) -> np.ndarray:
        """max F - min F on every d-chain of every row l in [lo, hi], where
        F(y) = H(y) - H(y + l*e); shape (hi - lo + 1, d), rows from l = hi
        down.  F(u - l*e) for u in [n + 1 - k*d, n] reaches every chain
        below the support of its columns; above that, F = H and the chain
        extremes are suffix extremes of H."""
        H, top = self.H, self.n + 1 - self.y0
        width = k * d
        rows = sliding_window_view(H, width)[top - width - hi * e: top - width - lo * e + 1: e]
        inner = (rows - H[top - width: top]).reshape(-1, k, d)
        tail = H[top - hi * e:]
        upper = []
        for op in (np.maximum, np.minimum):
            upper.append(sliding_window_view(chain_suffix(tail, d, op), d)[:(hi - lo) * e + 1: e])
        return np.maximum(inner.max(axis=1), upper[0]) - np.minimum(inner.min(axis=1), upper[1])

    def _row_window(self, d: int, e: int, lo: int, hi: int, k: int, i: int
                    ) -> tuple[SumEdge, int]:
        """The window at flat index i of ``_rows(d, e, lo, hi, k)``: the
        extremes of F along the whole chain, read off H."""
        r, c = divmod(i, d)
        length = hi - r
        y = np.arange(self.n + 1 - k * d + c - length * e, self.n + d + 1, d)
        j = y - self.y0 + length * e
        F = self.H[y - self.y0] - np.append(self.H, 0)[np.minimum(j, self.H.size)]
        p, q = sorted((int(np.argmax(F)), int(np.argmin(F))))
        return SumEdge(e, length, d, q - p), int(y[p])

    def cases(self):
        """Each case's window values, with a locator that turns an index
        into them into a window (template, offset), lengths <= n."""
        n, d1, d2, g, L, y0, G = self.n, self.d1, self.d2, self.g, self.L, self.y0, self.G
        rows = ((d2, d1, 2, self.D2, self.k1), (d1, d2, self.lo2, self.hi2, self.k2))
        for d, e, lo, hi, k in rows:
            if lo <= hi:
                yield self._rows(d, e, lo, hi, k), partial(self._row_window, d, e, lo, hi, k)
        # staircase windows, l1 >= D2 and l2 >= D1, located on the full
        # template, whose windows with l1 = D2 + j, l2 = D1 + k reach
        # a + L + j*d1 + k*d2.  An offset a <= 1 - cond sees its whole class
        # (G(a) = T) and reaches any partner b <= n + 1; an offset a > n - L
        # has every partner above n; the rest pair with the extremes of G
        # over a + L + K.
        full = SumEdge(d1, n, d2, n)
        reach = L + (n - self.D2) * d1 + (n - self.D1) * d2
        # per residue class mod g (columns, in the order of y0, y0 + 1, ...);
        # the dropped tail lies above n + g, and every class keeps a 0 above n
        cols = G[:G.size // g * g].reshape(-1, g)
        total, cmin, cmax = G[:g], cols.min(axis=0), cols.max(axis=0)

        def class_window(c: int) -> tuple[SumEdge, int]:
            below = total[c] - cmin[c] >= cmax[c] - total[c]
            at = np.argmin(cols[:, c]) if below else np.argmax(cols[:, c])
            return full, y0 + c + g * int(at) - reach
        yield np.maximum(total - cmin, cmax - total), class_window
        start = max(0, n + 1 - y0 - L)  # the offsets in [n + 1 - L, n]
        yield np.abs(G[start: n + 1 - y0]), lambda i: (full, y0 + start + i)
        # for y in [ylo, n]: G(y - L) against the min and max of G over
        # y + K (0 included, for the part of y + K above n)
        ylo = d1 + d2 - g + 2
        if ylo <= n:
            seg = G[ylo - y0:]
            m = n - ylo + 1
            lo = chain_suffix(chain_suffix(seg, d1, np.minimum), d2, np.minimum)[:m]
            hi = chain_suffix(chain_suffix(seg, d1, np.maximum), d2, np.maximum)[:m]
            base = G[ylo - L - y0: ylo - L - y0 + m]

            def cone_window(i: int) -> tuple[SumEdge, int]:
                y = ylo + i
                j = np.arange(n - self.D2 + 1)[:, None]
                kk = np.arange(n - self.D1 + 1)[None, :]
                b = y + j * d1 + kk * d2
                gb = np.where(b <= n, G[np.minimum(b, n) - y0], 0)
                jj, kj = np.unravel_index(int(np.argmax(np.abs(G[y - L - y0] - gb))), gb.shape)
                return SumEdge(d1, self.D2 + int(jj), d2, self.D1 + int(kj)), y - L
            yield np.maximum(base - lo, hi - base), cone_window


def _trim(e: SumEdge, offset: int, n: int) -> tuple[SumEdge, int]:
    """Drop boundary rows and columns with no element in [1, n]; the set
    read inside [1, n] does not change."""
    z = offset + np.add.outer(np.arange(e.l1) * e.d1, np.arange(e.l2) * e.d2)
    seen = (z >= 1) & (z <= n)
    cols, rows = np.flatnonzero(seen.any(axis=1)), np.flatnonzero(seen.any(axis=0))
    if cols.size == 0:
        return e, offset
    return (SumEdge(e.d1, int(cols[-1] - cols[0]) + 1, e.d2, int(rows[-1] - rows[0]) + 1),
            offset + int(cols[0]) * e.d1 + int(rows[0]) * e.d2)


def max_edge_imbalance(chi: Coloring, stop_at: int | None = None
                       ) -> tuple[int, TranslatedEdgeValue | None]:
    """Max of |chi(a + E)| over every hyperedge of [1, n], with a window
    attaining it, in O(n**4) array operations and O(n**2) memory (22-23 s
    for one random coloring at n=256 under python -O on a 2-vCPU Intel Xeon
    host, Python 3.11, numpy 2.4).

    Differences and lengths range over [1, n] and offsets over all
    integers, as in the definition; no set is built or deduplicated.  With
    ``stop_at``, the sweep stops once the running maximum reaches it and
    returns that running maximum with no window.
    """
    n = chi.n
    v = chi.values.astype(np.int32)
    cases = itertools.chain(
        (_ap_case(v, d) for d in range(1, max(2, n))),
        itertools.chain.from_iterable(_PairSweep(v, d1, d2).cases()
                                      for d1 in range(2, n) for d2 in range(1, d1)))
    best = 0
    for scores, locate in cases:
        value = int(scores.max())
        if value > best:
            best, kept = value, (scores, locate)
            if stop_at is not None and best >= stop_at:
                return best, None
    scores, locate = kept
    edge, offset = _trim(*locate(int(np.argmax(scores))), n)
    witness = TranslatedEdgeValue(edge=edge, offset=offset,
                                  value=color_value(chi, edge, offset))
    check_invariant(max(edge.d1, edge.l1, edge.d2, edge.l2) <= n
                    and window_vertices(witness, n) != (),
                    "sweep-window-bounds",
                    f"witness window {edge} at offset {offset} is not an edge of [1, {n}]")
    check_invariant(abs(witness.value) == best, "sweep-witness-rescore",
                    f"witness window scores {witness.value}, sweep found {best}")
    return best, witness


def window_vertices(w: TranslatedEdgeValue, n: int) -> tuple[int, ...]:
    """The vertices of the window ``w.offset + w.edge`` inside [1, n]."""
    z = edge_elements_array(w.edge) + w.offset
    return tuple(int(x) for x in z[(z >= 1) & (z <= n)])


# ---------------------------------------------------------------------------
# canonical enumeration of all distinct hyperedges at small N
# ---------------------------------------------------------------------------


def group_index(counts: np.ndarray) -> np.ndarray:
    """The index of each element within its group, for groups of the
    given sizes laid end to end."""
    ends = np.cumsum(counts)
    return np.arange(counts.sum()) - np.repeat(ends - counts, counts)


def _limbs(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Boolean rows of 128 bits as two flat uint64 arrays, the low and the
    high limb (bit b of a row is bit b % 64 of limb b // 64)."""
    words = np.packbits(bits, axis=-1, bitorder="little").view("<u8").reshape(-1, 2)
    return words[:, 0].astype(np.uint64), words[:, 1].astype(np.uint64)


def _sorted_distinct(words: np.ndarray) -> np.ndarray:
    """A sorted array without its repeats."""
    keep = np.empty(words.size, dtype=bool)
    keep[:1] = True
    np.not_equal(words[1:], words[:-1], out=keep[1:])
    return words[keep]


def _pair_windows(n: int, d1: int, prog: tuple, low: tuple) -> np.ndarray:
    """The canonical windows with first difference d1, all four boundary
    rows/columns visible: the two-progression templates, d2 < d1 with
    l1, l2 >= 2, and the plain progressions as the templates (d1, 1) with
    l1 >= 1 (d2 = d1 and s2 = 0).

    Template (d2, l2, l1) has the spans s1 = (l1-1)*d1 and s2 = (l2-1)*d2,
    M = max and m = min of them, and m + n - M windows: window j reads the
    positions [M + j - (n-1), M + j] (both corners inside).  All of them lie
    in the strip [M - (n-1), M + n), held as a 2n-1 bit word in two uint64
    limbs, so window j is that word shifted right by j.  Row j1 of the
    template, {j1*d1 + j2*d2 : j2 < l2}, meets the strip in one d2-progression
    cut at its top: a gather from ``prog`` (indexed by d2 and its first bit)
    ANDed with ``low`` (indexed by the bit above its last element)."""
    d2 = np.append(np.repeat(np.arange(1, d1), n - 1), d1)
    s2 = np.append(np.tile(np.arange(1, n), d1 - 1), 0) * d2
    # spans must differ by at most n-1 for all four boundaries
    l1_lo = np.maximum(1 + (s2 > 0), (s2 - (n - 1) + d1 - 1) // d1 + 1)
    l1_hi = np.minimum(n, (s2 + n - 1) // d1 + 1)
    count = np.maximum(l1_hi - l1_lo + 1, 0)
    k = np.repeat(np.arange(count.size), count)
    l1, d2, s2 = l1_lo[k] + group_index(count), d2[k], s2[k]
    s1 = (l1 - 1) * d1
    top = np.maximum(s1, s2)
    width = np.minimum(s1, s2) + n - top

    # one entry per row: the strip bit of its first element, which may lie
    # below the strip, and the strip bit above its last element
    k = np.repeat(np.arange(l1.size), l1)
    first = group_index(l1) * d1 + (n - 1 - top)[k]
    step = d2[k]
    at = (step - 1) * n + np.where(first >= 0, first, first % step)
    above = np.minimum(first + (s2 + 1)[k], 2 * n - 1)
    rows = np.cumsum(l1) - l1
    lo, hi = (np.bitwise_or.reduceat(p.take(at) & q.take(above), rows)
              for p, q in zip(prog, low))
    # the per-row arrays are freed before the windows are made
    del k, first, step, at, above

    j = group_index(width).astype(np.uint64)
    # hi << 1 << (63 - j) is hi << (64 - j) without a shift by 64 at j = 0
    words = ((np.repeat(lo, width) >> j)
             | ((np.repeat(hi, width) << np.uint64(1)) << (np.uint64(63) - j)))
    return words & np.uint64((1 << n) - 1)


def canonical_edge_masks(n: int) -> np.ndarray:
    """All distinct nonempty hyperedges of [1, n] as bitmask rows of one
    little-endian 64-bit word each (bit z-1 set iff vertex z in the edge),
    an (m, 8) uint8 array sorted by the words' unsigned value.
    Deterministic for a given n.

    The windows come in numpy batches, one per d1 (``_pair_windows``, whose
    templates include the plain progressions of difference d1).  Many
    windows repeat an edge: each batch is sorted and its repeats dropped,
    and the pending batches are merged into one running sorted union of
    distinct words once they reach half its size, and at the end.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > ENUMERATION_CAP:
        raise CapExceeded(
            f"canonical enumeration at n={n} exceeds cap={ENUMERATION_CAP}; the "
            "distinct edge count grows like n**4.3 and is out of reach well above 64")
    bits = np.arange(128)
    # prog[(d2-1)*n + s]: bits s, s + d2, s + 2*d2, ...; low[u]: bits below u
    start = np.arange(n)[None, :, None]
    prog = _limbs((bits >= start) & ((bits - start) % np.arange(1, n + 1)[:, None, None] == 0))
    low = _limbs(bits < np.arange(2 * n)[:, None])
    union = np.empty(0, dtype=np.uint64)
    pending, size = [], 0
    for d1 in range(1, n + 1):
        words = _pair_windows(n, d1, prog, low)
        words.sort()
        pending.append(_sorted_distinct(words))
        del words
        size += pending[-1].size
        if 2 * size >= union.size or d1 == n:
            union = np.concatenate([union, *pending])
            pending, size = [], 0
            # sorted runs: the stable sort merges them
            union.sort(kind="stable")
            union = _sorted_distinct(union)
    return union.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
