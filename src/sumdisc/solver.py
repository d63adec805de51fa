"""Discrepancy computation: exact small-N search, heuristic upper bounds,
and the squared-imbalance averaging lower bound over the structured family.

The averaging bound evaluates
``S = sum over family edges E, offsets a of chi(a + E)**2`` exactly.  For
each edge, S_E is a sum of the autocorrelation A of the coloring over the
gaps between ordered pairs of its elements, which ``TwoNormEngine`` takes
by filters along the chains of stride d1: triangles, and box-box filters
for the cross term of an edge whose lattice points collide; the filters
in transpose give the family's gap profile, so S is one dot product.  The
autocorrelation is the one float FFT per coloring, rounded to integers
(``hypergraph.exact_autocorrelation``), which checks that every rounding
residue is below 0.25; the sums over it are int64.  The witness edge's
translate values are integer box filters (``translate_values``).
S >= n**3 / 90000 holds for every coloring, and the offset maximizer
always exceeds sqrt(n)/1200 in absolute color value; both facts are
checked on every call, and so is that the per-edge sums add up to S
(``edge-total``, the filters against their transpose).  The build checks
that the profile and each edge's sums count every ordered pair of its
elements once (``profile-mass``, and ``edge-mass`` with A = 1).

The searches at small N score colorings as uint64 words of their +1
vertices against the canonical edge words: random search by ``_scan``,
which bounds each coloring on a strided sample of the edge words and
walks every edge only with the colorings that can still win (a tie keeps
the earlier word), and whose winner's witness edge is re-scored
(``random-rescore``); local search by signed edge imbalances updated per
accepted flip, whose final words ``_scan`` re-scores
(``local-search-rescore``); and the exact search by a branch-and-bound
over prefixes whose witness is re-scored over every edge
(``exact-rescore``).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .family import FamilyE0
from .hypergraph import (CapExceeded, Coloring, SumEdge, TranslatedEdgeValue,
                         canonical_edge_masks, chain_suffix, collision_free,
                         count_progressions, edge_cardinality,
                         exact_autocorrelation, group_index, max_edge_imbalance,
                         staircase_split, translate_values, window_vertices,
                         ENUMERATION_CAP)
from .numtheory import check_invariant

log = logging.getLogger(__name__)

EXACT_CAP = 28


class FamilyMismatch(ValueError):
    """Coloring and family were built for different n."""


class DiscReport(NamedTuple):
    n: int
    method: str
    disc_value: int
    n_edges: int
    witness_coloring: list[int] | None = None
    witness_edge: tuple[int, ...] | None = None
    trials: int | None = None
    restarts: int | None = None
    seed: int | None = None
    envelope: float | None = None
    envelope_ok: bool | None = None
    # n_edges counts only the distinct progressions, a lower bound on m
    n_edges_lower_bound: bool = False

    def to_json_dict(self) -> dict:
        rec = {"n": self.n, "method": self.method, "disc": self.disc_value,
               "n_edges": self.n_edges}
        if self.n_edges_lower_bound:
            rec["n_edges_lower_bound"] = True
        for name in ("trials", "restarts", "seed", "envelope", "envelope_ok"):
            val = getattr(self, name)
            if val is not None:
                rec[name] = val
        if self.witness_coloring is not None:
            rec["witness_coloring"] = self.witness_coloring
        if self.witness_edge is not None:
            rec["witness_edge"] = list(self.witness_edge)
        return rec


class TwoNormBound(NamedTuple):
    """Result of the averaging lower bound for one coloring."""

    n: int
    total: int
    n_edges: int
    derived_disc_lb: float
    witness: TranslatedEdgeValue

    @property
    def witness_edge(self) -> SumEdge:
        return self.witness.edge

    @property
    def witness_value(self) -> int:
        return abs(self.witness.value)


def _chain_sums(values: np.ndarray, d1: int) -> np.ndarray:
    """P2 of one d1 group: prefix sums of ``values`` taken twice along each
    chain of stride d1 (positions congruent mod d1), flat; the length of
    ``values`` is a multiple of d1."""
    p2 = values.reshape(-1, d1).cumsum(axis=0)
    return p2.cumsum(axis=0, out=p2).ravel()


class TwoNormEngine:
    """Per-edge sums ``S_E = sum over ordered element pairs (x, y) of
    A(|x - y|)`` of one family, for the autocorrelation A of any coloring.
    It reads the family's table (``family.edges``) as it is; only the
    colliding rows and the witness become ``SumEdge``s.  A collision-free
    edge (d1, l1, d2, l2) counts the lattice offset (s1, s2) with weight
    (l1-|s1|)(l2-|s2|), so ``S_E = l2*T(0) + 2 * sum over s2 = 1..l2-1 of
    (l2-s2) * T(s2*d2)`` with ``T(x) = sum over |s1| < l1 of (l1-|s1|) *
    A(|x + s1*d1|)``, a triangle filter along the d1-chain through x:
    ``T(x) = P2(y) - 2*P2(y - l1*d1) + P2(y - 2*l1*d1)`` for
    ``y = x + (l1-1)*d1``, where P2 is ``_chain_sums`` of A extended
    symmetrically.  A colliding edge is its ``staircase_split`` pieces
    (0, a) and (o, b), so ``S_E = S_a + S_b + 2*C`` with the cross term
    ``C = sum over s2 in [-(a.l2-1), b.l2-1] of w(s2) * B(o + s2*d2)``,
    ``w(s2) = min(b.l2, s2 + a.l2) - max(0, s2)``, and the box-box filter
    ``B(x) = P2(y) - P2(y - a.l1*d1) - P2(y - b.l1*d1) + P2(y - (a.l1+b.l1)*d1)``
    for ``y = x + (b.l1-1)*d1``.  The edges of one d1 share one P2, and
    ``fam_profile`` (the family's weight of each gap) is the filters run
    in transpose: ``S = fam_profile @ A``, exact in int64."""

    def __init__(self, family: FamilyE0):
        n = self.n = family.n
        self.family = family
        self.n_edges = len(family)
        self.fam_profile = np.zeros(n, dtype=np.int64)
        # always empty: read by bench/workloads.py until ROADMAP item 1 removes them
        self.lags = self.weights = self.seg_starts = np.empty(0, dtype=np.int64)
        self.lags.flags.writeable = False
        shape = family.edges
        free = collision_free(*shape.T, np.gcd)
        sizes = shape[:, 1] * shape[:, 3]
        coll = np.flatnonzero(~free)
        # the colliding edges by d1: index, |E|, d2, o, a.l1, a.l2, b.l1 and b.l2
        colliding = coll[np.argsort(shape[coll, 0], kind="stable")]
        split = np.array([(i, edge_cardinality(e), e.d2, o, a.l1, a.l2, b.l1, b.l2)
                          for i in colliding.tolist() for e in [family.edge(i)]
                          for (_, a), (o, b) in [staircase_split(e)]],
                         dtype=np.int64).reshape(-1, 8)
        sizes[split[:, 0]] = split[:, 1]
        # triangle rows (edge, l1, l2) by d1, an edge's rows adjacent: the
        # collision-free edges and both pieces of each colliding one
        rows = np.concatenate([np.c_[np.flatnonzero(free), shape[free][:, 1::2]],
                               np.c_[np.repeat(split[:, 0], 2), split[:, 4:].reshape(-1, 2)]])
        rows = rows[np.argsort(shape[rows[:, 0], 0], kind="stable")]
        # box-box entries, one per (colliding edge, s2): their 4 taps' positions, weights
        cedge, _, d2, o, al1, al2, bl1, bl2 = split.T
        m = al2 + bl2 - 1
        k = np.repeat(np.arange(cedge.size), m)
        s2 = group_index(m) - (al2 - 1)[k]
        cd1 = shape[cedge, 0][k]
        y, sa, sb = o[k] + s2 * d2[k] + (bl1 - 1)[k] * cd1, al1[k] * cd1, bl1[k] * cd1
        cross_at = np.stack([y, y - sa, y - sb, y - sa - sb], axis=1)
        cross_w = np.outer(np.minimum(bl2[k], s2 + al2[k]) - np.maximum(s2, 0), [2, -2, -2, 2])
        self._cross = (cedge, 4 * (np.cumsum(m) - m), cross_w.ravel())

        # per d1 (rows split where it changes): d1, lo, P2 cells, its edges, their
        # entry starts, each (row, s2) entry's P2 index y - lo, step and w, box-box taps
        self._groups = []
        for edge, l1, l2 in (g.T for g in np.split(
                rows, np.flatnonzero(np.diff(shape[rows[:, 0], 0])) + 1)):
            d1, starts = int(shape[edge[0], 0]), np.cumsum(l2) - l2
            k, s2 = np.repeat(np.arange(edge.size), l2), group_index(l2)
            pos, step = s2 * shape[edge, 2][k] + ((l1 - 1) * d1)[k], (l1 * d1)[k]
            w = 2 * (l2[k] - s2)
            w[starts] = l2
            c = slice(*np.searchsorted(cd1, [d1, d1 + 1]))
            lo = int(min((pos - 2 * step).min(), cross_at[c].min(initial=0)))
            hi = int(max(pos.max(), cross_at[c].max(initial=0)))
            cells = -(-(hi - lo + 1) // d1) * d1
            pos, at = pos - lo, (cross_at[c] - lo).ravel()
            # the taps of each entry (int64: np.add.at is many times slower
            # on int32), then the transpose of _chain_sums, chain suffix sums
            # taken twice: coef[i] weighs A(|lo + i|), 0 where |lo + i| >= n
            taps = np.zeros(cells, dtype=np.int64)
            for idx, tap in ((pos, w), (pos - step, -2 * w), (pos - 2 * step, w),
                             (at, cross_w[c].ravel())):
                np.add.at(taps, idx, tap)
            coef = chain_suffix(chain_suffix(taps, d1, np.add), d1, np.add)
            neg = min(-lo, n - 1)
            self.fam_profile[:hi + 1] += coef[-lo:-lo + hi + 1]
            self.fam_profile[1:neg + 1] += coef[-lo - 1::-1][:neg]
            first = np.flatnonzero(np.diff(edge, prepend=-1))
            self._groups.append((d1, lo, cells, edge[first], starts[first], pos.astype(np.intp),
                                 step.astype(np.int32), w.astype(np.int32), at.astype(np.intp)))
        # A extended symmetrically to the positions +-pad that hold every P2
        self._pad = max([n - 1] + [max(-g[1], g[1] + g[2] - 1) for g in self._groups])

        # the profile counts every ordered pair of each edge's elements once
        pairs, profile_mass = int(np.dot(sizes, sizes)), int(self.fam_profile.sum())
        check_invariant(profile_mass == pairs, "profile-mass", f"the profile sums to "
                        f"{profile_mass}, not the {pairs} ordered element pairs at n={n}")
        # and so does the forward pass with A = 1, edge by edge
        got, want = self.edge_sums(np.ones(n, dtype=np.int64)), sizes * sizes
        bad = [(family.edge(i), int(got[i]), int(want[i]))
               for i in np.flatnonzero(got != want)[:1]]
        check_invariant(not bad, "edge-mass", f"A = 1 gives (edge, S_E, |E|^2) = {bad} at n={n}")

    def edge_sums(self, autocorr: np.ndarray) -> np.ndarray:
        """``S_E`` of every edge, in edge order, for the autocorrelation
        ``autocorr`` (lags 0..n-1, int64)."""
        n, pad = self.n, self._pad
        sym = np.zeros(2 * pad + 1, dtype=np.int64)
        sym[pad:pad + n] = autocorr
        sym[pad - n + 1:pad + 1] = autocorr[::-1]
        sums = np.empty(self.n_edges, dtype=np.int64)
        cross = []
        for d1, lo, cells, edges, starts, pos, step, w, at in self._groups:
            p2 = _chain_sums(sym[pad + lo:pad + lo + cells], d1)
            t = p2[pos]
            pos = pos - step
            t -= 2 * p2[pos]
            pos -= step
            t += p2[pos]
            t *= w
            sums[edges] = np.add.reduceat(t, starts)
            cross.append(p2[at])
        # the colliding edges' cross terms, in one reduction for all d1
        cedges, cstarts, cross_w = self._cross
        sums[cedges] += np.add.reduceat(np.concatenate(cross) * cross_w, cstarts)
        return sums

    def evaluate(self, chi: Coloring) -> TwoNormBound:
        if chi.n != self.n:
            raise FamilyMismatch(f"coloring n={chi.n}, family n={self.n}")
        autocorr = exact_autocorrelation(chi.values)
        check_invariant(autocorr[0] == self.n, "autocorrelation-origin",
                        f"A(0) = {autocorr[0]} for a +-1 coloring of n={self.n}")
        total = int(np.dot(self.fam_profile, autocorr))
        check_invariant(90000 * total >= self.n ** 3, "two-norm-bound",
                        f"squared-imbalance total {total} < n^3/90000 at n={self.n}")
        # the forward pass against its transpose, on every coloring
        per_edge = self.edge_sums(autocorr)
        check_invariant(int(per_edge.sum()) == total, "edge-total",
                        f"per-edge sums add up to {int(per_edge.sum())}, "
                        f"not S = {total} at n={self.n}")
        best_edge = self.family.edge(int(np.argmax(per_edge)))
        values = translate_values(chi, best_edge)
        idx = int(np.argmax(np.abs(values)))
        witness = TranslatedEdgeValue(edge=best_edge,
                                      offset=idx - best_edge.span,
                                      value=int(values[idx]))
        witness_value = abs(witness.value)
        denom = 2 * self.n * self.n_edges
        # witness**2 * 2n*m >= S: the max over at most 2n offsets of the
        # densest edge dominates the family average
        check_invariant(witness_value ** 2 * denom >= total, "averaging",
                        f"witness value {witness_value} squared times 2nm = {denom} "
                        f"is below S = {total}")
        check_invariant(1440000 * witness_value ** 2 > self.n, "witness-bound",
                        f"witness value {witness_value} <= sqrt(n)/1200 at n={self.n}")
        return TwoNormBound(
            n=self.n,
            total=total,
            n_edges=self.n_edges,
            derived_disc_lb=math.sqrt(total / denom),
            witness=witness,
        )


# ---------------------------------------------------------------------------
# search-based solvers: a coloring is the uint64 word of its +1 vertices
# ---------------------------------------------------------------------------

_SIGNS = np.array([-1, 1], dtype=np.int8)
_CHUNK = 1024
# edge words in the strided sample that bounds each coloring, and per
# block of the exact walk (``_scan``)
_SAMPLE = 4096
_BLOCK = 4096


@functools.cache
def _packed_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical edge masks as one uint64 word per edge, and their
    int16 sizes, cached per n (so at most ``ENUMERATION_CAP`` entries).
    Both are read-only: every later search at n shares them."""
    words = canonical_edge_masks(n).view(np.uint64).ravel()
    sizes = np.bitwise_count(words).astype(np.int16)
    words.flags.writeable = sizes.flags.writeable = False
    return words, sizes


def _imbalances(words: np.ndarray, sizes: np.ndarray,
                pos: np.ndarray) -> np.ndarray:
    """The ``(len(pos), len(words))`` int16 matrix of |color value|,
    ``|2*popcount(pos & word) - size|``, for colorings given as the uint64
    words of their +1 vertices (no value exceeds 2*64)."""
    plus = np.bitwise_count(pos[:, None] & words).astype(np.int16)
    return np.abs(2 * plus - sizes)


def _pack(signs: np.ndarray) -> np.ndarray:
    """Rows of +-1 over the vertices 1..n, n <= 64, as the uint64 words of
    their +1 vertices: bit z-1 is vertex z, so vertex 64 is the top bit."""
    bits = np.packbits(signs > 0, axis=1, bitorder="little")
    return np.pad(bits, ((0, 0), (0, 8 - bits.shape[1]))).view("<u8").ravel()


def _maxima(words: np.ndarray, sizes: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Max |color value| over the edge words of each coloring word in
    ``pos`` (int16), in ``_imbalances`` calls of about 2**16 cells."""
    step = max(1, (1 << 16) // len(words))
    return np.concatenate([_imbalances(words, sizes, pos[lo:lo + step]).max(axis=1)
                           for lo in range(0, len(pos), step)])


def _scan(words: np.ndarray, sizes: np.ndarray,
          batches: Iterable[np.ndarray]) -> tuple[int, int]:
    """Least max |color value| over the edge words among the coloring
    words of ``batches``, and the first word in batch order that reaches
    it, for edge words in any order.

    Each batch is first scored on the strided sample
    ``words[::max(1, m // _SAMPLE)]`` of the m edge words (a view), whose
    maxima are lower bounds.  Then a coloring survives while its running max stays within
    its limit: in the first batch, the coloring at the least sampled max
    is scored over every edge, with value f, and the colorings up to it
    survive while at most f, later ones while below f; in later batches
    every coloring survives only while below the best so far, which keeps
    the earlier word at a tie.  The survivors walk the edge words in blocks
    of ``_BLOCK``, so a survivor's running max after the last block is
    exact, and the first at the least of them wins."""
    sample = slice(None, None, max(1, len(words) // _SAMPLE))
    best, best_word = None, 0
    for batch in batches:
        if not len(batch):
            continue
        run = _maxima(words[sample], sizes[sample], batch)
        ties = 0  # the colorings that may tie the best
        if best is None:
            ties = int(np.argmin(run)) + 1
            best = int(_maxima(words, sizes, batch[ties - 1:ties])[0])
        limit = np.full(len(batch), best - 1)
        limit[:ties] = best
        alive = np.flatnonzero(run <= limit)
        for lo in range(0, len(words), _BLOCK):
            if not alive.size:
                break
            block = slice(lo, lo + _BLOCK)
            run[alive] = np.maximum(run[alive], _maxima(words[block], sizes[block],
                                                        batch[alive]))
            alive = alive[run[alive] <= limit[alive]]
        if alive.size:
            j = alive[int(np.argmin(run[alive]))]
            best, best_word = int(run[j]), int(batch[j])
    return best, best_word


def _witness(n: int, word: int, words: np.ndarray, sizes: np.ndarray) -> dict:
    """The report's witness fields for a coloring word: its signs, and the
    vertices of the first edge word at its maximum."""
    imb = _imbalances(words, sizes, np.array([word], dtype=np.uint64))[0]
    edge = int(words[int(np.argmax(imb))])
    return {"witness_coloring": [1 if word >> z & 1 else -1 for z in range(n)],
            "witness_edge": tuple(z + 1 for z in range(n) if edge >> z & 1)}


def _require_positive(name: str, count: int) -> None:
    if count < 1:
        raise ValueError(f"{name} must be >= 1, got {count}")


def _children(parents: np.ndarray, words: np.ndarray, sizes: np.ndarray,
              bound: int, bit: int) -> np.ndarray:
    """The children of the coloring words ``parents`` (``bit`` clear in
    each) that stay within ``bound`` >= 1 on every edge word, each of size
    above ``bound`` and holding the vertex of ``bit``: first the parents
    with that vertex at -1, then with it at +1.

    A child at -1 has the parent's popcount c on an edge word and one at +1
    has c + 1; ``|2c - size| <= bound`` is ``c - lo <= width`` in uint8
    (below lo the difference wraps past 64).  So one popcount per (parent,
    edge) cell scores both children, about 2**16 cells per numpy call."""
    lo = (sizes - bound + 1) // 2
    width = ((sizes + bound) // 2 - lo).astype(np.uint8)
    lo = lo.astype(np.uint8)
    step = max(1, (1 << 16) // max(1, len(words)))
    minus, plus = [], []
    for i in range(0, len(parents), step):
        off = np.bitwise_count(parents[i:i + step, None] & words) - lo
        minus.append((off <= width).all(axis=1))
        off += 1
        plus.append((off <= width).all(axis=1))
    return np.concatenate([parents[np.concatenate(minus)],
                           parents[np.concatenate(plus)] | np.uint64(bit)])


def exact_discrepancy(n: int) -> DiscReport:
    """Exact minimum over all colorings of the maximum edge imbalance.

    A branch-and-bound over prefixes.  Vertex 1 is +1 (the sign flip is a
    symmetry), so the candidates are the words ``pos = 2x + 1``.  For each
    bound v = 1, 2, ... (every singleton is an edge) the vertices n, ...,
    2 are set in turn, and ``_children`` keeps the words within v on the
    edges whose lowest vertex but 1 was just set, now decided (an edge of
    size at most v always is).  The first v that some word survives is
    the optimum, and the survivors are every optimal word, so the witness,
    the least of them, is the least minimizing x, as in a scan of all
    2**(n-1) words."""
    if n > EXACT_CAP:
        raise CapExceeded(f"exact search capped at n={EXACT_CAP}")
    words, sizes = _packed_edges(n)
    rest = words & ~np.uint64(1)
    levels = []
    for z in range(n - 1, 0, -1):
        # the edges whose lowest vertex other than 1 is z + 1
        at = (rest & np.uint64((2 << z) - 1)) == np.uint64(1 << z)
        levels.append((1 << z, words[at], sizes[at]))
    for best in itertools.count(1):
        frontier = np.ones(1, dtype=np.uint64)
        for bit, w, s in levels:
            frontier = _children(frontier, w[s > best], s[s > best], best, bit)
            if not frontier.size:
                break
        else:
            break
    word = int(frontier.min())
    worst = int(_imbalances(words, sizes, np.array([word], dtype=np.uint64)).max())
    check_invariant(worst == best, "exact-rescore",
                    f"witness word {word} scores {worst} over every edge, "
                    f"the search reported {best} at n={n}")
    return DiscReport(n=n, method="exhaustive", disc_value=best,
                      n_edges=len(words), **_witness(n, word, words, sizes))


def _draws(n: int, trials: int, seed: int) -> Iterator[np.ndarray]:
    """``trials`` rows of +-1, ``_CHUNK`` per rng call: the stream of one call
    per trial.  Lazy, so numpy.random (6 MB) loads after the edge words' peak."""
    rng = np.random.default_rng(seed)
    for t in range(0, trials, _CHUNK):
        yield rng.choice(_SIGNS, size=(min(_CHUNK, trials - t), n))


def random_coloring_upper(n: int, trials: int = 100, seed: int = 0) -> DiscReport:
    """Best-of-``trials`` uniform random colorings (``_draws``) over all
    hyperedges, and the envelope 4*sqrt(n*ln(2m)), logged, not enforced.
    Up to ``ENUMERATION_CAP`` ``_scan`` scores their words and m is the
    distinct edge count; above it ``_sweep_rows`` scores them and m is the
    progression count, a lower bound, which makes the envelope stricter."""
    _require_positive("trials", trials)
    if n <= ENUMERATION_CAP:
        words, sizes = _packed_edges(n)
        best, word = _scan(words, sizes, map(_pack, _draws(n, trials, seed)))
        m, witness = len(words), _witness(n, word, words, sizes)
        # the witness edge is the first at the word's max over every edge
        worst = abs(sum(witness["witness_coloring"][z - 1] for z in witness["witness_edge"]))
        check_invariant(worst == best, "random-rescore",
                        f"witness word {word} scores {worst} over every edge, "
                        f"the scan reported {best} at n={n}")
    else:
        best, witness = _sweep_rows(n, _draws(n, trials, seed))
        m = count_progressions(n)
    envelope = 4.0 * math.sqrt(n * math.log(2 * m))
    ok = best <= envelope
    log.info("random upper bound at n=%d: disc=%d envelope=%.2f ok=%s",
             n, best, envelope, ok)
    return DiscReport(n=n, method="random", disc_value=int(best), n_edges=m,
                      trials=trials, seed=seed, envelope=envelope, envelope_ok=bool(ok),
                      n_edges_lower_bound=n > ENUMERATION_CAP, **witness)


def _sweep_rows(n: int, chunks: Iterable[np.ndarray]) -> tuple[int, dict]:
    """Least ``max_edge_imbalance`` over the +-1 rows of ``chunks``, and the
    witness fields of the first row at it.  A sweep stops once it reaches
    the best finished value, so a finished sweep is a new minimum."""
    best = best_row = best_window = None
    for rows in chunks:
        for row in rows:
            value, window = max_edge_imbalance(Coloring(n, row), stop_at=best)
            if window is not None:
                best, best_row, best_window = value, row, window
    return best, {"witness_coloring": best_row.tolist(),
                  "witness_edge": window_vertices(best_window, n)}


def _improving_flips(words: np.ndarray, pos: int, signed: np.ndarray,
                     value: int) -> int:
    """The uint64 word of the vertices whose flip takes the maximum edge
    imbalance of the coloring word ``pos`` below ``value`` = max |signed|,
    where ``signed`` holds ``2*popcount(pos & word) - size`` per edge word.

    A flip of z moves the signed imbalance of each edge that holds z by 2
    towards 0 if z is on its majority side, and away from 0 otherwise (a
    balanced edge goes to 2).  So the maximum falls exactly when
    ``value >= 2``, every edge at ``value`` holds z on its majority side,
    and no edge at ``value - 1`` or ``value - 2`` holds z off its majority
    side (a balanced edge has none)."""
    if value < 2:
        return 0
    near = np.abs(signed) >= value - 2
    w, s = words[near], signed[near]
    majority = np.where(s > 0, np.uint64(pos), ~np.uint64(pos))
    majority[s == 0] = 0
    majority &= w
    top = np.abs(s) == value
    return int(np.bitwise_and.reduce(majority[top])
               & ~np.bitwise_or.reduce(w[~top] & ~majority[~top]))


def local_search_upper(n: int, restarts: int = 20, seed: int = 0) -> DiscReport:
    """Single-flip hill climbing on the max edge imbalance, random restarts.

    Flipping vertex z+1 of the word ``pos`` is ``pos ^ (1 << z)``.  Each
    restart keeps the signed imbalance of every edge word and walks
    ``rng.permutation(n)`` until a whole pass accepts nothing; a vertex is
    accepted when its bit is in ``_improving_flips``, which then adds +-2
    on the edges that hold it (``local-search-flip`` checks that the
    maximum fell).  The restarts' final words are scanned again
    (``local-search-rescore``), so the value is a valid upper bound."""
    _require_positive("restarts", restarts)
    words, sizes = _packed_edges(n)
    rng = np.random.default_rng(seed)
    climbed = []
    for _ in range(restarts):
        pos = int(_pack(rng.choice(_SIGNS, size=(1, n)))[0])
        signed = 2 * np.bitwise_count(words & np.uint64(pos)).astype(np.int16) - sizes
        value = int(np.abs(signed).max())
        flips = _improving_flips(words, pos, signed, value)
        improved = True
        while improved:
            improved = False
            for z in rng.permutation(n).tolist():
                if not flips >> z & 1:
                    continue
                bit = 1 << z
                step = np.bitwise_count(words & np.uint64(bit)).astype(np.int16)
                step *= -2 if pos & bit else 2
                signed += step
                pos ^= bit
                old, value = value, int(np.abs(signed).max())
                check_invariant(value < old, "local-search-flip",
                                f"flipping vertex {z + 1} moved the maximum from "
                                f"{old} to {value} at n={n}")
                flips = _improving_flips(words, pos, signed, value)
                improved = True
        climbed.append((value, pos))
    best, best_pos = _scan(words, sizes, [np.array([pos for _, pos in climbed],
                                                   dtype=np.uint64)])
    check_invariant(best == min(climbed)[0], "local-search-rescore",
                    f"re-verification scan gives {best}, search found {min(climbed)[0]}")
    return DiscReport(n=n, method="local_search", disc_value=best,
                      n_edges=len(words), restarts=restarts, seed=seed,
                      **_witness(n, best_pos, words, sizes))
