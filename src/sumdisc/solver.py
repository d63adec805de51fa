"""Discrepancy computation: exact small-N search, heuristic upper bounds,
and the squared-imbalance averaging lower bound over the structured family.

The averaging bound evaluates
``S = sum over family edges E, offsets a of chi(a + E)**2`` exactly.  For
each edge, S_E collapses to a dot product between the autocorrelation of
the coloring and the difference profile of the edge (how often each gap u
occurs between two edge elements).  ``TwoNormEngine`` builds every edge's
profile once, as a lag list: consecutive collision-free edges of equal
lengths are built together in numpy batches of about 2**18 lag-grid
cells, one key sort and one ``reduceat`` per batch, and only the edges
whose lattice points collide are enumerated one at a time.  A
whole-family evaluation is then one autocorrelation, one dot product (the
total) and the per-edge sums, taken over blocks of whole edges of about
2**17 lags (one gather, one in-place multiply and one ``reduceat`` per
block) so a call holds one block, not every lag, in memory.  The
autocorrelation and the witness edge's translate values are correlations
computed as float FFTs and rounded to integers
(``hypergraph.exact_correlation``), which checks that every rounding
residue is below 0.25; the sums over them are int64.
S >= n**3 / 90000 holds for every coloring, and the offset maximizer
always exceeds sqrt(n)/1200 in absolute color value; both facts are
checked on every call.  The build checks that each edge's lag list counts
every ordered pair of its elements once (``profile-mass``).

The searches at small N score colorings as uint64 words of their +1
vertices against the canonical edge words: random search by ``_scan``,
local search by signed edge imbalances updated per accepted flip, whose
final words ``_scan`` re-scores (``local-search-rescore``), and the exact
search by a branch-and-bound over prefixes whose witness is re-scored
over every edge (``exact-rescore``).
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .family import FamilyE0
from .hypergraph import (CapExceeded, Coloring, SumEdge, TranslatedEdgeValue,
                         canonical_edge_masks, count_progressions,
                         edge_elements_array, exact_correlation,
                         max_edge_imbalance, translate_values,
                         window_vertices, ENUMERATION_CAP)
# Unused here; bench/spans.py wraps ``solver.edge_cardinality`` by name.
from .hypergraph import edge_cardinality  # noqa: F401
from .numtheory import check_invariant

log = logging.getLogger(__name__)

EXACT_CAP = 28
# grid cells per numpy batch of the lag-list build, and lags per block of
# the per-edge sums in ``TwoNormEngine.evaluate``
_CELL_BATCH = 1 << 18
_LAG_BLOCK = 1 << 17


class FamilyMismatch(ValueError):
    """Coloring and family were built for different n."""


@dataclass(frozen=True)
class DiscReport:
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


@dataclass(frozen=True)
class TwoNormBound:
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
    def witness_offset(self) -> int:
        return self.witness.offset

    @property
    def witness_value(self) -> int:
        return abs(self.witness.value)


def _edge_difference_profile(e: SumEdge) -> np.ndarray:
    """Occurrence counts of each nonnegative gap u between ordered element
    pairs (x, x+u) of the edge, dense over [0, span], from its distinct
    elements: the profile of an edge whose lattice points collide."""
    els = edge_elements_array(e)
    diffs = (els[None, :] - els[:, None]).ravel()
    keep = diffs >= 0
    return np.bincount(diffs[keep], minlength=e.span + 1).astype(np.int64)


def _half_grid_cells(l1: int, l2: int) -> int:
    """Cell count of the half lag grid of an l1 x l2 edge, a bound on its
    distinct nonnegative lags whether or not its lattice points collide."""
    return l1 + (l2 - 1) * (2 * l1 - 1)


def _half_grid(l1: int, l2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells (j1, j2) of the half lag grid H = {j2 > 0} u {j2 = 0,
    j1 >= 0} of an l1 x l2 edge, origin first, and their weights
    ``2(l1-|j1|)(l2-j2)``, except ``l1*l2`` at the origin: each cell off
    the origin stands for itself and its mirror (-j1, -j2)."""
    j1 = np.arange(-(l1 - 1), l1, dtype=np.int64)
    j1 = np.concatenate([j1[l1 - 1:], np.tile(j1, l2 - 1)])
    j2 = np.repeat(np.arange(l2, dtype=np.int64), [l1] + [2 * l1 - 1] * (l2 - 1))
    w = 2 * (l1 - np.abs(j1)) * (l2 - j2)
    w[0] = l1 * l2
    return j1, j2, w


def _grid_lag_lists(d1: np.ndarray, d2: np.ndarray, l1: int,
                    l2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lag lists of the collision-free edges (d1[i], l1, d2[i], l2): the
    sorted distinct lags ``|j1*d1 + j2*d2|`` over the half grid, their
    summed cell weights, and the lag count of each edge.

    No lattice point of a collision-free edge repeats, so only the origin
    has lag 0; each row sorts one key ``(lag << bits) | cell`` and merges
    equal lags by ``reduceat``, which gives the nonzero entries of the
    edge's doubled difference profile in increasing lag order."""
    j1, j2, w = _half_grid(l1, l2)
    cells = w.size
    bits = (cells - 1).bit_length()
    keys = np.outer(d1, j1)
    keys += np.outer(d2, j2)
    np.abs(keys, out=keys)
    keys <<= bits
    keys |= np.arange(cells)
    keys.sort(axis=1)
    keys = keys.ravel()
    lags = keys >> bits
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(lags[1:], lags[:-1], out=first[1:])
    first[::cells] = True
    starts = np.flatnonzero(first)
    weights = np.add.reduceat(w[keys & ((1 << bits) - 1)], starts)
    return lags[starts], weights, first.reshape(-1, cells).sum(axis=1)


def _lag_lists(edges: list[SumEdge]) -> Iterator[tuple[np.ndarray, ...]]:
    """The engine's lag lists, in edge order, as (lags, weights, lag count
    per edge) pieces.  Consecutive collision-free edges of equal lengths
    share one half grid and are built ``_grid_lag_lists`` rows of about
    ``_CELL_BATCH`` cells at a time; a colliding edge is its own piece, the
    nonzero entries of its doubled ``_edge_difference_profile``."""
    for (l1, l2, free), run in itertools.groupby(
            edges, key=lambda e: (e.l1, e.l2, e.collision_free)):
        if not free:
            for e in run:
                prof = _edge_difference_profile(e)
                prof[1:] *= 2
                lags = np.flatnonzero(prof)
                yield lags, prof[lags], np.array([lags.size])
            continue
        d = np.array([(e.d1, e.d2) for e in run], dtype=np.int64)
        rows = max(1, _CELL_BATCH // _half_grid_cells(l1, l2))
        for lo in range(0, len(d), rows):
            yield _grid_lag_lists(d[lo:lo + rows, 0], d[lo:lo + rows, 1], l1, l2)


class TwoNormEngine:
    """Lag lists of one family, reusable across many colorings.

    Edge i owns ``lags[seg_starts[i]:seg_starts[i+1]]``, its distinct
    nonnegative gaps between elements, and the same slice of ``weights``,
    how many ordered element pairs are that far apart in either direction,
    so ``S_E = sum of weights * A[lags]`` for the autocorrelation A;
    ``fam_profile`` is the weights summed per lag over the family.  The
    lists are built in numpy batches (``_lag_lists``) straight into one
    allocation each, sized by the half-grid cell counts (pages past the
    last lag are never written).  ``evaluate`` sums them in blocks of
    whole edges of about ``_LAG_BLOCK`` lags, fixed here, so a call
    allocates one block's buffer, not two arrays of every lag."""

    def __init__(self, family: FamilyE0):
        self.n = family.n
        self.edges = list(family.all_edges())
        self.n_edges = len(self.edges)
        cap = sum(_half_grid_cells(e.l1, e.l2) for e in self.edges)
        lags, weights = np.empty(cap, dtype=np.int64), np.empty(cap, dtype=np.int64)
        self.fam_profile = np.zeros(self.n, dtype=np.int64)
        used, count_parts = 0, []
        for part_lags, part_weights, counts in _lag_lists(self.edges):
            np.add.at(self.fam_profile, part_lags, part_weights)
            lags[used:used + part_lags.size] = part_lags
            weights[used:used + part_lags.size] = part_weights
            used += part_lags.size
            count_parts.append(counts)
        self.lags, self.weights = lags[:used], weights[:used]
        counts = np.concatenate(count_parts)
        self.seg_starts = np.concatenate([[0], np.cumsum(counts[:-1])]).astype(np.int64)
        # the lag-0 weight of an edge is |E|, and its weights count each
        # ordered pair of its elements once
        sizes = self.weights[self.seg_starts]
        pairs, mass = int(np.dot(sizes, sizes)), int(self.weights.sum())
        profile_mass = int(self.fam_profile.sum())
        check_invariant(bool(np.all(self.lags[self.seg_starts] == 0))
                        and profile_mass == mass == pairs, "profile-mass",
                        f"weights sum to {mass} and the profile to {profile_mass}, "
                        f"not the {pairs} ordered element pairs at n={self.n}")
        # a block of edges starts at each edge that holds a multiple of
        # _LAG_BLOCK; edge i's lags end at ends[i + 1]
        ends = np.append(self.seg_starts, used).tolist()
        firsts = np.unique(np.searchsorted(
            self.seg_starts, np.arange(0, used, _LAG_BLOCK), side="right") - 1).tolist()
        self._blocks = [(e_lo, e_hi, ends[e_lo], ends[e_hi],
                         self.seg_starts[e_lo:e_hi] - ends[e_lo])
                        for e_lo, e_hi in zip(firsts, [*firsts[1:], self.n_edges])]
        self._block_len = max(hi - lo for _, _, lo, hi, _ in self._blocks)

    def evaluate(self, chi: Coloring) -> TwoNormBound:
        if chi.n != self.n:
            raise FamilyMismatch(f"coloring n={chi.n}, family n={self.n}")
        autocorr = exact_correlation(chi.values, chi.values)[self.n - 1:]
        check_invariant(autocorr[0] == self.n, "autocorrelation-origin",
                        f"A(0) = {autocorr[0]} for a +-1 coloring of n={self.n}")
        total = int(np.dot(self.fam_profile, autocorr))
        check_invariant(90000 * total >= self.n ** 3, "two-norm-bound",
                        f"squared-imbalance total {total} < n^3/90000 at n={self.n}")
        per_edge = np.empty(self.n_edges, dtype=np.int64)
        buf = np.empty(self._block_len, dtype=np.int64)
        for e_lo, e_hi, lo, hi, starts in self._blocks:
            block = buf[:hi - lo]
            # every lag is below n (the build's np.add.at raises otherwise),
            # so clipping moves no index; mode="raise" would copy through
            # a second buffer
            np.take(autocorr, self.lags[lo:hi], out=block, mode="clip")
            block *= self.weights[lo:hi]
            np.add.reduceat(block, starts, out=per_edge[e_lo:e_hi])
        best_edge = self.edges[int(np.argmax(per_edge))]
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


@functools.cache
def _packed_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The canonical edge masks as one uint64 word per edge, and their
    int16 sizes, cached per n (so at most ``ENUMERATION_CAP`` entries)."""
    words = canonical_edge_masks(n).view(np.uint64).ravel()
    return words, np.bitwise_count(words).astype(np.int16)


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


def _scan(words: np.ndarray, sizes: np.ndarray,
          batches: Iterable[np.ndarray]) -> tuple[int, int]:
    """Least max |color value| over the edge words among the coloring
    words of ``batches``, and the first word that reaches it, in
    ``_imbalances`` calls of about 2**16 (coloring, edge) cells."""
    step = max(1, (1 << 16) // len(words))
    best, best_word = None, 0
    for batch in batches:
        for lo in range(0, len(batch), step):
            worst = _imbalances(words, sizes, batch[lo:lo + step]).max(axis=1)
            i = int(np.argmin(worst))
            if best is None or worst[i] < best:
                best, best_word = int(worst[i]), int(batch[lo + i])
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
