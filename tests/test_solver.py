import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sumdisc import solver
from sumdisc.family import FamilyConfig, FamilyE0, build_family
from sumdisc.fourier import quadrature_sum_sq, sum_sq_disc
from sumdisc.hypergraph import (CapExceeded, Coloring, collision_free,
                                color_value, edge_elements_array)
from sumdisc.numtheory import InternalInvariantViolation
from sumdisc.solver import (DiscReport, FamilyMismatch, TwoNormEngine,
                            exact_discrepancy, local_search_upper,
                            random_coloring_upper)


@pytest.fixture(scope="module")
def exact_table():
    return {n: exact_discrepancy(n) for n in range(1, 21)}


class TestTwoNorm:
    def test_total_matches_direct_loop(self):
        for n, seed in ((64, 0), (576, 1)):
            fam = build_family(FamilyConfig(n=n))
            chi = Coloring.random(n, seed=seed)
            bound = TwoNormEngine(fam).evaluate(chi)
            direct = sum(sum_sq_disc(chi, fam.edge(i)) for i in range(len(fam)))
            assert bound.total == direct

    def test_guaranteed_bounds_for_all_coloring_shapes(self):
        n = 576
        engine = TwoNormEngine(build_family(FamilyConfig(n=n)))
        colorings = [Coloring.all_plus(n), Coloring.alternating(n),
                     Coloring.block(n)]
        colorings += [Coloring.random(n, seed=s) for s in range(10)]
        for chi in colorings:
            bound = engine.evaluate(chi)
            assert 90000 * bound.total >= n ** 3
            assert 1440000 * bound.witness_value ** 2 > n
            # witness value really is the color value of that translate
            got = color_value(chi, bound.witness_edge, bound.witness.offset)
            assert abs(got) == bound.witness_value
            assert bound.witness_value >= bound.derived_disc_lb - 1e-9

    def test_matches_quadrature_small_n(self):
        for n in (16, 32, 64):
            fam = build_family(FamilyConfig(n=n))
            chi = Coloring.random(n, seed=n)
            bound = TwoNormEngine(fam).evaluate(chi)
            edges = [fam.edge(i) for i in range(len(fam))]
            maxspan = max(e.span for e in edges)
            quad = quadrature_sum_sq(chi, edges, 2 * (n + maxspan) + 1)
            assert abs(bound.total - quad) / bound.total <= 1e-6

    def test_rows_become_edges_only_where_needed(self, monkeypatch):
        # the engine reads the family's table as it is: only the colliding
        # rows (4 at n=1024, taken in stable d1 order) and the witness
        # become SumEdges
        fam = build_family(FamilyConfig(n=1024))
        coll = np.flatnonzero(~collision_free(*fam.edges.T, np.gcd))
        coll = coll[np.argsort(fam.edges[coll, 0], kind="stable")]
        calls, edge = [], FamilyE0.edge
        monkeypatch.setattr(FamilyE0, "edge",
                            lambda self, i: calls.append(i) or edge(self, i))
        engine = TwoNormEngine(fam)
        assert calls == coll.tolist() and len(calls) == 4
        bound = engine.evaluate(Coloring.random(1024, seed=0))
        assert len(calls) == 5 and bound.witness_edge == edge(fam, calls[-1])

    def test_family_mismatch(self):
        fam = build_family(FamilyConfig(n=64))
        with pytest.raises(FamilyMismatch):
            TwoNormEngine(fam).evaluate(Coloring.random(32, seed=0))

    def test_engine_reuse_consistent(self):
        fam = build_family(FamilyConfig(n=100))
        engine = TwoNormEngine(fam)
        chi = Coloring.random(100, seed=5)
        assert engine.evaluate(chi).total == engine.evaluate(chi).total
        assert engine.evaluate(chi).total == TwoNormEngine(fam).evaluate(chi).total

    def test_autocorrelation_origin_is_checked(self, monkeypatch):
        n = 100
        engine = TwoNormEngine(build_family(FamilyConfig(n=n)))
        exact = solver.exact_autocorrelation
        monkeypatch.setattr(solver, "exact_autocorrelation", lambda v: exact(v) + 1)
        with pytest.raises(InternalInvariantViolation) as exc:
            engine.evaluate(Coloring.random(n, seed=0))
        assert exc.value.invariant == "autocorrelation-origin"

    def test_chain_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma (about 10 ms) on its first call; the
        # family, the engine and evaluate never call it.  A fresh process,
        # so that no earlier test has loaded it
        src = str(Path(solver.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        res = subprocess.run([sys.executable, "-c", CHAIN_MODULES], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == {"numpy.ma": False, "colliding": 4}

    def test_averaging_inequality(self):
        # max_(E,a) |chi(E_a)|^2 >= S / (2n * |family|)
        n = 576
        engine = TwoNormEngine(build_family(FamilyConfig(n=n)))
        for seed in range(5):
            bound = engine.evaluate(Coloring.random(n, seed=seed))
            assert bound.witness_value ** 2 * 2 * n * bound.n_edges >= bound.total


CHAIN_MODULES = """
import json, sys
import numpy as np
from sumdisc.family import FamilyConfig, build_family
from sumdisc.hypergraph import Coloring, collision_free
from sumdisc.solver import TwoNormEngine
fam = build_family(FamilyConfig(n=1024))
TwoNormEngine(fam).evaluate(Coloring.random(1024, seed=0))
json.dump({"numpy.ma": "numpy.ma" in sys.modules,
           "colliding": int((~collision_free(*fam.edges.T, np.gcd)).sum())},
          sys.stdout)
"""


def _loop_lag_lists(fam):
    """The per-edge loop the lag lists and then the chain filters replaced:
    one dense profile per edge (from the lag grid if collision-free, else
    from its elements), doubled off lag 0, and its nonzero entries."""
    fam_profile = np.zeros(fam.n, dtype=np.int64)
    lag_parts, weight_parts, seg_lengths = [], [], []
    for e in (fam.edge(i) for i in range(len(fam))):
        if e.collision_free:
            j1 = np.arange(-(e.l1 - 1), e.l1, dtype=np.int64)
            j2 = np.arange(-(e.l2 - 1), e.l2, dtype=np.int64)
            w = np.outer(e.l1 - np.abs(j1), e.l2 - np.abs(j2)).ravel()
            u = np.add.outer(j1 * e.d1, j2 * e.d2).ravel()
            keep = u >= 0
            prof = np.bincount(u[keep], weights=w[keep],
                               minlength=e.span + 1).astype(np.int64)
        else:
            els = edge_elements_array(e)
            diffs = (els[None, :] - els[:, None]).ravel()
            prof = np.bincount(diffs[diffs >= 0],
                               minlength=e.span + 1).astype(np.int64)
        prof2 = prof * 2
        prof2[0] = prof[0]
        fam_profile[: prof2.size] += prof2
        lags = np.nonzero(prof2)[0]
        lag_parts.append(lags)
        weight_parts.append(prof2[lags])
        seg_lengths.append(lags.size)
    seg_starts = np.concatenate([[0], np.cumsum(seg_lengths[:-1])]).astype(np.int64)
    return (np.concatenate(lag_parts), np.concatenate(weight_parts), seg_starts,
            fam_profile)


def _oracle_edge_sums(oracle, autocorr):
    """Per-edge ``sum of weights * A[lags]`` over the oracle's lag lists."""
    lags, weights, seg_starts, _ = oracle
    return np.add.reduceat(weights * autocorr[lags], seg_starts)


def _autocorr(chi):
    return solver.exact_autocorrelation(chi.values)


class TestLagLists:
    # the chain filters against the per-edge loop they replaced: triangle
    # entries, and for a colliding edge its two staircase pieces plus the
    # box-box entries of their cross term.  SHA-256 at n=16384 of the bytes
    # of fam_profile, and of the per-edge sums for ones, alt, block and the
    # random colorings of seeds 1 and 2, both recorded from the
    # whole-family lag lists the chain filters replaced
    PROFILE_SHA256_16384 = "cd48ae538e6a39bbc4d28693d48e6b7ed9c9e2719bc835f1f9038626e8c41e9d"
    EDGE_SUMS_SHA256_16384 = "1464f78803c452157ab103b73055f38129ff20ba4d679d644e0ff19e23b0cdaa"

    def _assert_matches_loop(self, fam):
        n = fam.n
        engine = TwoNormEngine(fam)
        oracle = _loop_lag_lists(fam)
        assert engine.fam_profile.dtype == np.int64
        np.testing.assert_array_equal(engine.fam_profile, oracle[3])
        for chi in (Coloring.alternating(n), Coloring.block(n),
                    Coloring.random(n, seed=n)):
            got = engine.edge_sums(_autocorr(chi))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, _oracle_edge_sums(oracle, _autocorr(chi)))

    def test_matches_loop_small_n(self):
        for n in range(1, 130):
            self._assert_matches_loop(build_family(FamilyConfig(n=n)))

    @pytest.mark.parametrize("n", [700, 1000, 2048, 4096])
    def test_matches_loop(self, n):
        self._assert_matches_loop(build_family(FamilyConfig(n=n)))

    def test_matches_loop_random_rows(self):
        # seeded random rows of span <= n-1, with small differences so that
        # many collide, in shapes the family lacks.  With D1 = d1/g and
        # D2 = d2/g, a row collides when l1 > D2 and l2 > D1; its pieces are
        # a = (d1, D2, d2, l2) and b = (d1, l1 - D2, d2, D1).  The family's
        # colliding rows all have D1 > D2; these rows also have D1 <= D2,
        # and each order of a.l1 against b.l1 and of a.l2 against 2*b.l2
        n, rng, rows = 257, np.random.default_rng(7), []
        while len(rows) < 300:
            d1, l1, d2, l2 = (int(x) for x in rng.integers(1, [13, 40, 13, 12]))
            if (l1 - 1) * d1 + (l2 - 1) * d2 <= n - 1:
                rows.append((d1, l1, d2, l2))
        edges = np.array(rows, dtype=np.int64)
        fam = FamilyE0(n=n, counts=(len(rows), 0, 0), edges=edges,
                       k=np.empty(0, dtype=np.int64), b=np.empty(0, dtype=np.int64))
        g = np.gcd(edges[:, 0], edges[:, 2])
        big_d1, big_d2 = edges[:, 0] // g, edges[:, 2] // g
        l1, l2 = edges[:, 1], edges[:, 3]
        colliding = ~collision_free(*edges.T, np.gcd)
        for shape in (big_d1 < big_d2, big_d1 == big_d2, big_d1 > big_d2,
                      l1 >= 2 * big_d2, l1 < 2 * big_d2, l2 >= 2 * big_d1, l2 < 2 * big_d1):
            assert np.any(colliding & shape)
        self._assert_matches_loop(fam)

    @pytest.fixture(scope="class")
    def engine_16384(self):
        return TwoNormEngine(build_family(FamilyConfig(n=16384)))

    def test_frozen_fam_profile_16384(self, engine_16384):
        profile = engine_16384.fam_profile
        assert profile.dtype == np.int64
        assert hashlib.sha256(profile.tobytes()).hexdigest() == self.PROFILE_SHA256_16384

    def test_frozen_edge_sums_16384(self, engine_16384):
        n = 16384
        digest = hashlib.sha256()
        for chi in (Coloring.all_plus(n), Coloring.alternating(n), Coloring.block(n),
                    Coloring.random(n, seed=1), Coloring.random(n, seed=2)):
            sums = engine_16384.edge_sums(_autocorr(chi))
            assert sums.dtype == np.int64
            digest.update(sums.tobytes())
        assert digest.hexdigest() == self.EDGE_SUMS_SHA256_16384


class TestExact:
    # full sequence for n = 1..16, frozen from an exhaustive oracle and
    # double-checked against a no-pruning search over the literal edge
    # definition; 17 and 18 are values the batched scan and the earlier
    # per-edge pruning loop agree on, 19 and 20 values the batched scan
    # and the prefix branch-and-bound agree on.  Note the dip at n=12: the
    # hypergraph at n is NOT an induced sub-hypergraph of the one at n+1
    # (windows clip differently at the right boundary), so the sequence is
    # not monotone.
    FROZEN = {1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 3, 8: 3,
              9: 4, 10: 4, 11: 5, 12: 4, 13: 5, 14: 5, 15: 5, 16: 5,
              17: 6, 18: 5, 19: 6, 20: 6}
    # SHA-256 of each whole JSON report (value, edge count and witnesses),
    # frozen from the per-edge pruning loop the batched scan replaced
    # (n <= 18) and from the batched scan (19 and 20)
    REPORT_SHA256 = {
        11: "10ef991720be48cca0d8fc7b4123dcd902b59a77a0a851f8564f51527c6ad982",
        12: "2d5b8f1f54268e994a33d0ccae835638eec290f236b4fd5afa749366467121c4",
        13: "cf1395733ffb4db63d81507eb49cf3fa8609120c586022b358cb84a9afcca567",
        14: "e052297ea4dfa51530579595841baa5f137d885a70f499a8ae75e8c5ec9f091b",
        15: "0e154cbb43ac4ac5fb5343ca495744c938ec42d457a5a9a5e7297315d3b70eb7",
        16: "27794e5b9c5a23057e851f452acb358cc8c857240783834c7f67e091a504e999",
        17: "cc923ef3bf082668692cfca5b06a138c9ae157ea89c97a4be1e2f4e353907a53",
        18: "079c0dc1d3e8ec34ada226634a4f31d112b8daa5ed03039e40cb9420d8a62ae0",
        19: "ea1f9b7211bc22221b84c431a4beb9974249a10e21e2f7290b5959c78309090d",
        20: "bc1e3da7ddaad7d0676e48e1ca53a64741ae124c965424aed4872c4334984099",
    }

    def test_n1(self, exact_table):
        assert exact_table[1].disc_value == 1

    def test_n2(self, exact_table):
        # +,- makes singletons 1 and {1,2} zero
        assert exact_table[2].disc_value == 1

    def test_frozen(self, exact_table):
        for n, val in self.FROZEN.items():
            assert exact_table[n].disc_value == val

    @pytest.mark.parametrize("n", sorted(REPORT_SHA256))
    def test_frozen_report(self, n, exact_table):
        text = json.dumps(exact_table[n].to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == self.REPORT_SHA256[n]

    def test_values_in_sane_range(self, exact_table):
        assert all(1 <= rep.disc_value <= n for n, rep in exact_table.items())

    def test_known_non_monotone_step(self, exact_table):
        # regression for the verified counterexample to monotonicity
        assert exact_table[11].disc_value == 5
        assert exact_table[12].disc_value == 4

    def test_witness_attains_value(self, exact_table, edge_sets):
        for n in (4, 8, 12):
            rep = exact_table[n]
            chi = Coloring(n, rep.witness_coloring)
            # recompute the max imbalance of the witness over all edges
            worst = max(abs(sum(chi(z) for z in edge))
                        for edge in edge_sets(n))
            assert worst == rep.disc_value

    def test_cap(self):
        with pytest.raises(CapExceeded):
            exact_discrepancy(29)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_matches_no_pruning_search(self, n, exact_table, edge_sets):
        # independent oracle: full matrix scan over every coloring,
        # no symmetry reduction, no pruning
        edges = edge_sets(n)
        m = np.zeros((len(edges), n), dtype=np.int32)
        for i, edge in enumerate(edges):
            for z in edge:
                m[i, z - 1] = 1
        best = None
        for bits in range(1 << n):
            chi = np.array([1 if bits >> j & 1 else -1 for j in range(n)],
                           dtype=np.int32)
            worst = int(np.abs(m @ chi).max())
            best = worst if best is None else min(best, worst)
        assert exact_table[n].disc_value == best

    @pytest.mark.parametrize("n", range(1, 19))
    def test_matches_scan_over_every_word(self, n, exact_table):
        # oracle: the scan of every word pos = 2x + 1 in increasing x,
        # the first at the minimum kept
        words, sizes = solver._packed_edges(n)
        best, word = solver._scan(words, sizes,
                                  [np.arange(1, 1 << n, 2, dtype=np.uint64)])
        rep = exact_table[n]
        assert rep.witness_coloring == [1 if word >> z & 1 else -1 for z in range(n)]
        assert rep.disc_value == best

    def test_rescore_check(self, monkeypatch):
        # a search that keeps every word at -1 on vertices 2..n reports the
        # bound 1, which that word's edge {2, 3} exceeds
        monkeypatch.setattr(solver, "_children",
                            lambda parents, words, sizes, bound, bit: parents)
        with pytest.raises(InternalInvariantViolation, match="exact-rescore"):
            exact_discrepancy(8)

    def test_children_match_imbalances(self):
        # both children of each parent against a direct _imbalances filter,
        # on edge words of up to 64 vertices, where the uint8 test wraps
        rng = np.random.default_rng(0)

        def draw(size):
            return rng.integers(0, 1 << 64, size=size, dtype=np.uint64, endpoint=False)

        for z in (0, 5, 63):
            bit = np.uint64(1 << z)
            # about 16 vertices per word, and the word of all 64
            words = np.append(draw(40) & draw(40), ~np.uint64(0)) | bit
            parents = draw(2000) & ~bit
            # none, some and all of the parents have surviving children
            for bound in (1, 4, 7, 10, 62):
                w = words[np.bitwise_count(words) > bound]
                s = np.bitwise_count(w).astype(np.int16)
                expected = [pos[(solver._imbalances(w, s, pos) <= bound).all(axis=1)]
                            for pos in (parents, parents | bit)]
                assert np.array_equal(solver._children(parents, w, s, bound, 1 << z),
                                      np.concatenate(expected))


def per_flip_climb(n, restarts, seed):
    """The hill climb that incremental edge counts replaced, the oracle of
    ``local_search_upper``: a full scan of every candidate flip, the same
    rng calls in the same order."""
    words, sizes = solver._packed_edges(n)

    def scan(*pos):
        return solver._scan(words, sizes, [np.array(pos, dtype=np.uint64)])

    rng = np.random.default_rng(seed)
    climbed = []
    for _ in range(restarts):
        pos = int(solver._pack(rng.choice(solver._SIGNS, size=(1, n)))[0])
        value = scan(pos)[0]
        improved = True
        while improved:
            improved = False
            for z in rng.permutation(n):
                cand = pos ^ (1 << int(z))
                if (cand_value := scan(cand)[0]) < value:
                    pos, value, improved = cand, cand_value, True
        climbed.append((value, pos))
    best, best_pos = scan(*(pos for _, pos in climbed))
    return DiscReport(n=n, method="local_search", disc_value=best,
                      n_edges=len(words), restarts=restarts, seed=seed,
                      **solver._witness(n, best_pos, words, sizes))


class TestUpperBounds:
    def test_random_n1(self):
        assert random_coloring_upper(1, trials=3, seed=0).disc_value == 1

    def test_single_trial_reproducible(self):
        a = random_coloring_upper(12, trials=1, seed=42)
        b = random_coloring_upper(12, trials=1, seed=42)
        assert a == b

    def test_upper_bounds_dominate_exact(self, exact_table):
        for n in range(1, 17):
            exact = exact_table[n].disc_value
            assert random_coloring_upper(n, trials=20, seed=7).disc_value >= exact
            assert local_search_upper(n, restarts=5, seed=7).disc_value >= exact

    def test_local_search_never_worse_than_start(self):
        # hill climbing only accepts improvements
        rep = local_search_upper(14, restarts=8, seed=3)
        assert rep.disc_value <= random_coloring_upper(
            14, trials=8, seed=3).disc_value + 2

    @pytest.mark.parametrize("n", [*range(1, 34), 40])
    def test_local_search_matches_per_flip_climb(self, n):
        for seed, restarts in ((0, 1), (1, 3), (7, 4)):
            assert local_search_upper(n, restarts, seed) == \
                per_flip_climb(n, restarts, seed)

    def test_local_search_flips_vertex_64(self, monkeypatch):
        # the 64 singletons and sparse words that all hold vertex 64, in
        # place of the 2,013,798 n=64 edges, which the per-flip climb would
        # scan once per candidate flip: flips of the top bit are accepted,
        # as in the per-flip climb
        rng = np.random.default_rng(0)
        sparse = rng.integers(1 << 64, size=(3, 40), dtype=np.uint64)
        words = np.concatenate([np.uint64(1) << np.arange(64, dtype=np.uint64),
                                np.bitwise_and.reduce(sparse) | np.uint64(1 << 63)])
        monkeypatch.setattr(solver, "_packed_edges", lambda n: (
            words, np.bitwise_count(words).astype(np.int16)))
        flipped = 0
        for seed in range(10):
            rep = local_search_upper(64, 1, seed)
            assert rep == per_flip_climb(64, 1, seed)
            # the one restart's start, the first draw of its stream
            start = np.random.default_rng(seed).choice(solver._SIGNS, size=(1, 64))
            flipped += rep.witness_coloring[63] != start[0, 63]
        assert flipped > 0

    def test_improving_flips_match_brute_force(self):
        def brute(words, pos, value, n):
            sizes = np.bitwise_count(words).astype(np.int16)
            flips = np.array([pos ^ (1 << z) for z in range(n)], dtype=np.uint64)
            fall = solver._imbalances(words, sizes, flips).max(axis=1) < value
            return sum(1 << z for z in range(n) if fall[z])

        def check(words, pos, n):
            sizes = np.bitwise_count(words).astype(np.int16)
            signed = 2 * np.bitwise_count(words & np.uint64(pos)).astype(np.int16) - sizes
            value = int(np.abs(signed).max())
            got = solver._improving_flips(words, pos, signed, value)
            assert got == brute(words, pos, value, n), (n, pos)
            return got

        # every coloring word over the canonical edges at n <= 8; at n <= 3
        # the maximum is at most 2 and balanced edges decide
        for n in range(1, 9):
            words, _ = solver._packed_edges(n)
            found = [check(words, pos, n) for pos in range(1 << n)]
            assert any(found) == (n > 1)
        # random edge words up to 64 vertices, sparse enough that flips
        # often improve; vertex 64 is the top bit
        rng = np.random.default_rng(0)
        improving = top = 0
        for n in (5, 17, 40, 63, 64):
            for _ in range(300):
                words = rng.integers(1 << 64, size=int(rng.integers(1, 12)),
                                     dtype=np.uint64) & np.uint64((1 << n) - 1)
                for _ in range(int(rng.integers(1, 5))):
                    words &= rng.integers(1 << 64, size=words.size, dtype=np.uint64)
                words = words[words != 0]
                if n == 64:
                    words[::2] |= np.uint64(1 << 63)
                pos = int(rng.integers(1 << 64, dtype=np.uint64)) & ((1 << n) - 1)
                if words.size:
                    got = check(words, pos, n)
                    improving += got != 0
                    top |= got >> 63
        assert improving > 300 and top == 1

    def test_flip_check(self, monkeypatch):
        # a climb that accepts every vertex takes a flip that does not lower
        # the maximum
        monkeypatch.setattr(solver, "_improving_flips",
                            lambda words, pos, signed, value: (1 << 64) - 1)
        with pytest.raises(InternalInvariantViolation, match="local-search-flip"):
            local_search_upper(8, restarts=1, seed=0)

    def test_random_rescore_check(self, monkeypatch):
        # a scan that reports one less than its word's max over every edge
        scan = solver._scan

        def one_less(words, sizes, batches):
            best, word = scan(words, sizes, batches)
            return best - 1, word

        monkeypatch.setattr(solver, "_scan", one_less)
        with pytest.raises(InternalInvariantViolation, match="random-rescore"):
            random_coloring_upper(8, trials=3, seed=0)

    def test_local_rescore_check(self, monkeypatch):
        # a re-verification scan that reports one more than the climbs found
        scan = solver._scan

        def one_more(words, sizes, batches):
            best, word = scan(words, sizes, batches)
            return best + 1, word

        monkeypatch.setattr(solver, "_scan", one_more)
        with pytest.raises(InternalInvariantViolation) as err:
            local_search_upper(8, restarts=2, seed=0)
        assert err.value.invariant == "local-search-rescore"

    def test_report_fields(self):
        rep = random_coloring_upper(10, trials=5, seed=1)
        assert rep.method == "random" and rep.n == 10
        assert rep.trials == 5 and rep.seed == 1
        assert rep.envelope is not None and rep.envelope_ok is not None
        chi = Coloring(10, rep.witness_coloring)
        assert abs(sum(chi(z) for z in rep.witness_edge)) == rep.disc_value
        d = rep.to_json_dict()
        assert d["disc"] == rep.disc_value and d["method"] == "random"

    @pytest.mark.parametrize("n", [16, 32, 48, 64])
    def test_sweep_path_matches_mask_path(self, n, monkeypatch):
        # up to the cap the colorings are scored over the edge words; the
        # row scorer taken above it scores the same draws by the sweep
        masks = random_coloring_upper(n, trials=100, seed=7)
        rows = np.random.default_rng(7).choice(
            np.array([-1, 1], dtype=np.int8), size=(100, n))
        value, witness = solver._sweep_rows(n, [rows])
        assert value == masks.disc_value
        assert witness["witness_coloring"] == masks.witness_coloring
        chi = Coloring(n, witness["witness_coloring"])
        assert abs(sum(chi(z) for z in witness["witness_edge"])) == value
        # with the cap below n, random_coloring_upper takes the row scorer
        monkeypatch.setattr(solver, "ENUMERATION_CAP", n - 1)
        sweep = random_coloring_upper(n, trials=100, seed=7)
        assert (sweep.disc_value, sweep.witness_coloring, sweep.witness_edge) == \
            (value, witness["witness_coloring"], witness["witness_edge"])
        assert not masks.n_edges_lower_bound
        assert "n_edges_lower_bound" not in masks.to_json_dict()
        assert sweep.n_edges_lower_bound and sweep.n_edges <= masks.n_edges
        assert sweep.to_json_dict()["n_edges_lower_bound"] is True
        assert sweep.envelope <= masks.envelope

    @pytest.mark.parametrize("call", [
        lambda: random_coloring_upper(8, trials=-3),
        # above the enumeration cap, where the row scorer would run
        lambda: random_coloring_upper(65, trials=0),
        lambda: local_search_upper(8, restarts=0),
    ], ids=["random", "sweep", "local"])
    def test_count_below_one_raises(self, call):
        with pytest.raises(ValueError, match="must be >= 1"):
            call()

    @pytest.mark.parametrize("chunk", [2, solver._CHUNK])
    def test_chunked_draws_match_per_trial_loop(self, chunk, monkeypatch):
        # the loop the chunked draw and the batched scan replaced: one draw,
        # one pack and one scan per trial, the first trial at the minimum kept
        n = 12
        words, sizes = solver._packed_edges(n)
        monkeypatch.setattr(solver, "_CHUNK", chunk)
        for seed in range(3):
            rng = np.random.default_rng(seed)
            best = None
            for _ in range(chunk + 3):
                signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
                bits = np.packbits(signs > 0, bitorder="little").tobytes()
                pos = np.array([int.from_bytes(bits, "little")], dtype=np.uint64)
                imb = solver._imbalances(words, sizes, pos)[0]
                if best is None or imb.max() < best:
                    best, best_signs, edge = int(imb.max()), signs, int(
                        words[int(np.argmax(imb))])
            rep = random_coloring_upper(n, trials=chunk + 3, seed=seed)
            assert rep.disc_value == best
            assert rep.witness_coloring == best_signs.tolist()
            assert rep.witness_edge == tuple(z for z in range(1, n + 1)
                                             if edge >> (z - 1) & 1)


def _full_scan(words, sizes, batches):
    """The scan of every (coloring, edge) cell that the pruned ``_scan``
    replaced, its oracle."""
    step = max(1, (1 << 16) // len(words))
    best, best_word = None, 0
    for batch in batches:
        for lo in range(0, len(batch), step):
            worst = solver._imbalances(words, sizes, batch[lo:lo + step]).max(axis=1)
            i = int(np.argmin(worst))
            if best is None or worst[i] < best:
                best, best_word = int(worst[i]), int(batch[lo + i])
    return best, best_word


class TestPrunedScan:
    # edge word counts below, at and above the sample and the block
    # (both 4096), and where the sample stride reaches 2 and 3
    @pytest.mark.parametrize("m", [1, 7, 4095, 4096, 4097, 8191, 8192, 8193,
                                   12289, 20000])
    def test_matches_full_scan(self, m):
        assert solver._SAMPLE == solver._BLOCK == 4096
        rng = np.random.default_rng(m)
        # one batch, several (one of them empty), and batches past 16
        # colorings, which cross the 2**16-cell split of the sample and of
        # the blocks at m >= 4096; at m = 1 and 7 the 70,000 colorings cross it
        shapes = [(1,), (3, 0, 1, 5), (40, 17, 200)] + [(70000, 3)] * (m < 100)
        for n in (3, 10, 64):
            mask = np.uint64((1 << n) - 1)

            def draw(pool, size):
                # random words over n vertices, with repeats from a pool
                return rng.choice(rng.integers(1 << 64, size=pool, dtype=np.uint64)
                                  & mask, size)

            words = draw(max(1, m // 3), m)
            sizes = np.bitwise_count(words).astype(np.int16)
            for shape in shapes:
                # few distinct colorings: at n = 3 and 10 many tie at the minimum
                batches = [draw(12, k) for k in shape]
                assert solver._scan(words, sizes, batches) == \
                    _full_scan(words, sizes, batches), (m, n, shape)

    @pytest.mark.parametrize("m", [4097, 20000])
    def test_every_edge_word_counts(self, m):
        # singletons, on which every coloring scores 1, and at one position
        # the word of all 64 vertices, on which the empty coloring scores 64
        # and a balanced one 0: wherever that word sits, in the sample or
        # not, the balanced coloring wins though it comes second
        rng = np.random.default_rng(m)
        pos = np.array([0, (1 << 32) - 1], dtype=np.uint64)
        for at in [*range(0, m, 997), m - 1]:
            words = np.uint64(1) << rng.integers(64, size=m, dtype=np.uint64)
            words[at] = ~np.uint64(0)
            sizes = np.bitwise_count(words).astype(np.int16)
            assert solver._scan(words, sizes, [pos]) == (1, (1 << 32) - 1), at
            assert solver._scan(words, sizes, [pos[:1], pos[1:]]) == (1, (1 << 32) - 1), at


class TestEdgeWords:
    def test_top_bit_and_full_word(self):
        # the two words that only a 64-vertex edge set holds: vertex 64
        # alone, and every vertex
        words = np.array([1 << 63, 2 ** 64 - 1], dtype=np.uint64)
        sizes = np.array([1, 64], dtype=np.int16)
        # only vertex 64 at +1, and alternating with vertex 64 at +1
        signs = -np.ones((2, 64), dtype=np.int8)
        signs[0, 63] = 1
        signs[1, 1::2] = 1
        pos = solver._pack(signs)
        assert pos.tolist() == [1 << 63, int("10" * 32, 2)]
        # the full word scores |2 - 64|; only the top-bit word is unbalanced
        assert solver._scan(words, sizes, [pos[:1]]) == (62, 1 << 63)
        assert solver._scan(words, sizes, [pos[1:]]) == (1, int(pos[1]))
        assert solver._scan(words, sizes, [pos]) == (1, int(pos[1]))
        fields = solver._witness(64, int(pos[0]), words, sizes)
        assert fields["witness_coloring"] == signs[0].tolist()
        assert fields["witness_edge"] == tuple(range(1, 65))
        fields = solver._witness(64, int(pos[1]), words, sizes)
        assert fields["witness_coloring"] == signs[1].tolist()
        assert fields["witness_edge"] == (64,)
        # two colorings in one call: only vertex 64 at +1, and vertices
        # 1..32 at +1 with vertex 64 at -1
        pos = np.array([1 << 63, 2 ** 32 - 1], dtype=np.uint64)
        imb = solver._imbalances(words, sizes, pos)
        assert imb.dtype == np.int16
        assert imb.tolist() == [[1, 62], [1, 0]]

    def test_pack_short_rows(self):
        # bit z-1 is vertex z at every n up to a byte boundary and past it
        for n in (1, 7, 8, 9, 63):
            signs = np.where(np.arange(n) % 3 == 0, 1, -1).astype(np.int8)
            word = sum(1 << z for z in range(n) if signs[z] > 0)
            assert solver._pack(signs[None]).tolist() == [word]

    def test_scan_keeps_first_word_at_minimum(self):
        # vertices 1..3, edges {1, 2} and {3}: every coloring scores 1 on
        # {3}, so all four words with {1, 2} balanced tie at the minimum
        words = np.array([0b011, 0b100], dtype=np.uint64)
        sizes = np.array([2, 1], dtype=np.int16)
        ties = np.array([0b110, 0b001, 0b101, 0b010], dtype=np.uint64)
        assert solver._scan(words, sizes, [ties]) == (1, 0b110)
        # across batches, and across pieces: 2**16 words make one coloring
        # per _imbalances call
        assert solver._scan(words, sizes, [ties[:1], ties[1:]]) == (1, 0b110)
        many = np.tile(words, 1 << 15), np.tile(sizes, 1 << 15)
        assert solver._scan(*many, [ties]) == (1, 0b110)
        assert solver._scan(words, sizes, [np.array([0b011, 0b001, 0b010],
                                                     dtype=np.uint64)]) == (1, 0b001)
        fields = solver._witness(3, 0b001, words, sizes)
        assert fields == {"witness_coloring": [1, -1, -1], "witness_edge": (3,)}

    def test_packed_edges_read_only(self):
        # the cached arrays are shared by every later search at that n, so
        # an in-place write must fail rather than change them
        words, sizes = solver._packed_edges(9)
        with pytest.raises(ValueError, match="read-only"):
            words[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            sizes += 1
        assert solver._packed_edges(9)[0] is words
