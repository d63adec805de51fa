import hashlib
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdisc import hypergraph
from sumdisc.certifier import certify
from sumdisc.hypergraph import (CapExceeded, Coloring, SumEdge,
                                canonical_edge_masks, color_value,
                                count_progressions, edge_cardinality,
                                edge_elements_array, exact_autocorrelation,
                                max_edge_imbalance, staircase_split,
                                translate_values, window_vertices)
from sumdisc.family import FamilyConfig, build_family
from sumdisc.solver import _pack, _packed_edges, _scan
from sumdisc.numtheory import InternalInvariantViolation


def naive_hyperedges(n):
    """Literal definition: every (d1, l1, d2, l2) in [n]^4, every integer
    offset, intersected with [1, n]; deduplicated by set equality."""
    seen = set()
    for d1 in range(1, n + 1):
        for d2 in range(1, n + 1):
            for l1 in range(1, n + 1):
                for l2 in range(1, n + 1):
                    span = (l1 - 1) * d1 + (l2 - 1) * d2
                    base = {j1 * d1 + j2 * d2
                            for j1 in range(l1) for j2 in range(l2)}
                    for a in range(1 - span, n + 1):
                        s = frozenset(x + a for x in base if 1 <= x + a <= n)
                        if s:
                            seen.add(s)
    return seen


class TestElements:
    def test_example_sumset(self):
        assert edge_elements_array(SumEdge(2, 3, 3, 2)).tolist() == [0, 2, 3, 4, 5, 7]

    def test_degenerate_second_ap(self):
        for d, l in ((3, 4), (5, 1), (1, 7)):
            assert edge_elements_array(SumEdge(d, l, 1, 1)).tolist() == \
                [j * d for j in range(l)]

    def test_single_point(self):
        assert edge_elements_array(SumEdge(1, 1, 1, 1)).tolist() == [0]

    @settings(max_examples=500, deadline=None)
    @given(st.builds(SumEdge, *[st.integers(1, 40)] * 4))
    def test_matches_set_of_lattice_points(self, e):
        # the union of the pieces' grids, against the sumset as a set
        got = edge_elements_array(e)
        assert got.dtype == np.int64
        assert got.tolist() == element_set(e)


class TestCardinality:
    def test_collision_free_example(self):
        e = SumEdge(2, 3, 3, 2)
        assert edge_cardinality(e) == 6 and e.collision_free

    def test_collision_example(self):
        # elements {0,2,4,6,8,10}: 6 distinct out of a 4x2 grid
        e = SumEdge(2, 4, 4, 2)
        assert edge_cardinality(e) == 6 and not e.collision_free

    def test_trivial_first_ap(self):
        for d2, l2 in ((5, 4), (1, 9)):
            e = SumEdge(1, 1, d2, l2)
            assert edge_cardinality(e) == l2 and e.collision_free

    def test_oracle_equivalence_random(self):
        rng = random.Random(2024)
        for _ in range(2000):
            e = SumEdge(rng.randint(1, 100), rng.randint(1, 100),
                        rng.randint(1, 100), rng.randint(1, 100))
            oracle = len({j1 * e.d1 + j2 * e.d2
                          for j1 in range(e.l1) for j2 in range(e.l2)})
            assert edge_cardinality(e) == oracle
            assert e.collision_free == (oracle == e.l1 * e.l2)

    def test_hypothesis_implies_product(self):
        rng = random.Random(77)
        done = 0
        while done < 2000:
            e = SumEdge(rng.randint(1, 100), rng.randint(1, 100),
                        rng.randint(1, 10 ** 4), rng.randint(1, 100))
            if e.l1 * math.gcd(e.d1, e.d2) > e.d2:
                continue
            assert e.collision_free and edge_cardinality(e) == e.l1 * e.l2
            done += 1

    @settings(max_examples=500, deadline=None)
    @given(st.builds(SumEdge, *[st.integers(1, 40)] * 4))
    def test_staircase_split(self, e):
        els = np.array(element_set(e))
        assert edge_cardinality(e) == els.size
        # l1 > d2/g, which every collision needs
        if e.l1 * math.gcd(e.d1, e.d2) > e.d2:
            pieces = staircase_split(e)
            assert all(piece.collision_free for _, piece in pieces)
            joined = np.concatenate([o + np.array(element_set(piece)) for o, piece in pieces])
            # as many elements as E has, and the same set: disjoint pieces
            assert joined.size == els.size
            assert np.array_equal(np.sort(joined), els)


class TestSumEdgeValue:
    """SumEdge is an immutable value: the tests keep family edges in sets,
    a process pool must be able to pickle them, and invariant messages
    embed their repr."""

    def test_fields_are_read_only(self):
        e = SumEdge(2, 3, 3, 2)
        with pytest.raises(AttributeError):
            e.d1 = 5
        with pytest.raises(AttributeError):
            e.extra = 1
        assert e == SumEdge(2, 3, 3, 2)

    def test_pickle_round_trip(self):
        e = SumEdge(30, 40, 12, 9)
        again = pickle.loads(pickle.dumps(e))
        assert again == e and type(again) is SumEdge
        assert not again.collision_free and again.span == e.span

    def test_equal_edges_hash_equal(self):
        a, b = SumEdge(2, 3, 3, 2), SumEdge(d1=2, l1=3, d2=3, l2=2)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, SumEdge(3, 2, 2, 3)}) == 2

    def test_repr(self):
        assert repr(SumEdge(2, 3, 3, 2)) == "SumEdge(d1=2, l1=3, d2=3, l2=2)"

    @pytest.mark.parametrize("args", [(0, 1, 1, 1), (1, 0, 1, 1),
                                      (1, 1, 0, 1), (1, 1, 1, -2)])
    def test_positive_fields(self, args):
        with pytest.raises(ValueError, match="must be positive"):
            SumEdge(*args)


class TestColoring:
    def test_validation(self):
        with pytest.raises(ValueError):
            Coloring(3, [1, 0, -1])
        with pytest.raises(ValueError):
            Coloring(3, [1, 1])
        # values that an int8 cast would turn into +-1
        with pytest.raises(ValueError):
            Coloring(3, np.array([257, 255, 1]))
        with pytest.raises(ValueError):
            Coloring(2, np.array([1.7, -1.2]))
        assert Coloring(2, np.array([1.0, -1.0])).values.tolist() == [1, -1]

    def test_extension_by_zero(self):
        chi = Coloring.alternating(10)
        assert chi(0) == 0 and chi(11) == 0 and chi(-5) == 0
        assert chi(1) == 1 and chi(2) == -1

    def test_norm(self):
        chi = Coloring.random(50, seed=1)
        assert int((chi.values.astype(int) ** 2).sum()) == 50

    def test_json_round_trip(self):
        # the form `sumdisc disc` writes a witness coloring in
        chi = Coloring.random(17, seed=9)
        assert Coloring(17, json.loads(json.dumps(chi.values.tolist()))) == chi

    def test_edge_json_round_trip(self):
        # the form `sumdisc certify` writes the witness edge in
        cert = certify(Fraction(7, 9), 1200)
        rec = json.loads(json.dumps(cert.to_json_dict()))
        assert SumEdge(**rec["edge"]) == cert.edge


class TestColorValue:
    def test_all_plus_counts_survivors(self):
        chi = Coloring.all_plus(10)
        e = SumEdge(2, 3, 3, 2)  # elements {0,2,3,4,5,7}
        for a in range(-10, 12):
            expected = sum(1 for x in edge_elements_array(e).tolist()
                           if 1 <= a + x <= 10)
            assert color_value(chi, e, a) == expected

    def test_alternating_adjacent_pair(self):
        chi = Coloring(4, [1, -1, 1, -1])  # chi(x) = (-1)^(x+1)
        e = SumEdge(1, 2, 1, 1)  # elements {0, 1}
        assert color_value(chi, e, 1) == 0

    def test_parity_coloring_example(self):
        # +1 on odds, -1 on evens over [10]; translate by 1 of {0,2,3,4,5,7}
        chi = Coloring.alternating(10)
        assert color_value(chi, SumEdge(2, 3, 3, 2), 1) == 0

    def test_zero_outside_support(self):
        chi = Coloring.random(12, seed=3)
        e = SumEdge(2, 3, 3, 2)
        assert color_value(chi, e, -e.span - 1) == 0
        assert color_value(chi, e, chi.n + 1) == 0

    def test_translate_values_match_pointwise(self):
        chi = Coloring.random(20, seed=5)
        e = SumEdge(3, 3, 2, 4)
        vals = translate_values(chi, e)
        for i, a in enumerate(range(-e.span, chi.n + 1)):
            assert vals[i] == color_value(chi, e, a)

    def test_translation_equals_direct_convolution(self):
        # independent direct convolution of chi with the reflected indicator
        rng = random.Random(11)
        for n in (8, 33, 64):
            chi = Coloring.random(n, seed=rng.randrange(2 ** 31))
            e = SumEdge(rng.randint(1, 5), rng.randint(1, 5),
                        rng.randint(1, 5), rng.randint(1, 5))
            els = edge_elements_array(e).tolist()
            for a in range(-e.span - 2, n + 3):
                conv = sum(chi(z) for z in range(a, a + e.span + 1)
                           if z - a in set(els))
                assert color_value(chi, e, a) == conv

    @pytest.mark.parametrize("n, colliding", [(576, 0), (1024, 4)])
    def test_translate_values_match_element_loop(self, n, colliding):
        # every edge of the family against a plain loop over the edge's
        # elements; the first family with colliding edges is at n=700
        fam = build_family(FamilyConfig(n=n))
        edges = [fam.edge(i) for i in range(len(fam))]
        assert sum(not e.collision_free for e in edges) == colliding
        for chi in (Coloring.random(n, seed=n), Coloring.alternating(n)):
            for e in edges:
                assert np.array_equal(translate_values(chi, e),
                                      element_loop_translates(chi, e)), e


    @settings(max_examples=300, deadline=None)
    @given(e=st.builds(SumEdge, *[st.integers(1, 30)] * 4),
           n=st.integers(1, 200), seed=st.integers(0, 2 ** 31 - 1))
    def test_translate_values_property(self, e, n, seed):
        # the box filters, colliding edges (about 40% of these) included
        chi = Coloring.random(n, seed=seed)
        got = translate_values(chi, e)
        assert got.dtype == np.int64
        assert np.array_equal(got, element_loop_translates(chi, e)), e


def element_set(e):
    """The sumset's distinct elements, sorted, from a set of Python ints."""
    return sorted({j1 * e.d1 + j2 * e.d2 for j1 in range(e.l1) for j2 in range(e.l2)})


def element_loop_translates(chi, e):
    """Color values of the translates a + E, a in [-span, N], as a sum of
    one shifted copy of chi per element of E."""
    span = e.span
    ext = np.zeros(2 * span + chi.n + 1, dtype=np.int64)
    ext[span + 1: span + 1 + chi.n] = chi.values
    out = np.zeros(span + chi.n + 1, dtype=np.int64)
    for x in element_set(e):
        out += ext[x: x + span + chi.n + 1]
    return out


class TestExactCorrelation:
    KINDS = {"ones": Coloring.all_plus, "alt": Coloring.alternating,
             "block": Coloring.block,
             "random0": lambda n: Coloring.random(n, seed=0),
             "random1": lambda n: Coloring.random(n, seed=1)}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("n", [1, 2, 3, 576, 4096, 16384])
    def test_autocorrelation_matches_numpy(self, n, kind):
        v = self.KINDS[kind](n).values
        got = exact_autocorrelation(v)
        assert got.dtype == np.int64 and got.shape == (n,)
        # lags 0..n-1: the upper half of the full correlation
        assert np.array_equal(got, np.correlate(v.astype(np.int64),
                                                v.astype(np.int64), "full")[n - 1:])

    @pytest.mark.parametrize("n", [1, 7, 40, 193])
    def test_integer_vectors_match_numpy(self, n):
        # entries other than +-1, and no symmetry for the lags to hide in
        v = np.random.default_rng(n).integers(-3, 4, size=n)
        assert np.array_equal(exact_autocorrelation(v),
                              np.correlate(v, v, "full")[n - 1:])


def _set_edge_masks(n):
    """The enumeration as a set of Python ints: each template one int, each
    window that int shifted and cut to n bits (the oracle for the numpy
    batches of ``canonical_edge_masks``)."""
    full = (1 << n) - 1
    words = set()
    for d in range(1, n + 1):
        t = 0
        for s in range(0, n, d):
            t |= 1 << s
            words.update(t << a for a in range(n - s))
    for d1 in range(2, n + 1):
        for d2 in range(1, d1):
            # templates shifted up by n - 1: bit 0 of window k reads
            # position k - (n - 1)
            col = 1 << (n - 1)
            for l2 in range(2, n + 1):
                s2 = (l2 - 1) * d2
                col |= 1 << (n - 1 + s2)
                l1_lo = max(2, (s2 - (n - 1) + d1 - 1) // d1 + 1)
                l1_hi = min(n, (s2 + n - 1) // d1 + 1)
                if l1_lo > l1_hi:
                    continue
                t = 0
                for l1 in range(1, l1_hi + 1):
                    s1 = (l1 - 1) * d1
                    t |= col << s1
                    if l1 >= l1_lo:
                        k_lo, k_hi = (s2, s1 + n) if s1 <= s2 else (s1, s2 + n)
                        words.update((t >> k) & full for k in range(k_lo, k_hi))
    return np.array(sorted(words), dtype="<u8").view(np.uint8).reshape(-1, 8)


# VmHWM, the peak RSS of this process's own address space: Linux carries
# the forking process's high-water mark across exec into ru_maxrss, so
# under a large test runner ru_maxrss would read the runner's peak
ENUMERATION_RSS = """
import json, re, sys
from sumdisc.hypergraph import canonical_edge_masks
rows = len(canonical_edge_masks(64))
with open("/proc/self/status") as f:
    hwm_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB", f.read()).group(1))
json.dump({"rows": rows, "hwm_kb": hwm_kb}, sys.stdout)
"""


class TestEnumeration:
    # distinct-edge counts from the literal brute-force oracle above
    FROZEN_COUNTS = {1: 1, 2: 3, 3: 7, 4: 15, 5: 31, 6: 63, 7: 119, 8: 215,
                     12: 1369, 16: 5068}
    # SHA-256 of the enumeration's bytes: a change to the edge set, the
    # row order or the byte layout shows here
    FROZEN_SHA256 = {
        9: "238d1dc1ffcba8f8d9e984729139c291814f134636bddf53a43fce0ee906fd2d",
        16: "dcd0bd51b0e3f1ffe3c517529ab5e8e1ee6321f8b252df71866d10ff0da9bc0f",
        17: "5ee34fcf5fc22bc0d27764d02704c7ef24386babbf43443c8fe6cbea781af663",
        31: "d83887f96c131bb918ed937712794d78b0d637dc93b110faa1420ca436377eb1",
        32: "0fe3697d41ab7d6d8e2baf8b017c9358c712014f7fad05281075c1b519647f00",
        33: "0f5be342174d9ed9679d3f8bdeb6e0bc033e9fa51ce4846f3b092b0c837d12c8",
        # recorded from the set-of-ints enumeration that the numpy batches
        # replaced; n=64 puts vertex 64 in the top bit of the word
        40: "a7b289ddeb8030a4b1677e97a8a25f95857b73adf55838c67d906afe32a4c31b",
        48: "f847e54a3a18edc08e2c73059581632d89af2e80e0beba170df9f1bdff3d927e",
        64: "500eba71849784096920c06630a35ecfb83d78bc22b3a32f3bbdccf0c28c5232",
    }

    def test_tiny_examples(self, edge_sets):
        assert edge_sets(1) == [frozenset({1})]
        assert set(edge_sets(2)) == {
            frozenset({1}), frozenset({2}), frozenset({1, 2})}
        assert set(edge_sets(3)) == {
            frozenset(s) for s in
            ({1}, {2}, {3}, {1, 2}, {2, 3}, {1, 3}, {1, 2, 3})}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 11, 12])
    def test_matches_naive_definition(self, n, edge_sets):
        assert set(edge_sets(n)) == naive_hyperedges(n)

    @pytest.mark.parametrize("n", sorted(FROZEN_COUNTS))
    def test_frozen_counts(self, n):
        assert len(canonical_edge_masks(n)) == self.FROZEN_COUNTS[n]

    @pytest.mark.parametrize("n", sorted(FROZEN_SHA256))
    def test_frozen_bytes(self, n):
        masks = canonical_edge_masks(n)
        assert masks.dtype == np.uint8 and masks.shape[1] == 8
        assert hashlib.sha256(masks.tobytes()).hexdigest() == self.FROZEN_SHA256[n]

    @pytest.mark.parametrize("n", [*range(1, 34), 40])
    def test_matches_set_oracle(self, n):
        got = canonical_edge_masks(n)
        assert got.dtype == np.uint8
        assert got.tobytes() == _set_edge_masks(n).tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads VmHWM from /proc/self/status")
    def test_peak_rss_n64(self):
        # a fresh process, so that no earlier test's arrays count; the
        # set-of-ints enumeration peaked at about 213 MB, the numpy batches
        # at about 91 MB (2 cores, Python 3.11, numpy 2.4)
        src = str(Path(hypergraph.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        res = subprocess.run([sys.executable, "-c", ENUMERATION_RSS], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["rows"] == 2013798
        assert out["hwm_kb"] / 1024 < 128, out

    def test_deterministic(self):
        a = canonical_edge_masks(10)
        b = canonical_edge_masks(10)
        assert np.array_equal(a, b)

    def test_every_edge_is_a_window(self, edge_sets):
        # spot check: each enumerated set must be realizable as a window
        for s in edge_sets(5):
            assert s and min(s) >= 1 and max(s) <= 5

    def test_cap(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            canonical_edge_masks(0)
        with pytest.raises(CapExceeded):
            canonical_edge_masks(65)
        with pytest.raises(CapExceeded):
            canonical_edge_masks(256)


def _is_progression(s):
    z = sorted(s)
    return len({b - a for a, b in zip(z, z[1:])}) <= 1


class TestProgressionCount:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_enumeration(self, n, edge_sets):
        edges = edge_sets(n)
        assert count_progressions(n) == sum(map(_is_progression, edges))

    def test_lower_bound_on_distinct_edges(self):
        assert count_progressions(16) <= 5068
        assert count_progressions(32) <= 107189
        assert count_progressions(256) == 170700


class TestMaxEdgeImbalance:
    """The sweep against the packed-mask scan over all distinct edges."""

    # SHA-256 of repr() of the five (value, d1, l1, d2, l2, offset)
    # witnesses per n: a change to which window the sweep reports shows here
    WITNESS_SHA256 = {
        1: "9d8a286c7c67d8ae2c30d76ee3ce30aa811c9481675b9331feaff15ba4d33b3c",
        2: "c3c9218c606f671f5cb26ac45863e483d17b832d7232f54a48e7a44709417d18",
        3: "bafe30de89c0ad977387bde144a1ad7e72e3380a5fe4282ad4bb2e4336338c56",
        4: "912c07d9da1239b82ebf5dac25f0c780615be1b585aac5042f2276fe0ed0850c",
        5: "40814daa3d16f4ac219b2aba243e4dfaa1a422bf14a1983e30c3310edae1362e",
        6: "936fc5081c24c6aacd66181465069cdf63a2696d2a1b6074d22c20561e88acb9",
        7: "fb4c53b5b28670e417684e3177a5e6956b44aecd26cb39527294e658ee567562",
        8: "da64948222d4917f255901577c62db5c70c58474f2e80dc2771f7dc43623ec03",
        9: "c5672c544ea41441967cc3b839966996bb3273c342524485160d396b7e2ce49b",
        10: "8005d92665aa9270e84234a6c36aaead3babae2f0606ad04d526c2c455359deb",
        11: "a1de05ba1424902e4e7c0ba5ba1211d039d144921ad9af31f12846434e93510d",
        12: "da33f0939749752a803f0c68988995ec06317339b8a7809eb8b04f81d066b188",
        13: "b0cabb55d40f660541ea832a47e2ab773be280705e6461f79d3e7cfc618129d1",
        14: "f70490618b30fd3f293c8ce4e9dde6498d5e1d3439afd0cde0433d3ff0d6078e",
        15: "643656b98bc92c0fe9aede2e044ad0cf2ef7785996104f917c169fa1a069b612",
        16: "fc89e20f56ff0dea33f65b826081acc1c5a09f5c8ec4508f16f106945cc2a474",
        17: "e440ab4ad2bb32e0932dfd2bb68f2e1fed2d0ef68e27811d6cacc132041e620d",
        18: "d231d51b2dbb596155b09e62fe1d95d89a74bb1896c4b66e49cf683b88c2fdd0",
        19: "d632bdb3946696afc74b960ac9efbb23777f09a1a14fe7f5f60fb910867209f6",
        20: "5790b188f88b241142daf426fe950808eb934109c3b113040f086fa6c1cacc9b",
        21: "6383174295386a59d23299bd67f9eb4d5aa286ee186e25ec3cdc80ee3a35f0df",
        22: "c45af8242efaf7cad3e39986b405c05ed0a2efd11972a061ba559cf51eb65692",
        23: "a1c56bdedde1ea0e71885126301b483eed6fc1fd80fde4dfdd45db892d3421e1",
        24: "291e3bbab602be485b74931f78066dfe3638c2788e38ac860c859cbf72cd4814",
        32: "491205a224004553a8357784f12385ed397547c1637d8000cba1e182b02a4a87",
        48: "bb8489cd4c90c5c7f8c970b7c04c350b2e539ea7055a86516dd8bed6e4542602",
        64: "c52d0f6b0a4776c4137ba65aab006f1cfed3e6f5ce201057b50793e82b3a2a41",
    }

    @staticmethod
    def colorings(n):
        rng = np.random.default_rng(1000 + n)
        signs = [rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
                 for _ in range(3)]
        return [Coloring(n, s) for s in signs] + [
            Coloring.alternating(n), Coloring.block(n)]

    @pytest.mark.parametrize("n", list(range(1, 25)) + [32, 48, 64])
    def test_matches_mask_scan(self, n):
        packed, sizes = _packed_edges(n)
        witnesses = []
        for chi in self.colorings(n):
            expected, _ = _scan(packed, sizes, [_pack(chi.values[None])])
            value, window = max_edge_imbalance(chi)
            assert value == expected
            vertices = window_vertices(window, n)
            assert abs(sum(chi(z) for z in vertices)) == value
            assert abs(window.value) == value
            e = window.edge
            assert 1 <= min(e.d1, e.l1, e.d2, e.l2)
            assert max(e.d1, e.l1, e.d2, e.l2) <= n
            witnesses.append((value, e.d1, e.l1, e.d2, e.l2, window.offset))
        digest = hashlib.sha256(repr(witnesses).encode()).hexdigest()
        assert digest == self.WITNESS_SHA256[n]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 24).flatmap(
        lambda n: st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    def test_matches_mask_scan_any_coloring(self, signs):
        n = len(signs)
        chi = Coloring(n, signs)
        expected, _ = _scan(*_packed_edges(n), [_pack(chi.values[None])])
        value, window = max_edge_imbalance(chi)
        assert value == expected == abs(window.value)

    def test_stop_at(self):
        chi = Coloring.random(40, seed=3)
        value, _ = max_edge_imbalance(chi)
        assert max_edge_imbalance(chi, stop_at=value + 1)[0] == value
        early, window = max_edge_imbalance(chi, stop_at=value)
        assert window is None and early >= value

    def test_bad_window_raises(self, monkeypatch):
        # the witness checks are explicit raises, so they also run under -O
        chi = Coloring.random(20, seed=5)
        monkeypatch.setattr(hypergraph, "_trim",
                            lambda e, offset, n: (SumEdge(1, 1, 1, 1), n + 1))
        with pytest.raises(InternalInvariantViolation, match="sweep-window-bounds"):
            max_edge_imbalance(chi)
        monkeypatch.setattr(hypergraph, "_trim",
                            lambda e, offset, n: (SumEdge(1, 1, 1, 1), 1))
        with pytest.raises(InternalInvariantViolation, match="sweep-witness-rescore"):
            max_edge_imbalance(chi)
