import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from sumdisc import family
from sumdisc.family import (FamilyConfig, build_family, e1_edge, e2_edge,
                            e3_edge, family_stats, in_m_interval, kbar,
                            length1_at_scale, length2_at_scale, m_interval,
                            m_sets)
from sumdisc.hypergraph import SumEdge, edge_cardinality
from sumdisc.numtheory import InternalInvariantViolation, totatives


def kbar_loop(n, d1):
    """The doubling loop kbar replaced."""
    k = 0
    while ((d1 << (k + 1)) ** 2) <= n:
        k += 1
    return k


def in_interval_by_squaring(n, d1, k, d2):
    """The squaring test in_m_interval replaced."""
    if d2 * d2 <= (4 ** k) * n:
        return False
    rest = d2 - (4 ** k) * d1
    return rest <= 0 or rest * rest < (4 ** (k + 1)) * n


def m_set_range(n, d1, b, k):
    """The range form m_sets replaced: m_interval's integers from the first
    one congruent to b, in steps of 4^k * d1."""
    step = (4 ** k) * d1
    lo, hi = m_interval(n, d1, k)
    return tuple(range(lo + (b - lo) % step, hi + 1, step))


def m_set_loop(n, d1, b, k):
    """The member-by-member walk the range form replaced."""
    step = (4 ** k) * d1
    lo = math.isqrt((4 ** k) * n) + 1
    members = []
    d2 = lo + ((b - lo) % step)
    while True:
        rest = d2 - step
        if rest > 0 and rest * rest >= (4 ** (k + 1)) * n:
            break
        members.append(d2)
        d2 += step
    return tuple(members)


@st.composite
def scale_case(draw, max_n):
    """(n, d1, k) with n <= max_n, d1 <= sqrt(n), k <= kbar(n, d1); n is
    drawn uniformly or next to a square (2^j * d)^2, where kbar steps."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=max_n))
    else:
        d = draw(st.integers(min_value=1, max_value=math.isqrt(max_n)))
        top = ((max_n // (d * d)).bit_length() - 1) // 2  # 4^top * d^2 <= max_n
        j = draw(st.integers(min_value=0, max_value=top))
        n = min(max_n, max(1, (d << j) ** 2 + draw(st.integers(-1, 1))))
    d1 = draw(st.integers(min_value=1, max_value=math.isqrt(n)))
    k = draw(st.integers(min_value=0, max_value=kbar_loop(n, d1)))
    return n, d1, k


def loop_family(n):
    """The per-edge loops build_family replaced: every edge as a SumEdge in
    family order, and the e3 edges' k and b."""
    edges = [e1_edge(n, d1) for d1 in range(1, 25)]
    edges += [e2_edge(n, d1, d2)
              for d1 in range(25, math.isqrt(n) + 1) for d2 in range(1, d1)]
    ks, bs = [], []
    for d1 in range(1, math.isqrt(n) + 1):
        for k in range(0, kbar(n, d1) + 1):
            for b in totatives(d1):
                for d2 in m_set_range(n, d1, b, k):
                    edges.append(e3_edge(n, d1, k, d2))
                    ks.append(k)
                    bs.append(b)
    return edges, ks, bs


def m_sets_of(n, d1, k):
    """m_sets with the totatives of d1 passed in, as build_family does."""
    return m_sets(n, d1, k, np.array(totatives(d1), dtype=np.int64))


def classes(n, d1, k):
    """m_sets as a list of (b, d2) pairs."""
    return list(zip(*(col.tolist() for col in m_sets_of(n, d1, k))))


def class_members(n, d1, k, b):
    return tuple(d2 for cls, d2 in classes(n, d1, k) if cls == b)


class TestMSet:
    def test_full_interval_at_unit_difference(self):
        # d1=1, k=0, n=100: all integers in the open interval (10, 21)
        assert classes(100, 1, 0) == [(1, d2) for d2 in range(11, 21)]

    def test_congruence_class(self):
        # d1=10, k=0, n=100: integers = 1 mod 10 in (10, 30)
        assert class_members(100, 10, 0, 1) == (11, 21)
        assert classes(100, 10, 0) == [(1, 11), (1, 21), (3, 13), (3, 23),
                                       (7, 17), (7, 27), (9, 19), (9, 29)]

    def test_members_match_loop_exhaustive(self):
        for n in range(1, 400):
            for d1 in range(1, math.isqrt(n) + 1):
                for k in range(kbar(n, d1) + 1):
                    got = classes(n, d1, k)
                    assert got == [(b, d2) for b in totatives(d1)
                                   for d2 in m_set_loop(n, d1, b, k)], (n, d1, k)

    @settings(max_examples=200, deadline=None)
    @given(case=scale_case(2 ** 24), data=st.data())
    def test_members_match_loop(self, case, data):
        # every class against the range form, and one against the member walk
        n, d1, k = case
        b, d2 = m_sets_of(n, d1, k)
        assert b.dtype == d2.dtype == np.int64
        got = list(zip(b.tolist(), d2.tolist()))
        assert got == [(b, d2) for b in totatives(d1) for d2 in m_set_range(n, d1, b, k)]
        b = data.draw(st.sampled_from(totatives(d1)))
        assert class_members(n, d1, k, b) == m_set_loop(n, d1, b, k)

    def test_members_match_interval_scan(self):
        # oracle: scan every integer and test congruence + open interval
        for n in (100, 1000):
            for d1 in range(1, math.isqrt(n) + 1):
                for k in range(kbar(n, d1) + 1):
                    step = (4 ** k) * d1
                    for b in totatives(d1):
                        got = class_members(n, d1, k, b)
                        lo = (2 ** k) * math.sqrt(n)
                        hi = (2 ** (k + 1)) * math.sqrt(n) + step
                        expected = tuple(
                            d2 for d2 in range(1, int(hi) + 2)
                            if d2 % step == b % step and lo < d2 < hi)
                        assert got == expected, (n, d1, b, k)

    def test_bad_k(self):
        with pytest.raises(ValueError, match="outside"):
            m_sets_of(100, 1, kbar(100, 1) + 1)
        with pytest.raises(ValueError, match="exceeds"):
            m_sets_of(100, 11, 0)

    def test_classes_are_totatives(self):
        # every class is a totative of d1, each class is nonempty, and the
        # classes come in increasing order
        for n in (100, 1000):
            for d1 in range(1, math.isqrt(n) + 1):
                for k in range(kbar(n, d1) + 1):
                    b = m_sets_of(n, d1, k)[0].tolist()
                    assert sorted(set(b)) == totatives(d1) and b == sorted(b)

    def test_step_and_count_bounds(self):
        # consecutive members differ by exactly 2^(2k)*d1, the step never
        # exceeds 2^k*sqrt(n), and |union over b| <= 3*2^-k*sqrt(n)
        for n in (100, 1000, 10000):
            for d1 in range(1, math.isqrt(n) + 1):
                for k in range(kbar(n, d1) + 1):
                    step = (4 ** k) * d1
                    assert ((1 << k) * d1) ** 2 <= n  # step <= 2^k sqrt(n)
                    for b in totatives(d1):
                        members = class_members(n, d1, k, b)
                        for u, v in zip(members, members[1:]):
                            assert v - u == step
                    union_count = len(classes(n, d1, k))
                    assert (union_count * (1 << k)) ** 2 <= 9 * n

    def test_oversized_class_raises(self, monkeypatch):
        # at n=36, d1=3, k=0 the bound is 6 members per class; the interval
        # [2, 20] gives class 1 six members and class 2 seven
        monkeypatch.setattr(family, "m_interval", lambda n, d1, k: (2, 20))
        with pytest.raises(InternalInvariantViolation, match="m-set-size") as err:
            m_sets_of(36, 3, 0)
        assert "M(2,0) for delta1=3, n=36 has 7 members" in str(err.value)


class TestScales:
    def test_kbar_is_log2(self):
        for n in (100, 1024, 4096, 65536):
            for d1 in range(1, math.isqrt(n) + 1):
                k = kbar(n, d1)
                assert (2 ** k * d1) ** 2 <= n < (2 ** (k + 1) * d1) ** 2

    @settings(max_examples=300, deadline=None)
    @given(case=scale_case(2 ** 62))
    def test_kbar_matches_doubling_loop(self, case):
        n, d1, _ = case
        k = kbar(n, d1)
        assert (2 ** k * d1) ** 2 <= n < (2 ** (k + 1) * d1) ** 2
        assert k == kbar_loop(n, d1)

    @settings(max_examples=300, deadline=None)
    @given(case=scale_case(2 ** 62))
    def test_interval_ends_match_squaring(self, case):
        # lo and hi are the first and last integers in the interval
        n, d1, k = case
        lo, hi = m_interval(n, d1, k)
        for d2, inside in ((lo - 1, False), (lo, True), (hi, True), (hi + 1, False)):
            assert in_m_interval(n, d1, k, d2) == inside
            assert in_interval_by_squaring(n, d1, k, d2) == inside

    def test_lengths_match_float_ceil(self):
        # safe float cross-check away from representability issues
        for n in (100, 1024, 5000, 65536):
            for k in range(0, kbar(n, 1) + 1):
                l1 = length1_at_scale(n, k)
                l2 = length2_at_scale(n, k)
                assert l1 == math.ceil((2 ** k) * math.sqrt(n) / 12) or \
                    abs(l1 - (2 ** k) * math.sqrt(n) / 12) < 1
                assert l2 == math.ceil(math.sqrt(n) / (12 * 2 ** k)) or \
                    abs(l2 - math.sqrt(n) / (12 * 2 ** k)) < 1

    def test_interval_membership_matches_floats(self):
        for n in (99, 100, 1024):
            for d1 in (1, 3, 7):
                if d1 * d1 > n:
                    continue
                for k in range(kbar(n, d1) + 1):
                    lo = (2 ** k) * math.sqrt(n)
                    hi = (2 ** (k + 1)) * math.sqrt(n) + (4 ** k) * d1
                    for d2 in range(1, int(hi) + 3):
                        if abs(d2 - lo) > 1e-6 and abs(d2 - hi) > 1e-6:
                            assert in_m_interval(n, d1, k, d2) == (lo < d2 < hi)


def rows(fam, sub=None):
    """The family's edges as SumEdges, all or one sub-family's."""
    c1, c2, _ = fam.counts
    span = {None: range(len(fam)), "e1": range(c1), "e2": range(c1, c1 + c2),
            "e3": range(c1 + c2, len(fam))}[sub]
    return [fam.edge(i) for i in span]


class TestBuildFamily:
    # counts from running the construction; the 6n bound on e3 always holds
    FROZEN = {100: (24, 0, 126), 576: (24, 0, 707),
              1024: (24, 220, 1256), 4096: (24, 1740, 5005)}

    @pytest.mark.parametrize("n", sorted(FROZEN))
    def test_frozen_counts(self, n):
        fam = build_family(FamilyConfig(n=n))
        assert fam.counts == self.FROZEN[n]

    def test_table_matches_loop_small_n(self):
        for n in range(1, 131):
            self.test_table_matches_loop(n)

    @pytest.mark.parametrize("n", [576, 4096, 16384])
    def test_table_matches_loop(self, n):
        fam = build_family(FamilyConfig(n=n))
        edges, ks, bs = loop_family(n)
        assert fam.edges.dtype == fam.k.dtype == fam.b.dtype == np.int64
        assert fam.edges.shape == (len(edges), 4)
        assert fam.edges.tolist() == [list(e) for e in edges]
        assert fam.k.tolist() == ks and fam.b.tolist() == bs
        assert fam.counts == (24, len(edges) - 24 - len(ks), len(ks))
        assert all(type(c) is int for c in fam.counts)

    def test_table_is_read_only(self):
        fam = build_family(FamilyConfig(n=100))
        for col in (fam.edges, fam.k, fam.b):
            with pytest.raises(ValueError):
                col[0] = 1

    def test_small_n_forced_counts(self):
        c1, c2, c3 = build_family(FamilyConfig(n=100)).counts
        assert c1 == 24
        assert c2 == 0  # range [25, 10] is empty
        assert c3 <= 600

    def test_count_bounds(self):
        for n in (100, 576, 1024, 10000):
            fam = build_family(FamilyConfig(n=n))
            c1, c2, c3 = fam.counts
            assert c3 <= 6 * n
            assert c1 + c2 < n
            assert len(fam) == c1 + c2 + c3 <= 7 * n

    def test_e1_e2_shapes(self):
        n = 1024
        fam = build_family(FamilyConfig(n=n))
        for e in rows(fam, "e1"):
            assert 1 <= e.d1 <= 24 and e.d2 == 1 and e.l2 == 1
            assert e.l1 == -(-n // (6 * e.d1))
        for e in rows(fam, "e2"):
            assert 25 <= e.d1 <= math.isqrt(n)
            assert 1 <= e.d2 <= e.d1 - 1
            assert e.l1 == -(-n // (12 * e.d1))
            assert e.l2 == -(-(e.d1 - 1) // 12)

    def test_e3_provenance_and_coprimality(self):
        n = 1024
        fam = build_family(FamilyConfig(n=n))
        for e, k, b in zip(rows(fam, "e3"), fam.k.tolist(), fam.b.tolist()):
            assert math.gcd(e.d1, e.d2) == 1
            assert math.gcd(b, e.d1) == 1 and 1 <= b <= e.d1
            assert 0 <= k <= kbar(n, e.d1)
            assert e.l1 == length1_at_scale(n, k)
            assert e.l2 == length2_at_scale(n, k)
            assert e.d2 % ((4 ** k) * e.d1) == b % ((4 ** k) * e.d1)

    def test_containment(self):
        for n in (1, 24, 100, 576, 1024, 4096):
            fam = build_family(FamilyConfig(n=n))
            for e in rows(fam):
                assert e.span <= n - 1

    @pytest.mark.parametrize("n", [24, 1024])
    def test_containment_violation_raises(self, n, monkeypatch):
        # an edge that escapes [0, n-1] is a construction bug at every n;
        # the message names the widest edge, here the e1 edge of d1 = 7
        shape = family._e1_shape
        monkeypatch.setattr(family, "_e1_shape", lambda n, d1: (
            d1, shape(n, d1)[1] + n * (d1 == 7), 1, 1))
        with pytest.raises(InternalInvariantViolation, match="containment") as err:
            build_family(FamilyConfig(n=n))
        assert err.value.module == "family"
        assert f"edge {SumEdge(7, shape(n, 7)[1] + n, 1, 1)} spans" in str(err.value)

    def test_totatives_once_per_d1(self, monkeypatch):
        # every scale of one d1 shares its totatives: isqrt(n) calls, not
        # one per (d1, k) (kbar(4096, 1) = 6)
        calls = []
        monkeypatch.setattr(family, "totatives",
                            lambda d: calls.append(d) or totatives(d))
        build_family(FamilyConfig(n=4096))
        assert calls == list(range(1, 65))

    def test_degenerate_n1(self):
        fam = build_family(FamilyConfig(n=1))
        # every edge is the single point {0}
        assert all(e.span == 0 for e in rows(fam))

    def test_sub_family_lookup(self):
        # the rows of each sub-family are its edges, in construction order,
        # and edge(i) builds them from Python ints
        n = 1024
        fam = build_family(FamilyConfig(n=n))
        e1, e2, e3 = rows(fam, "e1"), rows(fam, "e2"), rows(fam, "e3")
        assert e1[0] == e1_edge(n, 1) and e1[-1] == e1_edge(n, 24)
        assert e2[0] == e2_edge(n, 25, 1) and e2[-1] == e2_edge(n, 32, 31)
        assert e3[0] == e3_edge(n, 1, 0, m_interval(n, 1, 0)[0])
        assert not set(e1) & set(e2) and not set(e3) & set(e1 + e2)
        assert all(type(x) is int for e in (e1[0], e2[0], e3[0]) for x in e)
        assert SumEdge(999, 999, 999, 999) not in rows(fam)


class TestStats:
    def test_basic_fields(self):
        fam = build_family(FamilyConfig(n=100))
        st = family_stats(fam)
        assert (st.count_e1, st.count_e2, st.count_e3) == (24, 0, 126)
        assert st.total == 150
        assert all(type(v) is int for v in st.__dict__.values() if v is not None)

    def test_max_element_in_range(self):
        fam = build_family(FamilyConfig(n=4096))
        st = family_stats(fam)
        assert st.max_element == max(e.span for e in rows(fam)) <= 4095

    def test_minimum_sizes_where_injective(self):
        n = 4096
        fam = build_family(FamilyConfig(n=n))
        st = family_stats(fam)
        for e in rows(fam, "e2"):
            if e.collision_free:
                assert 150 * edge_cardinality(e) >= n
        for e in rows(fam, "e3"):
            assert e.collision_free
            assert 144 * edge_cardinality(e) >= n
        assert st.min_size_e2 == min(edge_cardinality(e) for e in rows(fam, "e2"))
        assert st.min_size_e3 == min(edge_cardinality(e) for e in rows(fam, "e3"))

    def test_only_colliding_rows_become_edges(self, monkeypatch):
        # the sizes of the 4 colliding e2 edges at n=1024 are the only ones
        # taken from SumEdges
        fam = build_family(FamilyConfig(n=1024))
        calls, edge = [], family.FamilyE0.edge
        monkeypatch.setattr(family.FamilyE0, "edge",
                            lambda self, i: calls.append(i) or edge(self, i))
        family_stats(fam)
        assert len(calls) == 4
        assert not any(edge(fam, i).collision_free for i in calls)

    def test_degenerate_stats(self):
        st = family_stats(build_family(FamilyConfig(n=1)))
        assert st.count_e1 == 24  # 24 parameter records, all the point {0}


class TestFamilyChecks:
    """Each count and size check fires on a family broken by one formula,
    and names the offending edge (rows are offset by c1 in e2 and c1 + c2
    in e3)."""

    @staticmethod
    def repeat_m_sets(monkeypatch, times):
        classes_at = family.m_sets
        monkeypatch.setattr(family, "m_sets", lambda *args: tuple(
            np.tile(col, times) for col in classes_at(*args)))

    def test_count_total(self, monkeypatch):
        # |e3| = 6 * 126 at n=100 puts the family (780) above 7n
        self.repeat_m_sets(monkeypatch, 6)
        with pytest.raises(InternalInvariantViolation) as err:
            build_family(FamilyConfig(n=100))
        assert err.value.invariant == "count-total"
        assert "family size 780 > 7n at n=100" in str(err.value)

    def test_count_e3(self, monkeypatch):
        # |e3| = 5 * 126 is above 6n, and the family (654) is within 7n
        self.repeat_m_sets(monkeypatch, 5)
        with pytest.raises(InternalInvariantViolation) as err:
            build_family(FamilyConfig(n=100))
        assert err.value.invariant == "count-e3"
        assert "|e3|=630 > 6n at n=100" in str(err.value)

    def test_count_e1_e2(self, monkeypatch):
        # below n = 25 the 24 e1 edges alone reach n; the other bounds hold
        # at n=24 (the family has 51 edges, e3 27)
        monkeypatch.setattr(family, "COUNT_CHECK_MIN_N", 1)
        with pytest.raises(InternalInvariantViolation) as err:
            build_family(FamilyConfig(n=24))
        assert err.value.invariant == "count-e1-e2"
        assert "|e1|+|e2|=24 >= n at n=24" in str(err.value)

    def test_e2_size(self, monkeypatch):
        # one fewer d2 step on the e2 edges of d1 = 30: the first of them,
        # (30, 12, 1, 2), is collision-free with 24 < 4096/150 elements
        shape = family._e2_shape
        monkeypatch.setattr(family, "_e2_shape", lambda n, d1, d2: (
            *shape(n, d1, d2)[:3], shape(n, d1, d2)[3] - (d1 == 30)))
        fam = build_family(FamilyConfig(n=4096))
        with pytest.raises(InternalInvariantViolation) as err:
            family_stats(fam)
        assert err.value.invariant == "e2-size"
        assert f"e2 edge {SumEdge(30, 12, 1, 2)} has 24 < n/150" in str(err.value)

    def test_e3_injective(self, monkeypatch):
        # the scale-0 interval of d1 = 3 moved down to [2, 10]: its first
        # e3 edge, (3, 6, 4, 6), has l1 > d2 and l2 > d1, so it collides
        interval = family.m_interval
        monkeypatch.setattr(family, "m_interval", lambda n, d1, k: (
            (2, 10) if (d1, k) == (3, 0) else interval(n, d1, k)))
        fam = build_family(FamilyConfig(n=4096))
        with pytest.raises(InternalInvariantViolation) as err:
            family_stats(fam)
        assert err.value.invariant == "e3-injective"
        assert f"e3 edge {SumEdge(3, 6, 4, 6)} has colliding" in str(err.value)

    def test_e3_size(self, monkeypatch):
        # second length 1 at scale 2: the first such edge, (1, 22, 257, 1),
        # has 22 < 4096/144 elements
        length = family.length2_at_scale
        monkeypatch.setattr(family, "length2_at_scale",
                            lambda n, k: 1 if k == 2 else length(n, k))
        fam = build_family(FamilyConfig(n=4096))
        with pytest.raises(InternalInvariantViolation) as err:
            family_stats(fam)
        assert err.value.invariant == "e3-size"
        assert f"e3 edge {SumEdge(1, 22, 257, 1)} has 22 < n/144" in str(err.value)
