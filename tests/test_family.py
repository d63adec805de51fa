import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdisc import family
from sumdisc.family import (BadK, FamilyConfig, build_family,
                            build_m_set, family_stats, in_m_interval, kbar,
                            length1_at_scale, length2_at_scale, m_interval)
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


def m_set_loop(n, d1, b, k):
    """The member-by-member walk build_m_set replaced."""
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


class TestMSet:
    def test_full_interval_at_unit_difference(self):
        # d1=1, k=0, n=100: all integers in the open interval (10, 21)
        assert build_m_set(100, 1, 1, 0) == tuple(range(11, 21))

    def test_congruence_class(self):
        # d1=10, k=0, n=100: integers = 1 mod 10 in (10, 30)
        assert build_m_set(100, 10, 1, 0) == (11, 21)

    def test_members_match_loop_exhaustive(self):
        for n in range(1, 400):
            for d1 in range(1, math.isqrt(n) + 1):
                for k in range(kbar(n, d1) + 1):
                    for b in totatives(d1):
                        assert build_m_set(n, d1, b, k) == m_set_loop(n, d1, b, k)

    @settings(max_examples=200, deadline=None)
    @given(case=scale_case(2 ** 24), data=st.data())
    def test_members_match_loop(self, case, data):
        n, d1, k = case
        b = data.draw(st.sampled_from(totatives(d1)))
        assert build_m_set(n, d1, b, k) == m_set_loop(n, d1, b, k)

    def test_members_match_interval_scan(self):
        # oracle: scan every integer and test congruence + open interval
        for n in (100, 1000):
            for d1 in range(1, math.isqrt(n) + 1):
                for k in range(kbar(n, d1) + 1):
                    step = (4 ** k) * d1
                    for b in totatives(d1):
                        got = build_m_set(n, d1, b, k)
                        lo = (2 ** k) * math.sqrt(n)
                        hi = (2 ** (k + 1)) * math.sqrt(n) + step
                        expected = tuple(
                            d2 for d2 in range(1, int(hi) + 2)
                            if d2 % step == b % step and lo < d2 < hi)
                        assert got == expected, (n, d1, b, k)

    def test_bad_k(self):
        with pytest.raises(BadK):
            build_m_set(100, 1, 1, kbar(100, 1) + 1)

    def test_invalid_totative(self):
        with pytest.raises(ValueError):
            build_m_set(100, 10, 4, 0)

    def test_step_and_count_bounds(self):
        # consecutive members differ by exactly 2^(2k)*d1, the step never
        # exceeds 2^k*sqrt(n), and |union over b| <= 3*2^-k*sqrt(n)
        for n in (100, 1000, 10000):
            for d1 in range(1, math.isqrt(n) + 1):
                for k in range(kbar(n, d1) + 1):
                    step = (4 ** k) * d1
                    assert ((1 << k) * d1) ** 2 <= n  # step <= 2^k sqrt(n)
                    union_count = 0
                    for b in totatives(d1):
                        members = build_m_set(n, d1, b, k)
                        union_count += len(members)
                        for u, v in zip(members, members[1:]):
                            assert v - u == step
                    assert (union_count * (1 << k)) ** 2 <= 9 * n


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


class TestBuildFamily:
    # counts from running the construction; the 6n bound on e3 always holds
    FROZEN = {100: (24, 0, 126), 576: (24, 0, 707),
              1024: (24, 220, 1256), 4096: (24, 1740, 5005)}

    @pytest.mark.parametrize("n", sorted(FROZEN))
    def test_frozen_counts(self, n):
        fam = build_family(FamilyConfig(n=n))
        assert fam.counts == self.FROZEN[n]

    def test_small_n_forced_counts(self):
        fam = build_family(FamilyConfig(n=100))
        assert len(fam.e1) == 24
        assert len(fam.e2) == 0  # range [25, 10] is empty
        assert len(fam.e3) <= 600

    def test_count_bounds(self):
        for n in (100, 576, 1024, 10000):
            fam = build_family(FamilyConfig(n=n))
            assert len(fam.e3) <= 6 * n
            assert len(fam.e1) + len(fam.e2) < n
            assert len(fam) <= 7 * n

    def test_e1_e2_shapes(self):
        n = 1024
        fam = build_family(FamilyConfig(n=n))
        for e in fam.e1:
            assert 1 <= e.d1 <= 24 and e.d2 == 1 and e.l2 == 1
            assert e.l1 == -(-n // (6 * e.d1))
        for e in fam.e2:
            assert 25 <= e.d1 <= math.isqrt(n)
            assert 1 <= e.d2 <= e.d1 - 1
            assert e.l1 == -(-n // (12 * e.d1))
            assert e.l2 == -(-(e.d1 - 1) // 12)

    def test_e3_provenance_and_coprimality(self):
        n = 1024
        fam = build_family(FamilyConfig(n=n))
        for e, prov in fam.e3:
            assert e.d1 == prov.delta1
            assert math.gcd(e.d1, e.d2) == 1
            assert math.gcd(prov.b, e.d1) == 1
            assert 0 <= prov.k <= kbar(n, e.d1)
            assert e.l1 == length1_at_scale(n, prov.k)
            assert e.l2 == length2_at_scale(n, prov.k)
            assert e.d2 % ((4 ** prov.k) * e.d1) == prov.b % ((4 ** prov.k) * e.d1)

    def test_containment(self):
        for n in (1, 24, 100, 576, 1024, 4096):
            fam = build_family(FamilyConfig(n=n))
            for e in fam.all_edges():
                assert e.span <= n - 1

    @pytest.mark.parametrize("n", [24, 1024])
    def test_containment_violation_raises(self, n, monkeypatch):
        # an edge that escapes [0, n-1] is a construction bug at every n
        monkeypatch.setattr(family, "_e1_edges", lambda n: [SumEdge(n, 2, 1, 1)])
        with pytest.raises(InternalInvariantViolation, match="containment") as err:
            build_family(FamilyConfig(n=n))
        assert err.value.module == "family"

    def test_degenerate_n1(self):
        fam = build_family(FamilyConfig(n=1))
        # every edge is the single point {0}
        assert all(e.span == 0 for e in fam.all_edges())

    def test_sub_family_lookup(self):
        fam = build_family(FamilyConfig(n=1024))
        e3 = [e for e, _ in fam.e3]
        assert fam.e1[0] in fam.e1 and fam.e1[0] not in fam.e2 + e3
        assert fam.e2[0] in fam.e2 and fam.e2[0] not in fam.e1 + e3
        assert e3[0] not in fam.e1 + fam.e2
        assert SumEdge(999, 999, 999, 999) not in list(fam.all_edges())


class TestStats:
    def test_basic_fields(self):
        fam = build_family(FamilyConfig(n=100))
        st = family_stats(fam)
        assert (st.count_e1, st.count_e2, st.count_e3) == (24, 0, 126)
        assert st.total == 150

    def test_max_element_in_range(self):
        fam = build_family(FamilyConfig(n=4096))
        st = family_stats(fam)
        assert st.max_element <= 4095

    def test_minimum_sizes_where_injective(self):
        n = 4096
        fam = build_family(FamilyConfig(n=n))
        for e in fam.e2:
            if e.collision_free:
                assert 150 * edge_cardinality(e) >= n
        for e, _ in fam.e3:
            assert e.collision_free
            assert 144 * edge_cardinality(e) >= n

    def test_degenerate_stats(self):
        st = family_stats(build_family(FamilyConfig(n=1)))
        assert st.count_e1 == 24  # 24 parameter records, all the point {0}
