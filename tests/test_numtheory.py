import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdisc.certifier import select_delta1
from sumdisc.numtheory import (dirichlet_approx, first_convergent, isqrt_ceil,
                               nearest_int, totatives)


class TestDirichlet:
    def brute_witness(self, alpha, k):
        # independent oracle: exhaustive scan in exact rationals
        for delta in range(1, k + 1):
            best = min((abs(delta * alpha - a), a)
                       for a in (math.floor(delta * alpha),
                                 math.floor(delta * alpha) + 1))
            if best[0] < Fraction(1, k):
                return delta, best[1]
        raise AssertionError("pigeonhole violated")

    @pytest.mark.parametrize("alpha, k, expected", [
        (Fraction(1, 3), 3, (3, 1)),
        (Fraction(0), 5, (1, 0)),
        # nearest multiple: |2*0.4142135 - 1| = 0.1715730 < 1/5
        (Fraction(4142135, 10 ** 7), 5, (2, 1)),
    ])
    def test_examples(self, alpha, k, expected):
        assert dirichlet_approx(alpha, k) == expected == self.brute_witness(alpha, k)

    def test_deterministic(self):
        alpha = Fraction(355, 1130)
        assert dirichlet_approx(alpha, 50) == dirichlet_approx(alpha, 50)

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(min_value=0, max_value=10 ** 6 - 1),
           q=st.integers(min_value=1, max_value=10 ** 6),
           k=st.integers(min_value=1, max_value=10 ** 3))
    def test_error_below_threshold(self, p, q, k):
        alpha = Fraction(p % q, q)
        delta, a = dirichlet_approx(alpha, k)
        assert 1 <= delta <= k
        assert abs(delta * alpha - a) < Fraction(1, k)

    def test_smallest_delta_wins(self):
        rng = random.Random(99)
        for _ in range(200):
            q = rng.randint(1, 5000)
            alpha = Fraction(rng.randint(0, q - 1), q)
            k = rng.randint(1, 60)
            assert dirichlet_approx(alpha, k) == self.brute_witness(alpha, k)


def scan_rows(p, q, limit):
    """(d, a, r) for every d in [1, limit]: a = nearest_int(d*p, q) and
    r = |d*p - a*q|, in scan order."""
    rows = []
    for d in range(1, limit + 1):
        t = d * p
        a = nearest_int(t, q)
        rows.append((d, a, abs(t - a * q)))
    return rows


def scan_first(rows, limit, accept):
    """Linear-scan oracle for first_convergent: the first of the rows with
    d <= limit whose r passes."""
    for row in rows:
        if row[0] > limit:
            break
        if accept(row[2]):
            return row
    return None


def prefix_minima(rows):
    """The rows whose r is below every earlier r.  Every row before the
    first passing one has a larger r, so the scan over these rows alone
    returns the same row as the scan over all of them."""
    out = []
    for row in rows:
        if not out or row[2] < out[-1][2]:
            out.append(row)
    return out


def walk_hits(p, q):
    """Every convergent of p/q that first_convergent returns, in order:
    each call asks for an error below the last one's, so the walk stops at
    the next convergent with a smaller error, down to the last (r == 0).
    Each hit is checked against its definition by one direct product."""
    hits = [first_convergent(p, q, q, lambda r: True)]
    while hits[-1][2]:
        last = hits[-1][2]
        hits.append(first_convergent(p, q, q, lambda r: r < last))
    for d, a, r in hits:
        assert a == nearest_int(d * p, q)
        assert r == abs(d * p - a * q)
    return hits


def scan_select_delta1(alpha, n, rows=None):
    """The linear scan select_delta1 replaced: d up to isqrt(n)."""
    p, q = alpha.numerator, alpha.denominator
    lim = math.isqrt(n)
    rows = scan_rows(p, q, lim) if rows is None else rows
    d, a, _ = scan_first(rows, lim, lambda r: n * r * r < q * q)
    g = math.gcd(a, d)
    return d // g, a // g


def scan_dirichlet(alpha, k, rows=None):
    """The linear scan dirichlet_approx replaced: d up to k."""
    p, q = alpha.numerator, alpha.denominator
    rows = scan_rows(p, q, k) if rows is None else rows
    d, a, _ = scan_first(rows, k, lambda r: r * k < q)
    return d, a


class TestConvergentWalk:
    def test_exhaustive_small_denominators(self):
        # every reduced p/q with q <= 150 and every limit up to q + 1; past
        # that only r == 0 passes, so the answer no longer changes.  Both
        # ends of each isqrt(n) == L range pin the select_delta1 threshold.
        for q in range(1, 151):
            for p in range(q):
                if math.gcd(p, q) != 1:
                    continue
                alpha = Fraction(p, q)
                rows = prefix_minima(scan_rows(p, q, q + 1))
                lims = range(1, q + 2)
                ns = [n for lim in lims for n in (lim * lim, (lim + 1) ** 2 - 1)]
                assert [dirichlet_approx(alpha, k) for k in lims] == \
                    [scan_dirichlet(alpha, k, rows) for k in lims]
                got = [select_delta1(alpha, n) for n in ns]
                assert got == [scan_select_delta1(alpha, n, rows) for n in ns]
                # reduced without a gcd division
                assert all(math.gcd(d1, a1) == 1 for d1, a1 in got)
                # the walk's (d, a, r) against the scan's rows, whose a and
                # r come from nearest_int and a product
                hits = walk_hits(p, q)
                assert hits == [scan_first(rows, q, lambda r, h=h: r < h[2])
                                for h in [(0, 0, q)] + hits[:-1]]

    @settings(max_examples=200, deadline=None)
    @given(q=st.integers(min_value=1, max_value=10 ** 18),
           data=st.data(),
           n=st.integers(min_value=1, max_value=10 ** 8),
           k=st.integers(min_value=1, max_value=10 ** 4))
    def test_matches_scans(self, q, data, n, k):
        p = data.draw(st.integers(min_value=0, max_value=q - 1))
        alpha = Fraction(p, q)
        assert select_delta1(alpha, n) == scan_select_delta1(alpha, n)
        assert dirichlet_approx(alpha, k) == scan_dirichlet(alpha, k)

    @settings(max_examples=300, deadline=None)
    @given(q=st.integers(min_value=1, max_value=10 ** 18), data=st.data())
    def test_error_from_euclid_remainder(self, q, data):
        # the r the walk reads off Euclid's remainders is |d*p - a*q| at
        # the a it returns, and that a is nearest_int(d*p, q)
        p = data.draw(st.integers(min_value=0, max_value=q - 1))
        limit = data.draw(st.integers(min_value=1, max_value=q))
        k = data.draw(st.integers(min_value=1, max_value=q))
        hit = first_convergent(p, q, limit, lambda r: r * k < q)
        if hit is not None:
            d, a, r = hit
            assert 1 <= d <= limit
            assert a == nearest_int(d * p, q)
            assert r == abs(d * p - a * q)
            assert r * k < q
        walk_hits(p, q)

    def test_no_pass_returns_none(self):
        # 1/3 within 1/100 needs d = 3 > limit 2
        assert first_convergent(1, 3, 2, lambda r: r * 100 < 3) is None
        assert first_convergent(1, 3, 3, lambda r: r * 100 < 3) == (3, 1, 0)
        assert first_convergent(1, 3, 10, lambda r: False) is None
        assert scan_first(scan_rows(1, 3, 10), 10, lambda r: False) is None


class TestTotatives:
    @pytest.mark.parametrize("delta, expected", [
        (6, [1, 5]),
        (1, [1]),
        (5, [1, 2, 3, 4]),
        (12, [1, 5, 7, 11]),
    ])
    def test_examples(self, delta, expected):
        assert totatives(delta) == expected

    def test_against_euler_phi(self):
        # every d1 <= isqrt(n) for n <= 2^22: increasing members of
        # [1, delta], each coprime to delta, as many as Euler's phi from a
        # trial-division factorisation says there are
        for delta in range(1, 2049):
            phi, rest, f = delta, delta, 2
            while f * f <= rest:
                if rest % f == 0:
                    phi -= phi // f
                    while rest % f == 0:
                        rest //= f
                f += 1
            if rest > 1:
                phi -= phi // rest
            got = totatives(delta)
            assert len(got) == phi
            assert 1 <= got[0] and got[-1] <= delta
            assert all(u < v for u, v in zip(got, got[1:]))
            assert all(math.gcd(b, delta) == 1 for b in got)


class TestHelpers:
    @pytest.mark.parametrize("num, den, expected", [
        (5, 2, 2),    # 2.5 -> toward zero
        (-5, 2, -2),
        (7, 2, 3),    # 3.5 -> 3
        (5, 3, 2),
        (4, 3, 1),
        (0, 9, 0),
    ])
    def test_nearest_int(self, num, den, expected):
        assert nearest_int(num, den) == expected

    def test_nearest_int_is_nearest(self):
        rng = random.Random(4)
        for _ in range(2000):
            den = rng.randint(1, 1000)
            num = rng.randint(-10 ** 6, 10 ** 6)
            a = nearest_int(num, den)
            assert abs(num - a * den) <= min(abs(num - (a - 1) * den),
                                             abs(num - (a + 1) * den))

    def test_isqrt_bounds(self):
        for x in list(range(0, 200)) + [10 ** 12, 10 ** 12 + 1]:
            f, c = math.isqrt(x), isqrt_ceil(x)
            assert f * f <= x and (f + 1) * (f + 1) > x
            assert c * c >= x and (c == 0 or (c - 1) * (c - 1) < x)
