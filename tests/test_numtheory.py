import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdisc.numtheory import (DegenerateModulus, DirichletWitness, NotCoprime,
                               dirichlet_approx, isqrt_ceil, mod_inverse_pair,
                               nearest_int, totatives)


class TestInversePair:
    def brute_inverse(self, a, delta):
        # independent oracle: scan k in [1, delta-1]
        for k in range(1, delta):
            if (k * a) % delta == 1:
                return k
        raise AssertionError("no inverse")

    @pytest.mark.parametrize("a, delta, k", [
        (3, 7, 5),   # 15 = 2*7 + 1
        (4, 9, 7),   # 28 = 3*9 + 1
        (1, 5, 1),
        (1, 2, 1),
    ])
    def test_examples(self, a, delta, k):
        pair = mod_inverse_pair(a, delta)
        assert pair.k == k == self.brute_inverse(a, delta)
        assert pair.k_neg == delta - k

    def test_identity_any_modulus(self):
        for delta in (2, 3, 10, 97):
            pair = mod_inverse_pair(1, delta)
            assert (pair.k, pair.k_neg) == (1, delta - 1)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            mod_inverse_pair(6, 9)

    def test_degenerate_modulus(self):
        with pytest.raises(DegenerateModulus):
            mod_inverse_pair(3, 1)

    def test_random_pairs(self):
        # k*a = 1 and (delta-k)*a = delta-1 mod delta, coprimality of both
        rng = random.Random(12345)
        done = 0
        while done < 10 ** 4:
            delta = rng.randint(2, 10 ** 6)
            a = rng.randint(1, delta - 1)
            if math.gcd(a, delta) != 1:
                continue
            pair = mod_inverse_pair(a, delta)
            assert 1 <= pair.k <= delta - 1
            assert (pair.k * a) % delta == 1
            assert (pair.k_neg * a) % delta == delta - 1
            assert math.gcd(pair.k, delta) == 1
            assert math.gcd(pair.k_neg, delta) == 1
            done += 1


class TestDirichlet:
    def brute_witness(self, alpha, k):
        # independent oracle: exhaustive scan in exact rationals
        for delta in range(1, k + 1):
            best = min((abs(delta * alpha - a), a)
                       for a in (math.floor(delta * alpha),
                                 math.floor(delta * alpha) + 1))
            if best[0] < Fraction(1, k):
                return delta, best[1], best[0]
        raise AssertionError("pigeonhole violated")

    @pytest.mark.parametrize("alpha, k, expected", [
        (Fraction(1, 3), 3, (3, 1, Fraction(0))),
        (Fraction(0), 5, (1, 0, Fraction(0))),
        # nearest multiple: |2*0.4142135 - 1| = 0.1715730 < 1/5
        (Fraction(4142135, 10 ** 7), 5, (2, 1, Fraction(171573, 10 ** 6))),
    ])
    def test_examples(self, alpha, k, expected):
        wit = dirichlet_approx(alpha, k)
        assert (wit.delta, wit.a, wit.err) == expected
        assert (wit.delta, wit.a, wit.err) == self.brute_witness(alpha, k)

    def test_deterministic(self):
        alpha = Fraction(355, 1130)
        assert dirichlet_approx(alpha, 50) == dirichlet_approx(alpha, 50)

    @settings(max_examples=300, deadline=None)
    @given(p=st.integers(min_value=0, max_value=10 ** 6 - 1),
           q=st.integers(min_value=1, max_value=10 ** 6),
           k=st.integers(min_value=1, max_value=10 ** 3))
    def test_error_below_threshold(self, p, q, k):
        alpha = Fraction(p % q, q)
        wit = dirichlet_approx(alpha, k)
        assert 1 <= wit.delta <= k
        assert wit.err == abs(wit.delta * alpha - wit.a)
        assert wit.err < Fraction(1, k)

    def test_smallest_delta_wins(self):
        rng = random.Random(99)
        for _ in range(200):
            q = rng.randint(1, 5000)
            alpha = Fraction(rng.randint(0, q - 1), q)
            k = rng.randint(1, 60)
            wit = dirichlet_approx(alpha, k)
            assert (wit.delta, wit.a, wit.err) == self.brute_witness(alpha, k)


class TestTotatives:
    @pytest.mark.parametrize("delta, expected", [
        (6, [1, 5]),
        (1, [1]),
        (5, [1, 2, 3, 4]),
        (12, [1, 5, 7, 11]),
    ])
    def test_examples(self, delta, expected):
        assert totatives(delta) == expected

    def test_against_gcd_filter(self):
        import numpy as np
        for delta in range(1, 10 ** 4 + 1):
            got = totatives(delta)
            b = np.arange(1, delta + 1)
            expected = b[np.gcd(b, delta) == 1].tolist()
            assert got == expected


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
