import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.signal

from sumdisc.fourier import (GridTooCoarse, geometric_exp_sum,
                             indicator_fourier, parseval_check,
                             quadrature_sum_sq, sum_sq_disc)
from sumdisc.hypergraph import Coloring, SumEdge, edge_elements_array

from exp_reference import direct_exp_sum


class TestIndicator:
    def test_alpha_zero_gives_cardinality(self):
        for e in (SumEdge(2, 3, 3, 2), SumEdge(2, 4, 4, 2), SumEdge(1, 9, 1, 1)):
            got = indicator_fourier(e, Fraction(0))
            assert got == pytest.approx(edge_elements_array(e).size, abs=1e-12)

    @pytest.mark.parametrize("length, expected", [(4, 0.0), (7, 1.0)])
    def test_unit_ap_at_one_half(self, length, expected):
        got = indicator_fourier(SumEdge(1, length, 1, 1), Fraction(1, 2))
        assert abs(got) == pytest.approx(expected, abs=1e-12)

    def test_product_vs_direct_example(self):
        e = SumEdge(2, 3, 3, 2)
        alpha = Fraction(1, 6)
        prod = indicator_fourier(e, alpha)
        assert prod == pytest.approx(direct_exp_sum(e, alpha), abs=1e-12)

    def test_factorized_vs_direct_random(self):
        # no edge is skipped.  In the second round, differences up to 60
        # make about a fifth of the edges collide, and q up to 2**80 puts
        # z*p far above 2**62
        rng = random.Random(31337)
        for max_d, max_q, draws in ((1000, 10 ** 6, 10 ** 4), (60, 1 << 80, 3000)):
            colliding = 0
            for _ in range(draws):
                e = SumEdge(rng.randint(1, max_d), rng.randint(1, 30),
                            rng.randint(1, max_d), rng.randint(1, 30))
                colliding += not e.collision_free
                q = rng.randint(1, max_q)
                alpha = Fraction(rng.randint(0, q - 1), q)
                a = indicator_fourier(e, alpha)
                b = direct_exp_sum(e, alpha)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (e, alpha)
        assert colliding >= 300  # the second round's count

    def test_closed_form_single_ap(self):
        # |sum_j exp(2 pi i j d alpha)| = |sin(pi L d alpha) / sin(pi d alpha)|
        rng = random.Random(404)
        for _ in range(10 ** 3):
            d, length = rng.randint(1, 50), rng.randint(1, 50)
            q = rng.randint(2, 10 ** 4)
            alpha = Fraction(rng.randint(0, q - 1), q)
            if (d * alpha.numerator) % alpha.denominator == 0:
                continue
            got = abs(indicator_fourier(SumEdge(d, length, 1, 1), alpha))
            x = float(d * alpha)
            expected = abs(math.sin(math.pi * length * x)
                           / math.sin(math.pi * x))
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_geometric_sum_is_geometric(self):
        alpha = Fraction(3, 7)
        got = geometric_exp_sum(2, 5, alpha)
        expected = sum(cmath.exp(2j * cmath.pi * 2 * j * 3 / 7) for j in range(5))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_edge_spectrum_grid(self):
        from sumdisc.fourier import edge_spectrum
        # the second edge's lattice points collide: 360 points, 208 elements
        for e, m, size in ((SumEdge(2, 3, 3, 2), 12, 6), (SumEdge(30, 40, 12, 9), 256, 208)):
            values = edge_spectrum(e, m)
            assert len(values) == m
            assert values[0] == pytest.approx(size, abs=1e-12)
            for t, value in enumerate(values):
                assert value == pytest.approx(
                    direct_exp_sum(e, Fraction(t, m)),
                    abs=1e-10 if e.collision_free else 1e-9 * size)


class TestSumSqDisc:
    def test_point_mass(self):
        for n in (5, 16):
            chi = Coloring.random(n, seed=n)
            assert sum_sq_disc(chi, SumEdge(1, 1, 1, 1)) == n

    def test_adjacent_pair_alternating(self):
        for n in (6, 11):
            chi = Coloring.alternating(n)
            assert sum_sq_disc(chi, SumEdge(1, 2, 1, 1)) == 2

    def test_quadrature_match_example(self):
        chi = Coloring.random(16, seed=123)
        e = SumEdge(2, 3, 3, 2)
        loop = sum_sq_disc(chi, e)
        quad = quadrature_sum_sq(chi, [e], 512)
        assert abs(loop - quad) / loop <= 1e-8

    def test_matches_fft_convolution(self):
        # oracle: squared 2-norm of scipy's full convolution
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(4, 64)
            chi = Coloring.random(n, seed=rng.randrange(2 ** 31))
            e = SumEdge(rng.randint(1, 6), rng.randint(1, 6),
                        rng.randint(1, 6), rng.randint(1, 6))
            ind = np.zeros(e.span + 1)
            ind[edge_elements_array(e)] = 1.0
            conv = scipy.signal.fftconvolve(chi.values.astype(float), ind[::-1])
            oracle = float((conv ** 2).sum())
            assert abs(sum_sq_disc(chi, e) - oracle) <= 1e-9 * max(1.0, oracle)


class TestParseval:
    def test_example_small(self):
        chi = Coloring.random(8, seed=2)
        assert parseval_check(chi, SumEdge(1, 2, 1, 1), 64) <= 1e-10

    def test_example_medium(self):
        chi = Coloring.random(16, seed=3)
        assert parseval_check(chi, SumEdge(2, 3, 3, 2), 512) <= 1e-8

    def test_point_mass_equals_n(self):
        chi = Coloring.random(12, seed=4)
        e = SumEdge(1, 1, 1, 1)
        assert sum_sq_disc(chi, e) == 12
        assert quadrature_sum_sq(chi, [e], 32) == pytest.approx(12, abs=1e-10)

    def test_grid_too_coarse(self):
        chi = Coloring.random(8, seed=2)
        with pytest.raises(GridTooCoarse):
            parseval_check(chi, SumEdge(1, 2, 1, 1), 18)

    def test_coloring_must_fit_grid(self):
        # positions 1..n alias on an m-point grid once n >= m
        e = SumEdge(1, 2, 1, 1)
        assert sum_sq_disc(Coloring.all_plus(20), e) == 78
        with pytest.raises(GridTooCoarse):
            quadrature_sum_sq(Coloring.all_plus(20), [e], 16)
        with pytest.raises(GridTooCoarse):
            quadrature_sum_sq(Coloring.all_plus(16), [SumEdge(1, 1, 1, 1)], 16)
        point = quadrature_sum_sq(Coloring.all_plus(15), [SumEdge(1, 1, 1, 1)], 16)
        assert point == pytest.approx(15, abs=1e-10)

    def test_every_small_n(self):
        rng = random.Random(314)
        for n in range(1, 65):
            for _ in range(4):
                chi = Coloring.random(n, seed=rng.randrange(2 ** 31))
                e = SumEdge(rng.randint(1, 8), rng.randint(1, 6),
                            rng.randint(1, 8), rng.randint(1, 6))
                m = 2 * (n + e.span) + 1
                assert parseval_check(chi, e, m) <= 1e-8
