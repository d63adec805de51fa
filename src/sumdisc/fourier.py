"""Exponential sums of edges and colorings, and squared-imbalance totals.

The transform used throughout maps a finitely supported f on the integers
to ``alpha -> sum_z f(z) * exp(2*pi*i*z*alpha)`` on [0, 1).  Only
magnitudes matter downstream, so the sign of the exponent is a pure
convention.  Phases are reduced exactly: for rational alpha = p/q the
phase of z is (z*p mod q)/q, so no large-argument trigonometry ever
happens.  An edge's sum is a product of two geometric sums in closed
form, or, when its lattice points collide, the sum of two such products
over the pieces of ``hypergraph.staircase_split``; no sum runs over the
elements.

``sum_sq_disc`` sums the squared color values of all translates of an
edge, each value exact from the integer box filters of
``hypergraph.translate_values``; ``parseval_check`` compares it against
uniform-grid quadrature of |chi_hat|^2 * |edge_hat|^2, which is exact for
trigonometric polynomials once the grid has more points than twice the
polynomial degree.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

import numpy as np

from .hypergraph import (Coloring, SumEdge, edge_elements_array, staircase_split,
                         translate_values)

TWO_PI = 2.0 * cmath.pi


class GridTooCoarse(ValueError):
    """Quadrature grid too small to integrate the polynomial exactly."""


def _cis_minus_one(r: int, q: int) -> complex:
    """exp(2*pi*i*r/q) - 1 evaluated as 2i*sin(pi*t)*exp(i*pi*t) with t the
    signed distance of r/q to its nearest integer.

    The naive exp-then-subtract form loses ~1e-9 relative accuracy when r/q
    is within ~1e-7 of an integer, which is exactly the regime the
    certificates operate in; the half-angle form keeps full precision.
    """
    t = r / q if 2 * r <= q else (r - q) / q
    return 2j * cmath.sin(cmath.pi * t) * cmath.exp(1j * cmath.pi * t)


def geometric_exp_sum(diff: int, length: int, p: int, q: int) -> complex:
    """sum_{j<length} exp(2*pi*i*j*diff*p/q) in closed form."""
    r = (diff * p) % q
    if r == 0:
        return complex(length)
    return _cis_minus_one((length * r) % q, q) / _cis_minus_one(r, q)


def indicator_fourier(e: SumEdge, alpha: Fraction) -> complex:
    """Exponential sum of the edge's element set at alpha.

    With no lattice collisions the double sum factorizes into a product of
    two geometric sums.  An edge with collisions is the disjoint union of
    the two collision-free translates of ``staircase_split``: the sum of
    their products, each times the exact phase of its offset.
    """
    p, q = alpha.numerator, alpha.denominator
    if e.collision_free:
        return geometric_exp_sum(e.d1, e.l1, p, q) * geometric_exp_sum(e.d2, e.l2, p, q)
    return sum(cmath.exp(TWO_PI * 1j * ((o * p) % q) / q) * indicator_fourier(piece, alpha)
               for o, piece in staircase_split(e))


def sum_sq_disc(chi: Coloring, e: SumEdge) -> int:
    """Sum over all offsets of the squared color value of the translate.

    Offsets outside [-span, N] contribute nothing, so the sum is finite.
    The translate values come from ``translate_values``, integer box
    filters along the edge's two differences, and their squares are summed
    in int64.
    """
    c = translate_values(chi, e)
    return int(np.dot(c, c))


def parseval_check(chi: Coloring, e: SumEdge, m: int) -> float:
    """Relative gap between the ``sum_sq_disc`` total (exact integer
    translate values from box filters) and grid quadrature.

    Requires m > 2 * (N + span): the integrand is a trigonometric
    polynomial of degree N - 1 + span, and uniform quadrature is exact
    strictly above twice the degree.  The result should be at numerical
    noise level (<= 1e-8).
    """
    span = e.span
    if m <= 2 * (chi.n + span):
        raise GridTooCoarse(
            f"m={m} <= 2*(n + span)={2 * (chi.n + span)}")
    lhs = sum_sq_disc(chi, e)
    rhs = quadrature_sum_sq(chi, [e], m)
    return abs(lhs - rhs) / lhs


def _grid_transform(positions: np.ndarray, weights: np.ndarray, m: int) -> np.ndarray:
    """|transform|^2 on the m-point grid via an FFT of the padded signal;
    the positions are distinct and below m."""
    padded = np.zeros(m, dtype=np.float64)
    padded[positions] = weights
    return np.abs(np.fft.fft(padded)) ** 2


def edge_spectrum(e: SumEdge, m: int) -> list[complex]:
    """The edge's exponential sum at t/m for t = 0, ..., m - 1."""
    return [indicator_fourier(e, Fraction(t, m)) for t in range(m)]


def quadrature_sum_sq(chi: Coloring, edges, m: int) -> float:
    """(1/m) * sum_t |chi_hat(t/m)|^2 * sum_E |edge_hat(t/m)|^2."""
    if chi.n >= m:
        raise GridTooCoarse(f"coloring length {chi.n} does not fit grid m={m}")
    chi_power = _grid_transform(np.arange(1, chi.n + 1), chi.values.astype(np.float64), m)
    edge_power = np.zeros(m)
    for e in edges:
        els = edge_elements_array(e)
        if els[-1] >= m:
            raise GridTooCoarse(f"edge span {els[-1]} does not fit grid m={m}")
        edge_power += _grid_transform(els, np.ones(els.size), m)
    return float(np.mean(chi_power * edge_power))
