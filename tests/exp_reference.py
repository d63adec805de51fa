"""The direct exponential sum of an edge: the reference that the fourier and
certifier tests compare ``indicator_fourier`` and ``certify`` against."""
import cmath
from fractions import Fraction

from sumdisc.hypergraph import SumEdge, edge_elements_array


def direct_exp_sum(e: SumEdge, alpha: Fraction) -> complex:
    """Independent reference: python-loop sum with exact phase reduction."""
    p, q = alpha.numerator, alpha.denominator
    return sum(cmath.exp(2j * cmath.pi * ((z * p) % q) / q)
               for z in edge_elements_array(e).tolist())
