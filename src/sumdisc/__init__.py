"""Discrepancy of sums of two arithmetic progressions.

Library + CLI that builds the structured O(N)-size edge family, certifies
for every alpha in [0, 1) a family edge whose indicator exponential sum has
magnitude at least N/300, verifies the squared-imbalance averaging chain
(S >= N^3/90000, witness > sqrt(N)/1200 for every coloring), and computes
exact and heuristic discrepancies of the full hypergraph at small N.
"""

from .certifier import Certificate, certify, select_delta1
from .family import FamilyConfig, FamilyE0, build_family, family_stats
from .fourier import indicator_fourier, parseval_check, sum_sq_disc
from .hypergraph import Coloring, SumEdge, color_value, edge_cardinality
from .numtheory import dirichlet_approx, totatives
from .solver import (DiscReport, TwoNormBound, TwoNormEngine, exact_discrepancy,
                     local_search_upper, random_coloring_upper)

__version__ = "0.1.0"

__all__ = [
    "Certificate", "certify", "select_delta1",
    "FamilyConfig", "FamilyE0", "build_family", "family_stats",
    "indicator_fourier", "parseval_check", "sum_sq_disc",
    "Coloring", "SumEdge", "color_value", "edge_cardinality",
    "dirichlet_approx", "totatives",
    "DiscReport", "TwoNormBound", "TwoNormEngine", "exact_discrepancy",
    "local_search_upper", "random_coloring_upper",
    "__version__",
]
