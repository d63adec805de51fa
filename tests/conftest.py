import numpy as np
import pytest

from sumdisc.hypergraph import canonical_edge_masks


@pytest.fixture
def edge_sets():
    """Every distinct hyperedge of [1, n] as a vertex set, decoded from the
    rows of ``canonical_edge_masks(n)`` in their order."""
    def decode(n):
        bits = np.unpackbits(canonical_edge_masks(n), axis=1, bitorder="little")[:, :n]
        return [frozenset((np.flatnonzero(row) + 1).tolist()) for row in bits]
    return decode
