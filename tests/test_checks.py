"""The named checks of ``sumdisc.checks`` fire on a broken helper."""

import random
from fractions import Fraction

import pytest

from sumdisc import checks, hypergraph
from sumdisc.certifier import TOL_SCALE, certify
from sumdisc.numtheory import InternalInvariantViolation


def test_cardinality_oracle(monkeypatch):
    # an edge_cardinality one above the brute-force sumset
    monkeypatch.setattr(checks, "edge_cardinality",
                        lambda e: hypergraph.edge_cardinality(e) + 1)
    with pytest.raises(InternalInvariantViolation) as err:
        checks.cardinality(random.Random(0), 1)
    assert err.value.invariant == "cardinality-oracle"


def test_certified_magnitude(monkeypatch):
    # a certificate whose magnitude is one below n/300 - TOL_SCALE*n
    monkeypatch.setattr(checks, "certify", lambda alpha, n: certify(alpha, n)._replace(
        measured=n / 300 - TOL_SCALE * n - 1))
    with pytest.raises(InternalInvariantViolation) as err:
        checks.certification(1200, [Fraction(7, 9)])
    assert err.value.invariant == "certified-magnitude"
    assert "alpha=7/9, n=1200" in str(err.value)
