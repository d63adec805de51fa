import hashlib
import json
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumdisc import certifier
from sumdisc.certifier import (MIN_N, TOL_SCALE, BelowMinN, Certificate,
                               InternalInvariantViolation, certify,
                               select_delta1, sweep_alphas)
from sumdisc.family import (FamilyConfig, build_family, e3_edge, kbar,
                            length1_at_scale, length2_at_scale)
from sumdisc.hypergraph import SumEdge

from exp_reference import direct_exp_sum


class TestSelectDelta1:
    def test_zero(self):
        assert select_delta1(Fraction(0), 100) == (1, 0)

    def test_exact_half(self):
        assert select_delta1(Fraction(1, 2), 100) == (2, 1)

    def test_small_decimal(self):
        # 0.005: |1*0.005 - 0| = 0.005 < 0.01 = 10000**-0.5
        assert select_delta1(Fraction(5, 1000), 10 ** 4) == (1, 0)

    def test_postconditions_random(self):
        rng = random.Random(17)
        for _ in range(500):
            n = rng.choice([576, 1000, 1024, 4096])
            q = rng.randint(1, 10 ** 6)
            alpha = Fraction(rng.randint(0, q - 1), q)
            d1, a1 = select_delta1(alpha, n)
            assert 1 <= d1 <= math.isqrt(n)
            assert math.gcd(a1, d1) == 1 or (a1 == 0 and d1 == 1)
            err = abs(d1 * alpha - a1)
            assert err.numerator ** 2 * n < err.denominator ** 2

    def test_smallest_denominator(self):
        # no d < d1 comes within n**-0.5 of an integer
        rng = random.Random(23)
        for _ in range(300):
            n = rng.choice([576, 4096, 10 ** 5, 2 ** 18])
            q = rng.randint(1, 10 ** rng.choice([3, 6, 18]))
            alpha = Fraction(rng.randint(0, q - 1), q)
            d1, _ = select_delta1(alpha, n)
            for d in range(1, d1):
                dist = min(d * alpha - math.floor(d * alpha),
                           math.ceil(d * alpha) - d * alpha)
                assert dist.numerator ** 2 * n >= dist.denominator ** 2


class TestClassify:
    # the branch certify decides from |alpha - a1/d1| against 1/n
    def test_zero_is_case1(self):
        assert certify(Fraction(0), 1024).case_tag == 1

    def test_exact_fraction_mid_denominator_is_case2(self):
        n = 1024
        alpha = Fraction(4, 27)  # denominator in [25, 32], coprime
        assert select_delta1(alpha, n) == (27, 4)
        assert certify(alpha, n).case_tag == 2

    def test_far_point_is_case3(self):
        n = 10 ** 4
        alpha = Fraction(5, 1000)
        assert select_delta1(alpha, n) == (1, 0)
        assert certify(alpha, n).case_tag == 3


def sub_families(fam) -> dict[str, set]:
    """Each sub-family's edges as a set, for membership checks; e3 as a set
    of (edge, k, b) rows."""
    c1, c2, _ = fam.counts
    edges = [fam.edge(i) for i in range(len(fam))]
    return {"e1": set(edges[:c1]), "e2": set(edges[c1:c1 + c2]),
            "e3": set(zip(edges[c1 + c2:], fam.k.tolist(), fam.b.tolist()))}


def reverify(cert: Certificate, subs: dict[str, set]) -> None:
    """Re-check every certificate invariant outside of certify(); ``subs``
    is ``sub_families`` of the family for cert.n."""
    n, alpha = cert.n, cert.alpha
    err = abs(alpha - Fraction(cert.a1, cert.delta1))
    # reduced fraction and the base approximation inequality
    assert math.gcd(cert.a1, cert.delta1) == 1 or cert.a1 == 0
    assert err.numerator ** 2 * n * cert.delta1 ** 2 < err.denominator ** 2
    # branch selection
    if cert.case_tag == 1:
        assert err < Fraction(1, n) and cert.delta1 <= 24
        assert cert.edge.l1 == -(-n // (6 * cert.delta1))
        assert (cert.edge.d2, cert.edge.l2) == (1, 1)
        assert cert.edge in subs["e1"]
        assert cert.certified_bound == n / 288
    elif cert.case_tag == 2:
        assert err < Fraction(1, n) and cert.delta1 > 24
        assert 1 <= cert.delta2 <= cert.delta1 - 1
        assert math.gcd(cert.delta1, cert.delta2) == 1
        assert abs(cert.delta2 * alpha - cert.a2) <= Fraction(1, cert.delta1 - 1)
        assert cert.edge in subs["e2"]
        assert 150 * cert.edge.l1 * cert.edge.l2 >= n
        assert cert.certified_bound == n / 300
    else:
        assert err >= Fraction(1, n)
        k = cert.k
        assert 0 <= k <= kbar(n, cert.delta1)
        lo = Fraction(1, (2 ** (k + 1)) * cert.delta1)
        hi = Fraction(1, (2 ** k) * cert.delta1)
        # err in [lo, hi) / sqrt(n), via squaring
        assert (err / lo).numerator ** 2 * n >= (err / lo).denominator ** 2
        assert (err / hi).numerator ** 2 * n < (err / hi).denominator ** 2
        # the edge is the family's e3 row of scale k and congruence class b
        assert (cert.edge, k, cert.b) in subs["e3"]
        assert math.gcd(cert.delta1, cert.delta2) == 1
        assert cert.delta2 > cert.edge.l1
        assert cert.edge.l1 == length1_at_scale(n, k)
        assert cert.edge.l2 == length2_at_scale(n, k)
        assert 144 * cert.edge.l1 * cert.edge.l2 >= n
        assert cert.certified_bound == n / 288
        # sign, inverse residue, rounding chain
        assert cert.s == (1 if alpha > Fraction(cert.a1, cert.delta1) else -1)
        assert (cert.b * cert.a1 + cert.s) % cert.delta1 == 0
        assert cert.delta2 == cert.b + math.ceil(cert.d) * (4 ** k) * cert.delta1
    # phase budgets, exact.  Branch 1 only needs the whole-progression
    # budget below 1/6 of a turn; branches 2 and 3 need 1/12 per side.
    if cert.case_tag == 1:
        assert (cert.edge.l1 - 1) * abs(cert.delta1 * alpha - cert.a1) \
            < Fraction(1, 6)
    else:
        if cert.edge.l1 > 1:
            assert abs(cert.delta1 * alpha - cert.a1) <= \
                Fraction(1, 12 * (cert.edge.l1 - 1))
        if cert.edge.l2 > 1:
            assert abs(cert.delta2 * alpha - cert.a2) <= \
                Fraction(1, 12 * (cert.edge.l2 - 1))
    # magnitude: certified bound and agreement with the direct element sum
    assert cert.measured >= cert.certified_bound - TOL_SCALE * n
    direct = abs(direct_exp_sum(cert.edge, alpha))
    assert abs(cert.measured - direct) <= 1e-9 * max(1.0, direct)


class TestCertify:
    def test_example_alpha_zero(self):
        cert = certify(Fraction(0), 1200)
        assert cert.case_tag == 1
        assert (cert.edge.d1, cert.edge.l1) == (1, 200)
        assert cert.measured == pytest.approx(200.0, abs=1e-9)

    def test_example_alpha_half(self):
        cert = certify(Fraction(1, 2), 1200)
        assert cert.case_tag == 1
        assert (cert.delta1, cert.edge.l1) == (2, 100)
        assert cert.measured == pytest.approx(100.0, abs=1e-9)

    def test_example_case3_chain(self):
        cert = certify(Fraction(1, 200), 10 ** 4)
        assert cert.case_tag == 3
        assert (cert.delta1, cert.a1, cert.k, cert.b) == (1, 0, 0, 1)
        assert cert.d == 199 and cert.delta2 == 200
        # second factor is exactly l2 = 9 since delta2 * alpha = 1
        geo = abs(sum(complex(math.cos(2 * math.pi * j / 200),
                              math.sin(2 * math.pi * j / 200))
                      for j in range(9)))
        assert cert.measured == pytest.approx(9 * geo, rel=1e-9)
        assert cert.measured >= 10 ** 4 / 300

    def test_below_min_n(self):
        with pytest.raises(BelowMinN):
            certify(Fraction(1, 3), MIN_N - 1)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            certify(Fraction(3, 2), 1024)

    def test_deterministic(self):
        a = certify(Fraction(355, 113000), 1024)
        b = certify(Fraction(355, 113000), 1024)
        assert a == b

    def test_json_dict(self):
        rec = certify(Fraction(1, 200), 10 ** 4).to_json_dict()
        assert rec["case"] == 3 and rec["delta2"] == 200
        assert rec["alpha"] == "1/200" and rec["d"] == "199/1"

    def test_fields_are_read_only(self):
        cert = certify(Fraction(1, 200), 10 ** 4)
        with pytest.raises(AttributeError):
            cert.measured = 0.0
        with pytest.raises(AttributeError):
            cert.extra = 1

    @pytest.mark.parametrize("alpha, n", [(Fraction(0), 1200),
                                          (Fraction(4, 27), 1024),
                                          (Fraction(1, 200), 10 ** 4)])
    def test_pickle_round_trip(self, alpha, n):
        # one certificate per branch, so that a process pool can return them
        cert = certify(alpha, n)
        again = pickle.loads(pickle.dumps(cert))
        assert again == cert and type(again) is Certificate
        assert again.to_json_dict() == cert.to_json_dict()


# certify's proved-fact checks cannot fire on valid input, so each trigger
# breaks one helper that certify trusts: (invariant, helper, its stand-in,
# an alpha whose branch reaches the check at n = 4096)
CHECK_TRIGGERS = [
    ("dirichlet-existence", "first_convergent", lambda *args: None,
     Fraction(1, 3000)),
    ("injective-sumset", "edge_cardinality", lambda e: e.l1 * e.l2 - 1,
     Fraction(47, 3000)),
    ("size-bound", "e2_edge", lambda n, d1, d2: SumEdge(d1, 1, d2, 1),
     Fraction(47, 3000)),
    ("phase-budget-1", "e2_edge",
     lambda n, d1, d2: SumEdge(d1, n // d1 - 1, d2, 1), Fraction(47, 3000)),
    ("coprime-denominators", "dirichlet_approx", lambda alpha, k: (2, 0),
     Fraction(2, 125)),
    ("interval-membership", "in_m_interval", lambda *args: False,
     Fraction(1, 3000)),
    ("scale-range", "kbar", lambda n, d1: -1, Fraction(1, 3000)),
    ("second-difference-dominates", "e3_edge",
     lambda n, d1, k, d2: SumEdge(d1, d2, d2, e3_edge(n, d1, k, d2).l2),
     Fraction(1, 3000)),
    # a module global named pow shadows the builtin: every inverse is 1
    ("inverse-residue", "pow", lambda *args: 1, Fraction(51, 1000)),
]


@pytest.mark.parametrize("invariant, helper, stand_in, alpha", CHECK_TRIGGERS,
                         ids=[trigger[0] for trigger in CHECK_TRIGGERS])
def test_certify_check_fires(monkeypatch, invariant, helper, stand_in, alpha):
    certify(alpha, 4096)
    monkeypatch.setattr(certifier, helper, stand_in, raising=helper != "pow")
    with pytest.raises(InternalInvariantViolation) as err:
        certify(alpha, 4096)
    assert err.value.invariant == invariant


@st.composite
def alpha_and_n(draw):
    """n in [576, 10**7] and alpha = p/q with q <= 10**18: either a random
    rational or a rational a/d with d <= sqrt(n) moved by about 1/n, which
    straddles the branch-1/branch-3 threshold and reaches branch 2."""
    n = draw(st.integers(min_value=MIN_N, max_value=10 ** 7))
    if draw(st.booleans()):
        q = draw(st.integers(min_value=1, max_value=10 ** 18))
        return Fraction(draw(st.integers(min_value=0, max_value=q - 1)), q), n
    d = draw(st.integers(min_value=1, max_value=math.isqrt(n)))
    a = draw(st.integers(min_value=0, max_value=d))
    q2 = draw(st.integers(min_value=1, max_value=10 ** 18 // d))
    t = draw(st.integers(min_value=-(3 * q2) // n - 1, max_value=(3 * q2) // n + 1))
    alpha = Fraction(a, d) + Fraction(t, q2)
    if not 0 <= alpha < 1:
        alpha = Fraction(a % d, d)
    return alpha, n


@settings(max_examples=200, deadline=None)
@given(case=alpha_and_n())
def test_certify_property(case):
    """The certified bound holds; the branch and both phase budgets are
    re-derived in Fraction arithmetic, apart from certify's integer tests."""
    alpha, n = case
    cert = certify(alpha, n)
    assert cert.measured >= cert.certified_bound - 1e-6 * n
    d1, a1, e = cert.delta1, cert.a1, cert.edge
    err = abs(alpha - Fraction(a1, d1))
    assert (err * d1) ** 2 * n < 1
    if err < Fraction(1, n):
        assert cert.case_tag == (1 if d1 <= 24 else 2)
    else:
        assert cert.case_tag == 3
    if cert.case_tag == 1:
        assert (e.l1 - 1) * abs(d1 * alpha - a1) < Fraction(1, 6)
        return
    if e.l1 > 1:
        assert abs(d1 * alpha - a1) <= Fraction(1, 12 * (e.l1 - 1))
    if e.l2 > 1:
        assert abs(cert.delta2 * alpha - cert.a2) <= Fraction(1, 12 * (e.l2 - 1))
    if cert.case_tag == 3:
        four_k = 4 ** cert.k
        shell = err * d1 * 2 ** cert.k
        assert (2 * shell) ** 2 * n >= 1 and shell ** 2 * n < 1
        # the doubling loop certify's scale replaced
        q = alpha.denominator
        e1, k = abs(d1 * alpha.numerator - a1 * q), 0
        while (e1 << (k + 1)) ** 2 * n < q * q:
            k += 1
        assert cert.k == k
        assert cert.d == 1 / (err * four_k * d1 ** 2) - Fraction(cert.b, four_k * d1)
        assert cert.delta2 == cert.b + math.ceil(cert.d) * four_k * d1


class TestSweep:
    @pytest.mark.parametrize("n", [1024, 4096])
    def test_reduced_sweep_reverified(self, n):
        subs = sub_families(build_family(FamilyConfig(n=n)))
        alphas = sweep_alphas(n, 400, n_random=60, seed=5)
        count = {1: 0, 2: 0, 3: 0}
        for cert in (certify(alpha, n) for alpha in alphas):
            reverify(cert, subs)
            count[cert.case_tag] += 1
        assert sum(count.values()) == len(alphas)
        assert count[3] > 0 and count[1] > 0  # branches actually exercised

    def test_case2_exercised(self):
        n = 4096
        subs = sub_families(build_family(FamilyConfig(n=n)))
        hits = 0
        for d1 in range(25, 41):
            for a1 in range(1, d1):
                if math.gcd(a1, d1) != 1:
                    continue
                cert = certify(Fraction(a1, d1), n)
                assert cert.case_tag == 2
                reverify(cert, subs)
                hits += 1
        assert hits > 100

    def test_alpha_sample_deterministic(self):
        assert sweep_alphas(1024, 100, n_random=20, seed=3) == \
            sweep_alphas(1024, 100, n_random=20, seed=3)

    def test_alpha_sample_in_range(self):
        for a in sweep_alphas(1024, 50, n_random=10, seed=1):
            assert 0 <= a < 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_alpha_sample_below_n4(self, n):
        # the adversarial denominator isqrt(n) - 1 is 0 here and is skipped
        alphas = sweep_alphas(n, 4)
        assert alphas[:4] == [Fraction(t, 4) for t in range(4)]
        assert all(0 <= a < 1 for a in alphas)

    def test_boundary_alphas_straddle_cases(self):
        # a/d +- 1/n sits exactly on the branch-1/branch-3 threshold
        n = 1024
        base = Fraction(1, 3)
        at = certify(base + Fraction(1, n), n)
        inside = certify(base + Fraction(1, n) - Fraction(1, n * n), n)
        assert at.case_tag == 3      # err == 1/n is not < 1/n
        assert inside.case_tag == 1  # err just below 1/n, d1 = 3


def _golden_sample(n: int) -> list[Fraction]:
    """The sweep recipe plus 500 seeded rationals with q <= 10**18."""
    alphas = sweep_alphas(n, 500, n_random=500, seed=1)
    rng = random.Random(n)
    for _ in range(500):
        q = rng.randint(1, 10 ** 18)
        alphas.append(Fraction(rng.randint(0, q - 1), q))
    return alphas


# SHA-256 of the certificates' JSON lines, taken before certify() moved from
# Fraction arithmetic to integer comparisons; pins every field, a2, gamma,
# b, d and mu included.
GOLDEN_CERTIFICATES = [
    (576, 3792, "135d25af6c9e34e27c4250d2750e4b826ef72be92b36b5e6d164a6ce2b89e8f2"),
    (4096, 4540, "5fe446192aa706b86c3eb2f179f789edec557a865f307938137ade1d185ef390"),
    (2 ** 18, 11360, "8c43ab3f8bcc47b2a7731af021148437b68af33f1d752fe541ce0d669a83a917"),
    (10 ** 7, 47616, "43c445175d8adce2f746d9a7f0d06122d673a751657ddcac93d22c4b8d560f22"),
]


@pytest.mark.parametrize("n, count, digest", GOLDEN_CERTIFICATES)
def test_golden_certificates(n, count, digest):
    alphas = _golden_sample(n)
    assert len(alphas) == count
    h = hashlib.sha256()
    for alpha in alphas:
        h.update((json.dumps(certify(alpha, n).to_json_dict()) + "\n").encode())
    assert h.hexdigest() == digest
