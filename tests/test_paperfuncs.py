import math

import mpmath
import numpy as np
import pytest

from pqgamma.gammafam import log_gamma_pq
from pqgamma.monocheck import GridSpec, check_cm, check_decreasing, check_lcm
from pqgamma.paperfuncs import (
    AffineInequalitySpec,
    RatioSpec,
    TwoPointSpec,
    f1,
    f_theorem32,
    h_beta,
    lemma_sign_check,
    log_G_pq,
    phi,
    validate_ratio_spec,
)
from pqgamma.psifam import psi_pq, psi_pq_deriv
from pqgamma.qcore import DomainError, PQParams

P35 = PQParams(3, 0.5)


class TestRatioSpec:
    def test_valid(self):
        assert validate_ratio_spec(RatioSpec((1, 2), (1.5, 2.5))) is None

    def test_partial_sum_violation_named(self):
        msg = validate_ratio_spec(RatioSpec((1, 2), (0.5, 5)))
        assert msg is not None and "k=1" in msg

    def test_ordering_violation(self):
        msg = validate_ratio_spec(RatioSpec((2, 1), (3, 4)))
        assert msg is not None and "a not nondecreasing" in msg

    def test_length_mismatch_raises(self):
        with pytest.raises(DomainError):
            validate_ratio_spec(RatioSpec((1,), (1, 2)))


class TestLogG:
    def test_equal_vectors_give_zero(self):
        spec = RatioSpec((0.5, 1.5, 2.0), (0.5, 1.5, 2.0))
        for x in (0.3, 1.0, 4.4):
            assert log_G_pq(x, spec, P35) == 0.0

    def test_matches_brute_force_gamma_oracle(self):
        spec = RatioSpec((1, 2), (1.5, 2.5))
        with mpmath.workdps(50):
            qm = mpmath.mpf(0.5)

            def br(n):
                return (1 - qm**n) / (1 - qm)

            def gam(x):
                num = br(3) ** x
                for k in range(1, 4):
                    num *= br(k)
                den = mpmath.mpf(1)
                for k in range(0, 4):
                    den *= br(x + k)
                return num / den

            expect = float(
                mpmath.log(gam(1 + 1) / gam(1 + 1.5) * gam(1 + 2) / gam(1 + 2.5))
            )
        assert log_G_pq(1.0, spec, P35) == pytest.approx(expect, rel=1e-13)

    def test_completely_monotonic(self):
        spec = RatioSpec((1, 2), (1.5, 2.5))
        report = check_cm(lambda x: np.exp(log_G_pq(x, spec, P35)), GridSpec(0.5, 6.0))
        assert report.verdict == "pass"

    def test_invalid_spec_raises(self):
        with pytest.raises(DomainError):
            log_G_pq(1.0, RatioSpec((1, 2), (0.5, 5)), P35)

    def test_alzer_rearrangement_consequence(self):
        # for a validated spec, sum e^{-b_i} <= sum e^{-a_i}
        for spec in (
            RatioSpec((1, 2), (1.5, 2.5)),
            RatioSpec((0.5, 0.5, 3), (0.5, 1, 3.5)),
            RatioSpec((2,), (2.5,)),
        ):
            assert validate_ratio_spec(spec) is None
            assert sum(math.exp(-b) for b in spec.b) <= sum(math.exp(-a) for a in spec.a)


class TestFTheorem32:
    def test_as_defined_hand_value(self):
        # x=1, p=2, q=1/2: 1/((6/7)(6/7)) = 49/36
        got = f_theorem32(1.0, PQParams(2, 0.5), "as_defined")
        assert got == pytest.approx(49 / 36, rel=1e-13)

    def test_as_proved_hand_value(self):
        got = f_theorem32(1.0, PQParams(2, 0.5), "as_proved")
        assert got == pytest.approx(math.exp(-log_gamma_pq(2.0, PQParams(2, 0.5))), rel=1e-13)

    def test_as_proved_variant_is_lcm(self):
        report = check_lcm(lambda x: f_theorem32(x, P35, "as_proved"), GridSpec(0.5, 6.0))
        assert report.verdict == "pass"

    def test_unknown_variant(self):
        with pytest.raises(DomainError):
            f_theorem32(1.0, P35, "bogus")


class TestPhi:
    def test_first_order_expansion_bound(self):
        spec = TwoPointSpec(2.0, 2.0 - 1e-9, 0.5)
        got = phi(1.0, spec, P35)
        approx = psi_pq_deriv(3.0, P35, 1) * 1e-9
        assert got == pytest.approx(approx, rel=1e-4)

    def test_positive_when_s_gt_t(self):
        spec = TwoPointSpec(2.0, 1.0, 0.5)
        got = phi(1.0, spec, P35)
        assert got == pytest.approx(psi_pq(3.0, P35) - psi_pq(2.0, P35), rel=1e-14)
        assert got > 0

    def test_completely_monotonic_in_u(self):
        spec = TwoPointSpec(2.0, 1.0, 0.5)
        report = check_cm(lambda u: phi(u, spec, P35), GridSpec(0.1, 6.0))
        assert report.verdict == "pass"

    def test_domain_error(self):
        spec = TwoPointSpec(2.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            phi(-1.5, spec, P35)


class TestHBeta:
    SPEC = TwoPointSpec(2.0, 1.0, 0.5)

    def test_exact_at_beta(self):
        expect = math.exp(psi_pq(self.SPEC.beta + 2.0, P35) - psi_pq(self.SPEC.beta + 1.0, P35))
        assert h_beta(0.5, self.SPEC, P35) == pytest.approx(expect, rel=1e-15)

    def test_branch_crossover_is_smooth(self):
        # quotient branch just outside the switch radius vs the midpoint fill
        x = self.SPEC.beta + 1e-4
        quotient = h_beta(x, self.SPEC, P35)
        fill = math.exp(phi(0.5 * (x + self.SPEC.beta), self.SPEC, P35))
        assert abs(quotient - fill) <= 1e-6 * fill

    def test_lcm_when_s_gt_t(self):
        report = check_lcm(lambda x: h_beta(x, self.SPEC, P35), GridSpec(0.6, 5.0))
        assert report.verdict == "pass"

    def test_swap_symmetry(self):
        swapped = TwoPointSpec(1.0, 2.0, 0.5)
        for x in (0.3, 1.1, 4.2):
            assert h_beta(x, swapped, P35) * h_beta(x, self.SPEC, P35) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_domain_error(self):
        with pytest.raises(DomainError):
            h_beta(-1.0, self.SPEC, P35)

    def test_two_point_spec_validation(self):
        with pytest.raises(DomainError):
            TwoPointSpec(1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            TwoPointSpec(2.0, 1.0, -1.5)


class TestF1:
    def test_identical_numerator_denominator(self):
        spec = AffineInequalitySpec(1.0, 1.0, 0.8, 1.0, 1.0, 0.8)
        for x in (0.0, 0.5, 1.0):
            assert f1(x, spec, P35) == pytest.approx(1.0, rel=1e-15)

    def test_value_at_zero_is_right_end(self):
        spec = AffineInequalitySpec(1.0, 1.0, 1.0, 1.5, 2.0, 1.0)
        expect = math.exp(log_gamma_pq(1.0, P35) - log_gamma_pq(1.5, P35))
        assert f1(0.0, spec, P35) == pytest.approx(expect, rel=1e-14)

    def test_decreasing_under_lemma_hypotheses(self):
        spec = AffineInequalitySpec(2.0, 1.0, 1.0, 2.5, 2.0, 1.0)
        xs = [i / 20 for i in range(21)]
        gates = [lemma_sign_check(spec, P35, x, "L42") for x in xs]
        assert all(g.hypotheses_hold for g in gates)
        report = check_decreasing(
            lambda x: f1(x, spec, P35), GridSpec(0.0, 1.0, points=21)
        )
        assert report.verdict == "pass"

    def test_domain_error(self):
        spec = AffineInequalitySpec(0.1, -1.0, 1.0, 1.5, 2.0, 1.0)
        with pytest.raises(DomainError):
            f1(1.0, spec, P35)


class TestLemmaSignCheck:
    def test_l41_ordering_forces_conclusion(self):
        spec = AffineInequalitySpec(1.0, 1.0, 0.0, 2.0, 1.0, 0.0)
        for x in (0.0, 0.5, 1.0, 3.0):
            res = lemma_sign_check(spec, P35, x, "L41")
            assert res.hypotheses_hold and res.conclusion_holds

    def test_l42_coefficient_gate(self):
        # bc > ef: hypotheses must fail
        spec = AffineInequalitySpec(2.0, 2.0, 2.0, 2.5, 1.0, 0.5)
        res = lemma_sign_check(spec, P35, 0.1, "L42")
        assert not res.hypotheses_hold

    def test_l42_conclusion_when_qualified(self):
        spec = AffineInequalitySpec(2.0, 1.0, 1.0, 2.5, 2.0, 1.0)
        res = lemma_sign_check(spec, P35, 0.5, "L42")
        assert res.hypotheses_hold and res.conclusion_holds

    def test_l43_negative_psi_qualifies(self):
        # psi_{1,1/2}(1) = ln(1/2)(1 + 1/3) < 0
        params = PQParams(1, 0.5)
        assert psi_pq(1.0, params) < 0
        spec = AffineInequalitySpec(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        res = lemma_sign_check(spec, params, 0.0, "L43")
        assert res.hypotheses_hold and res.conclusion_holds

    def test_unknown_lemma(self):
        spec = AffineInequalitySpec(1.0, 1.0, 1.0, 2.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            lemma_sign_check(spec, P35, 0.0, "L99")
