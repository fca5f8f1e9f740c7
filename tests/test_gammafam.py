import math
import random

import mpmath
import pytest

from pqgamma.gammafam import (
    log_gamma_classical,
    log_gamma_p,
    log_gamma_pq,
    log_gamma_q,
)
from pqgamma.qcore import DomainError, PQParams, q_bracket


def brute_log_gamma_pq(x, p, q, dps=50):
    """Direct product evaluation of the defining formula in extended precision.  x is taken
    as an mpf, so that no shift x + k is rounded to a double."""
    with mpmath.workdps(dps):
        qm, x = mpmath.mpf(q), mpmath.mpf(x)

        def br(n):
            return (1 - qm**n) / (1 - qm)

        num = br(p) ** x
        for k in range(1, p + 1):
            num *= br(k)
        den = mpmath.mpf(1)
        for k in range(0, p + 1):
            den *= br(x + k)
        return float(mpmath.log(num / den))


class TestLogGammaPQ:
    def test_value_at_one_hand(self):
        # Gamma_{2,1/2}(1) = [2]_q / [3]_q = 1.5/1.75 = 6/7
        assert log_gamma_pq(1.0, PQParams(2, 0.5)) == pytest.approx(math.log(6 / 7), rel=1e-14)

    @pytest.mark.parametrize("p", [1, 3, 10])
    @pytest.mark.parametrize("q", [0.2, 0.5, 0.9])
    def test_value_at_one_telescopes(self, p, q):
        expect = math.log(q_bracket(p, q) / q_bracket(p + 1, q))
        assert log_gamma_pq(1.0, PQParams(p, q)) == pytest.approx(expect, rel=1e-13)

    def test_against_brute_force_oracle(self):
        assert log_gamma_pq(2.5, PQParams(5, 0.7)) == pytest.approx(
            brute_log_gamma_pq(2.5, 5, 0.7), rel=1e-13
        )

    @pytest.mark.parametrize("p, q, xs", [
        *((p, q, (0.05, 0.7, 3.3, 9.0)) for p in (1, 4, 50, 1000)
          for q in (0.1, 0.5, 0.9, 0.99, 0.999)),
        (10**4, 0.999, (3.3,)),
        (10**4, 0.9, (0.05,)),
    ])
    def test_within_1e14_of_the_oracle_up_to_large_p_and_q_near_one(self, p, q, xs):
        # the sums of ln[k]_q and ln[x+k]_q each grow like p ln(1/(1-q)); added unpaired
        # they cancel to 9.1e-12 at (3.3, 10^4, 0.999)
        for x in xs:
            ref = brute_log_gamma_pq(x, p, q)
            assert abs(log_gamma_pq(x, PQParams(p, q)) - ref) <= 1e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("p,q", [(2, 0.3), (7, 0.6), (20, 0.9)])
    def test_recurrence(self, p, q):
        params = PQParams(p, q)
        rng = random.Random(7)
        for _ in range(30):
            x = rng.uniform(0.05, 10.0)
            lhs = log_gamma_pq(x + 1, params) - log_gamma_pq(x, params)
            rhs = (
                math.log(q_bracket(p, q))
                + math.log(q_bracket(x, q))
                - math.log(q_bracket(x + p + 1, q))
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_log_convexity_sampled(self):
        params = PQParams(4, 0.6)
        rng = random.Random(11)
        for _ in range(200):
            x, y = rng.uniform(0.1, 10), rng.uniform(0.1, 10)
            a = rng.uniform(0.0, 1.0)
            lhs = log_gamma_pq(a * x + (1 - a) * y, params)
            rhs = a * log_gamma_pq(x, params) + (1 - a) * log_gamma_pq(y, params)
            assert lhs <= rhs + 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log_gamma_pq(0.0, PQParams(2, 0.5))
        with pytest.raises(DomainError):
            log_gamma_pq(-1.0, PQParams(2, 0.5))


def ref_log_gamma_p(x, p):
    """ln(p! p^x / (x (x+1) ... (x+p))) from mpmath's log-gamma at 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return float(x * mpmath.log(p) + mpmath.loggamma(p + 1) + mpmath.loggamma(x)
                     - mpmath.loggamma(x + p + 1))


class TestLogGammaP:
    def test_hand_value(self):
        assert log_gamma_p(1.0, 1) == pytest.approx(math.log(0.5), rel=1e-14)

    @pytest.mark.parametrize("p", (1, 9, 10, 11, 1000, 10**5, 10**6))
    @pytest.mark.parametrize("x", (1e-3, 0.05, 0.7, 1.5, 3.7, 30.0))
    def test_against_mpmath(self, x, p):
        ref = ref_log_gamma_p(x, p)
        assert abs(log_gamma_p(x, p) - ref) <= 1e-14 * max(1.0, abs(ref))

    def test_limit_at_one(self):
        assert abs(log_gamma_p(1.0, 10**5)) < 1e-4

    def test_limit_at_half(self):
        assert log_gamma_p(0.5, 10**4) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_gamma_p(-1.0, 3)
        with pytest.raises(DomainError):
            log_gamma_p(1.0, 0)


class TestLogGammaQ:
    def test_at_one_both_branches(self):
        assert abs(log_gamma_q(1.0, 0.5)) < 1e-13
        assert abs(log_gamma_q(1.0, 3.0)) < 1e-13

    def test_at_two(self):
        # Gamma_q(2) = [1]_q = 1 by the q-recurrence
        assert abs(log_gamma_q(2.0, 0.5)) < 1e-13
        assert abs(log_gamma_q(2.0, 3.0)) < 1e-13

    def test_brute_force_product(self):
        # ln Gamma_q(x) from the defining products, 10^4 factors each
        x, q = 2.7, 0.5
        num = math.fsum(math.log1p(-(q ** (j + 1))) for j in range(10**4))
        den = math.fsum(math.log1p(-(q ** (x + j))) for j in range(10**4))
        expect = num - den + (1 - x) * math.log1p(-q)
        assert log_gamma_q(x, q) == pytest.approx(expect, rel=1e-12)

    def test_limit_q_to_one(self):
        got = log_gamma_q(0.5, 1 - 1e-6)
        assert got == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            log_gamma_q(0.0, 0.5)
        with pytest.raises(DomainError):
            log_gamma_q(1.0, 1.0)
        with pytest.raises(DomainError):
            log_gamma_q(1.0, 0.0)


class TestLogGammaClassical:
    def test_known_points(self):
        assert log_gamma_classical(1.0) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma_classical(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)
        assert log_gamma_classical(6.0) == pytest.approx(math.log(120.0), rel=1e-14)

    def test_against_lgamma_sweep(self):
        x = 0.05
        while x < 170:
            with mpmath.workdps(40):
                ref = float(mpmath.loggamma(mpmath.mpf(x)))
            assert log_gamma_classical(x) == pytest.approx(ref, rel=1e-13, abs=1e-13)
            x += 0.613

    def test_domain_error(self):
        with pytest.raises(DomainError):
            log_gamma_classical(0.0)


class TestDiagramEdges:
    def test_pq_to_q_gap_shrinks_in_p(self):
        x, q = 1.7, 0.9
        target = log_gamma_q(x, q)
        gaps = [abs(log_gamma_pq(x, PQParams(p, q)) - target) for p in (10, 100, 1000, 10000)]
        # the true gaps at p >= 1000 are below 1e-45, so what is left there is rounding
        assert all(b <= a + 1e-14 for a, b in zip(gaps, gaps[1:]))
        assert max(gaps[2:]) <= 1e-14

    def test_pq_to_p_gap_small_near_q_one(self):
        for p in (3, 30, 100):
            for x in (0.5, 2.0, 10.0):
                gap = abs(log_gamma_pq(x, PQParams(p, 1 - 1e-8)) - log_gamma_p(x, p))
                assert gap < 1e-6


class TestYoungBracketInequality:
    def test_sampled(self):
        rng = random.Random(3)
        for _ in range(500):
            x, y = rng.uniform(0, 5), rng.uniform(0, 5)
            a = rng.uniform(0, 1)
            q = rng.uniform(0.05, 0.95)
            lhs = q_bracket(1 + x, q) ** a * q_bracket(1 + y, q) ** (1 - a)
            rhs = q_bracket(1 + a * x + (1 - a) * y, q)
            assert lhs <= rhs + 1e-14
