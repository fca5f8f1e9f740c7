import math
import sys

import mpmath
import numpy as np
import pytest

from pqgamma.gammafam import log_gamma_p, log_gamma_pq, log_gamma_q
from pqgamma.psifam import (
    euler_gamma,
    psi_classical,
    psi_p,
    psi_pq,
    psi_pq_deriv,
    psi_q,
    psi_q_deriv,
)
from pqgamma.qcore import DomainError, PQParams


def centered(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


def brute_psi_pq_deriv(x, p, q, n, dps=60, m_max=4000):
    """Term-wise n-th derivative of the k-sum, as a double series in extended precision."""
    with mpmath.workdps(dps):
        qm = mpmath.mpf(q)
        lq = mpmath.log(qm)
        total = mpmath.mpf(0)
        for k in range(0, p + 1):
            for m in range(1, m_max + 1):
                total += mpmath.mpf(m) ** n * qm ** (m * (x + k))
        return float(lq ** (n + 1) * total)


class TestPsiPQ:
    def test_series_value_two_terms(self):
        # p=1, q=1/2, x=1: ln[1]_q = 0 and the k-sum is 1 + 1/3
        expect = math.log(0.5) * (1 + 1 / 3)
        assert psi_pq(1.0, PQParams(1, 0.5)) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("p,q", [(1, 0.5), (3, 0.7), (10, 0.9)])
    def test_is_log_derivative_of_gamma_pq(self, p, q):
        params = PQParams(p, q)
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            fd = centered(lambda z: log_gamma_pq(z, params), x, 1e-5)
            assert psi_pq(x, params) == pytest.approx(fd, rel=1e-6)

    def test_increasing(self):
        params = PQParams(3, 0.9)
        xs = [0.1 + 0.25 * i for i in range(40)]
        vals = [psi_pq(x, params) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert psi_pq(2.0, params) > psi_pq(1.0, params)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            psi_pq(0.0, PQParams(1, 0.5))


class TestPsiPQDeriv:
    def test_first_derivative_matches_centered_difference(self):
        params = PQParams(1, 0.5)
        fd = centered(lambda z: psi_pq(z, params), 1.0, 1e-5)
        assert psi_pq_deriv(1.0, params, 1) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_sign_pattern(self, n):
        for p, q in ((1, 0.3), (3, 0.5), (10, 0.8)):
            params = PQParams(p, q)
            for x in (0.25, 1.0, 3.0, 9.5):
                v = psi_pq_deriv(x, params, n)
                assert math.copysign(1.0, v) == (-1.0) ** (n + 1)

    @pytest.mark.parametrize("x,p,q,n", [
        (5.0, 2, 0.3, 2),
        (1.0, 1, 0.5, 1),
        (2.5, 5, 0.6, 2),
        (0.7, 4, 0.4, 3),
    ])
    def test_against_double_series_oracle(self, x, p, q, n):
        got = psi_pq_deriv(x, PQParams(p, q), n)
        assert got == pytest.approx(brute_psi_pq_deriv(x, p, q, n), rel=1e-12)

    def test_rejects_order_zero(self):
        with pytest.raises(DomainError):
            psi_pq_deriv(1.0, PQParams(1, 0.5), 0)


def ref_psi_p(x, p):
    """ln p - sum_{k=0}^{p} 1/(x+k) = ln p - psi(x+p+1) + psi(x), with x + p + 1 formed in
    mpmath: as a float sum it would cost 4.5e-10 at x = 3.7, p = 10^6."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        return float(mpmath.log(p) - mpmath.digamma(x + p + 1) + mpmath.digamma(x))


class TestPsiP:
    def test_hand_value(self):
        assert psi_p(1.0, 1) == -1.5

    @pytest.mark.parametrize("p", (1, 9, 10, 11, 1000, 10**5, 10**6))
    @pytest.mark.parametrize("x", (1e-3, 0.05, 0.7, 1.5, 3.7, 30.0))
    def test_against_mpmath(self, x, p):
        ref = ref_psi_p(x, p)
        assert abs(psi_p(x, p) - ref) <= 5e-15 * max(1.0, abs(ref))

    def test_limit_is_minus_euler_gamma(self):
        assert psi_p(1.0, 10**6) == pytest.approx(-euler_gamma(), abs=1e-5)

    def test_matches_centered_difference_of_log_gamma_p(self):
        for p in (1, 10, 200):
            for x in (0.5, 2.0, 7.0):
                fd = centered(lambda z: log_gamma_p(z, p), x, 1e-5)
                assert psi_p(x, p) == pytest.approx(fd, rel=1e-6)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            psi_p(0.0, 3)


class TestPsiQ:
    def test_matches_centered_difference_branch_q_lt_1(self):
        for x in (0.5, 1.0, 2.0, 4.0):
            fd = centered(lambda z: log_gamma_q(z, 0.5), x, 1e-5)
            assert psi_q(x, 0.5) == pytest.approx(fd, rel=1e-6)

    def test_matches_centered_difference_branch_q_gt_1(self):
        fd = centered(lambda z: log_gamma_q(z, 3.0), 2.0, 1e-5)
        assert psi_q(2.0, 3.0) == pytest.approx(fd, rel=1e-6)

    def test_limit_q_to_one(self):
        assert psi_q(1.0, 1 - 1e-6) == pytest.approx(-euler_gamma(), abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            psi_q(-1.0, 0.5)
        with pytest.raises(DomainError):
            psi_q(1.0, 1.0)


class TestPsiQDeriv:
    def test_positive_first_derivative_q_lt_1(self):
        assert psi_q_deriv(2.0, 0.5, 1) > 0

    def test_q_gt_1_literal_series_value(self):
        # ln 2 (1 + sum_m m 2^{-m}/(1-2^{-m})) at x=1
        s = math.fsum(m * 2.0**-m / (1 - 2.0**-m) for m in range(1, 200))
        got = psi_q_deriv(1.0, 2.0, 1)
        assert got == pytest.approx(math.log(2) * (1 + s), rel=1e-12)
        assert got > 0

    def test_matches_centered_difference_q_lt_1(self):
        for x in (0.7, 1.5, 3.0):
            fd = centered(lambda z: psi_q(z, 0.5), x, 1e-5)
            assert psi_q_deriv(x, 0.5, 1) == pytest.approx(fd, rel=1e-6)

    def test_sign_pattern_q_lt_1_for_x_gt_1(self):
        # the stated sign range for this branch is x > 1
        for k in (1, 2, 3, 4):
            for x in (1.1, 2.0, 5.0):
                v = psi_q_deriv(x, 0.5, k)
                assert math.copysign(1.0, v) == (-1.0) ** (k - 1)

    def test_sign_pattern_q_gt_1(self):
        for k in (1, 2, 3, 4):
            for x in (0.3, 1.0, 4.0):
                v = psi_q_deriv(x, 3.0, k)
                assert math.copysign(1.0, v) == (-1.0) ** (k - 1)


class TestPsiClassical:
    def test_known_values(self):
        assert psi_classical(1.0) == pytest.approx(-euler_gamma(), rel=1e-12)
        assert psi_classical(2.0) == pytest.approx(1 - euler_gamma(), rel=1e-12)
        assert psi_classical(0.5) == pytest.approx(
            -euler_gamma() - 2 * math.log(2), rel=1e-12
        )

    def test_against_mpmath_sweep(self):
        x = 0.11
        while x < 170:
            assert psi_classical(x) == pytest.approx(
                float(mpmath.digamma(x)), rel=1e-12, abs=1e-12
            )
            x += 3.417

    def test_domain_error(self):
        with pytest.raises(DomainError):
            psi_classical(-2.0)


class TestPsiDiagram:
    def test_pq_to_q_as_p_grows(self):
        x, q = 1.3, 0.9
        target = psi_q(x, q)
        gaps = [abs(psi_pq(x, PQParams(p, q)) - target) for p in (10, 100, 1000)]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-10

    def test_pq_to_p_as_q_to_one(self):
        x, p = 2.0, 10
        target = psi_p(x, p)
        gaps = [abs(psi_pq(x, PQParams(p, q)) - target) for q in (0.9, 0.99, 0.999, 0.9999)]
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_p_to_classical(self):
        x = 1.0
        target = psi_classical(x)
        gaps = [abs(psi_p(x, p) - target) for p in (100, 10000, 1000000)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-5


# (function of x, derivative order n): near its pole at 0 each is about (-1)^{n+1} n!/x^{n+1}
POLE_CASES = {
    "psi_pq": (lambda x: psi_pq(x, PQParams(3, 0.5)), 0),
    "psi_pq-array": (lambda x: psi_pq(np.array([1.0, x]), PQParams(3, 0.5))[1], 0),
    "psi_q-0.5": (lambda x: psi_q(x, 0.5), 0),
    "psi_q-2": (lambda x: psi_q(x, 2.0), 0),
    "psi_p": (lambda x: psi_p(x, 3), 0),
    "psi_p-20": (lambda x: psi_p(x, 20), 0),
    "psi_classical": (psi_classical, 0),
    "psi_q_deriv": (lambda x: psi_q_deriv(x, 0.5, 1), 1),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", [1e-160, 1e-300, 1e-320])
@pytest.mark.parametrize("name", sorted(POLE_CASES))
def test_near_the_pole_a_value_is_finite_or_overflows(name, x):
    f, n = POLE_CASES[name]
    ref = (-1) ** (n + 1) * mpmath.factorial(n) / mpmath.mpf(x) ** (n + 1)
    if abs(ref) > sys.float_info.max:
        with pytest.raises(OverflowError, match="pole at 0"):
            f(x)
    else:
        assert f(x) == pytest.approx(float(ref), rel=1e-12)
