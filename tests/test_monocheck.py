import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqgamma.monocheck import (
    _STEPS,
    GridSpec,
    MonotonicityReport,
    check_cm,
    check_decreasing,
    check_lcm,
    check_log_convex,
    difference_table,
    forward_difference,
)
from pqgamma.gammafam import log_gamma_pq
from pqgamma.paperfuncs import check_young_bracket, run_sec4_campaign
from pqgamma.qcore import DomainError, PQParams


class TestForwardDifference:
    def test_kills_constants(self):
        assert forward_difference(lambda x: 3.0, 1.7, 0.3, 1) == 0.0

    def test_exact_on_square(self):
        assert forward_difference(lambda x: x * x, 0.0, 1.0, 2) == 2.0

    def test_exponential_closed_form(self):
        # Delta^n e^{-x} = (e^{-h}-1)^n e^{-x}
        got = forward_difference(lambda x: math.exp(-x), 0.0, 0.1, 3)
        expect = (math.exp(-0.1) - 1.0) ** 3
        assert got == pytest.approx(expect, rel=1e-12)
        assert got < 0 and (-1.0) ** 3 * got > 0

    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=5),
        st.floats(0.05, 2.0),
        st.floats(-3, 3),
    )
    @settings(max_examples=50)
    def test_annihilates_low_degree_polynomials(self, coeffs, h, x):
        n = len(coeffs)  # differences of order n kill degree < n

        def poly(t):
            return math.fsum(c * t**k for k, c in enumerate(coeffs))

        largest = max(abs(c) * (abs(x) + n * h) ** k for k, c in enumerate(coeffs))
        bound = n * 2**n * 2.3e-16 * max(1.0, largest) * 10
        assert abs(forward_difference(poly, x, h, n)) <= bound

    @pytest.mark.parametrize("c", [0.5, 1.0, 3.0])
    def test_cm_closed_form_for_decaying_exponential(self, c):
        for n in range(0, 7):
            for x in (0.0, 0.5, 2.0):
                got = (-1.0) ** n * forward_difference(lambda t: math.exp(-c * t), x, 0.2, n)
                expect = (1 - math.exp(-c * 0.2)) ** n * math.exp(-c * x)
                assert got == pytest.approx(expect, rel=1e-12)
                assert got > 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            forward_difference(math.exp, 0.0, -0.1, 1)
        with pytest.raises(DomainError):
            forward_difference(math.exp, 0.0, 0.1, -1)


class TestDifferenceTable:
    def test_recursion_identity_is_exact(self):
        vals = [math.sin(0.3 * i) for i in range(8)]
        rows = difference_table(vals)
        for n in range(1, len(rows)):
            for i in range(len(rows[n])):
                assert rows[n][i] == rows[n - 1][i + 1] - rows[n - 1][i]

    def test_matches_binomial_form(self):
        f = lambda x: math.exp(-x)
        h = 0.17
        vals = [f(j * h) for j in range(7)]
        rows = difference_table(vals)
        for n in range(7):
            assert rows[n][0] == pytest.approx(forward_difference(f, 0.0, h, n), abs=1e-13)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(2.0, 1.0)
        for lo, hi in ((0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)):
            with pytest.raises(DomainError):
                GridSpec(lo, hi)

    def test_stencils_stay_inside(self):
        # every abscissa a campaign evaluates is x + j h for a grid point x and an
        # h of _STEPS, and none leaves [lo, hi]
        grid = GridSpec(0.5, 2.0, points=16)
        stencils = {x0 + j * h for x0 in grid.xs() for h in _STEPS for j in range(7)}
        for check in (check_cm, check_lcm):
            seen = []

            def f(x):
                seen.extend(x.tolist())
                return np.exp(-x)

            report = check(f, grid)
            assert report.evaluations == len(seen)
            assert all(grid.lo <= x <= grid.hi + 1e-12 for x in seen)
            assert set(seen) <= stencils
            for h in _STEPS:  # each step is used
                assert any(x0 in seen and x0 + h in seen for x0 in grid.xs())


class TestCheckCM:
    def test_canonical_pass(self):
        assert check_cm(lambda x: np.exp(-x), GridSpec(0.0, 5.0)).verdict == "pass"

    def test_increasing_linear_fails_at_order_one(self):
        report = check_cm(lambda x: x, GridSpec(0.0, 5.0))
        assert report.verdict == "fail"
        assert report.witness[1] == 1
        assert report.min_slack < -report.tolerance_used

    def test_nonnegative_combination_closure(self):
        f = lambda x: 2.0 * np.exp(-x) + 0.7 / x + 1.3 / (x + 1)
        assert check_cm(f, GridSpec(0.5, 5.0)).verdict == "pass"

    def test_product_closure(self):
        f = lambda x: np.exp(-x) * (1.0 / (x + 1))
        assert check_cm(f, GridSpec(0.0, 5.0)).verdict == "pass"

    def test_report_invariant(self):
        report = check_cm(lambda x: np.exp(-x), GridSpec(0.0, 5.0))
        assert (report.verdict == "pass") == (report.min_slack >= -report.tolerance_used)
        assert report.evaluations > 0

    def test_deterministic(self):
        f = lambda x: np.exp(-x)
        assert check_cm(f, GridSpec(0.0, 5.0)) == check_cm(f, GridSpec(0.0, 5.0))


class TestCheckLCM:
    def test_exp_reciprocal_passes(self):
        assert check_lcm(lambda x: np.exp(1.0 / x), GridSpec(0.5, 5.0)).verdict == "pass"

    def test_exp_fails_at_order_one(self):
        report = check_lcm(np.exp, GridSpec(0.0, 5.0))
        assert report.verdict == "fail"
        assert report.witness[1] == 1

    def test_order_zero_excluded(self):
        # e^{2/x} > 1 is not CM-relevant at order 0; LCM only tests n >= 1
        report = check_lcm(lambda x: 3.0 * np.exp(1.0 / x), GridSpec(0.5, 5.0))
        assert report.verdict == "pass"

    def test_nonpositive_function_raises(self):
        with pytest.raises(DomainError):
            check_lcm(lambda x: x - 1.0, GridSpec(0.0, 5.0))


class TestCheckLogConvex:
    def test_exp_square_passes(self):
        assert check_log_convex(lambda x: math.exp(x * x), GridSpec(0.01, 3.0)).verdict == "pass"

    def test_identity_fails(self):
        assert check_log_convex(lambda x: x, GridSpec(1.0, 5.0)).verdict == "fail"

    def test_seeded_and_deterministic(self):
        f = lambda x: math.exp(x * x)
        r1 = check_log_convex(f, GridSpec(0.5, 3.0, seed=7))
        r2 = check_log_convex(f, GridSpec(0.5, 3.0, seed=7))
        assert r1 == r2
        assert r1.seed == 7
        r3 = check_log_convex(f, GridSpec(0.5, 3.0, seed=8))
        assert r3.witness != r1.witness

    def test_triple_count(self):
        grid = GridSpec(0.5, 3.0, points=8)
        report = check_log_convex(lambda x: math.exp(x * x), grid)
        assert report.evaluations == 3 * 8**2


class TestCheckDecreasing:
    def test_negated_identity_passes(self):
        assert check_decreasing(lambda x: -x, GridSpec(0.0, 5.0)).verdict == "pass"

    def test_square_fails(self):
        assert check_decreasing(lambda x: x * x, GridSpec(1.0, 2.0)).verdict == "fail"


NON_FINITE_GRID = GridSpec(0.5, 6.0, points=8)
# each check with an f that gives v everywhere
NON_FINITE_CHECKS = {
    "check_cm": lambda v: check_cm(lambda x: np.full(x.shape, v), NON_FINITE_GRID),
    "check_lcm": lambda v: check_lcm(lambda x: np.full(x.shape, v), NON_FINITE_GRID),
    "check_log_convex": lambda v: check_log_convex(lambda x: v, NON_FINITE_GRID),
    "check_decreasing": lambda v: check_decreasing(lambda x: v, NON_FINITE_GRID),
}


class TestNonFiniteValues:
    # a NaN fails every comparison and an inf makes the tolerance inf, so a check that took
    # either as a value would pass
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("check", sorted(NON_FINITE_CHECKS))
    def test_raises_domain_error_naming_the_abscissa(self, check, value):
        with pytest.raises(DomainError, match=rf"^f\(\d[\d.]*\) = {value}"):
            NON_FINITE_CHECKS[check](value)

    def test_a_nan_among_finite_values_is_not_skipped(self):
        # the first abscissa above 3 in (x, h, j) order is 0.5 + 6 * 0.5
        with pytest.raises(DomainError, match=r"^f\(3\.5\) = nan is not finite$"):
            check_cm(lambda x: np.where(x > 3.0, np.nan, 1.0 / x), NON_FINITE_GRID)


# every campaign of the package, as tol_scale -> report (the sec4 result dict has a tolerance)
SMALL_GRID = GridSpec(0.5, 2.0, points=4)
TOL_SCALE_CAMPAIGNS = {
    "check_cm": lambda t: check_cm(lambda x: np.exp(-x), SMALL_GRID, t),
    "check_lcm": lambda t: check_lcm(lambda x: np.exp(-x) + 1.0, SMALL_GRID, t),
    "check_log_convex": lambda t: check_log_convex(math.exp, SMALL_GRID, t),
    "check_decreasing": lambda t: check_decreasing(lambda x: -x, SMALL_GRID, t),
    "check_young_bracket": lambda t: check_young_bracket(SMALL_GRID, t),
    "run_sec4_campaign": lambda t: run_sec4_campaign(PQParams(3, 0.5), samples=5, tol_scale=t),
}


class TestTolScale:
    @pytest.mark.parametrize("tol_scale", [math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("campaign", sorted(TOL_SCALE_CAMPAIGNS))
    def test_rejects_non_finite_or_negative(self, campaign, tol_scale):
        with pytest.raises(DomainError, match="tol_scale"):
            TOL_SCALE_CAMPAIGNS[campaign](tol_scale)

    @pytest.mark.parametrize("campaign", sorted(TOL_SCALE_CAMPAIGNS))
    def test_zero_is_an_exact_sign_test(self, campaign):
        report = TOL_SCALE_CAMPAIGNS[campaign](0.0)
        tolerance = report["tolerance"] if isinstance(report, dict) else report.tolerance_used
        assert tolerance == 0.0

    def test_an_infinite_scale_would_pass_a_negative_control(self):
        # Gamma_{4,0.5} is not completely monotonic
        params = PQParams(4, 0.5)
        gamma, grid = (lambda x: np.exp(log_gamma_pq(x, params))), GridSpec(0.5, 6.0, 8)
        assert check_cm(gamma, grid).verdict == "fail"
        with pytest.raises(DomainError):
            check_cm(gamma, grid, math.inf)


def test_report_is_frozen():
    report = MonotonicityReport("pass", 0.0, (0.0, 0, 0.1), 1e-13, 10)
    with pytest.raises(AttributeError):
        report.verdict = "fail"
