"""Array-valued (p,q) finite sums and the campaigns built on them.

Every array call must equal the float calls element by element, bit for bit,
and the vectorised difference, Lemma 2.1 and section 4 campaigns must give the
results of the sequential loops kept here as references.
"""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqgamma import paperfuncs
from pqgamma.gammafam import log_gamma_pq
from pqgamma import monocheck, psifam
from pqgamma.monocheck import (
    _BLOCK,
    _EPS,
    _LCG,
    _MAX_ORDER,
    _STEPS,
    GridSpec,
    MonotonicityReport,
    check_cm,
    check_lcm,
    check_log_convex,
    difference_table,
)
from pqgamma.paperfuncs import (
    AffineInequalitySpec,
    RatioSpec,
    TwoPointSpec,
    _affine_columns,
    check_young_bracket,
    f1,
    f_theorem32,
    h_beta,
    lemma_sign_check,
    log_G_pq,
    phi,
    run_sec4_campaign,
)
from pqgamma.psifam import _M_ROWS, psi_pq, psi_pq_deriv
from pqgamma.qcore import _SLICE, DomainError, PQParams, TruncationError, _exp

P_VALUES = st.sampled_from([1, 3, 1000])
Q_VALUES = st.floats(0.05, 1.0 - 1e-8)
X_ARRAYS = st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=12)


def same_bits(array, scalars):
    """The array holds exactly the float results, bit for bit."""
    return (all(type(v) is float for v in scalars)
            and np.asarray(array, dtype=float).tobytes() == np.array(scalars).tobytes())


class TestKernelArrays:
    @given(P_VALUES, Q_VALUES, X_ARRAYS)
    @settings(max_examples=60, deadline=None)
    def test_log_gamma_pq_array_equals_scalar_calls(self, p, q, xs):
        params = PQParams(p, q)
        got = log_gamma_pq(np.array(xs), params)
        assert got.shape == (len(xs),)
        assert same_bits(got, [log_gamma_pq(x, params) for x in xs])

    @given(P_VALUES, Q_VALUES, X_ARRAYS)
    @settings(max_examples=60, deadline=None)
    def test_psi_pq_array_equals_scalar_calls(self, p, q, xs):
        params = PQParams(p, q)
        got = psi_pq(np.array(xs), params)
        assert got.shape == (len(xs),)
        assert same_bits(got, [psi_pq(x, params) for x in xs])

    @pytest.mark.parametrize("fn", [log_gamma_pq, psi_pq])
    @pytest.mark.parametrize("p, count", [(3, 3 * _SLICE // 4 + 5), (1000, 50), (20000, 3)])
    def test_arrays_longer_than_one_slice(self, fn, p, count):
        # count * (p + 1) terms span several slices of _SLICE terms, or one row more
        params = PQParams(p, 0.9)
        xs = np.linspace(0.05, 9.0, count)
        assert count * (p + 1) > _SLICE
        assert same_bits(fn(xs, params), [fn(x, params) for x in xs.tolist()])

    def test_array_shape_is_kept(self):
        xs = np.linspace(0.5, 3.0, 6).reshape(2, 3)
        for fn in (log_gamma_pq, psi_pq):
            got = fn(xs, PQParams(3, 0.5))
            assert got.shape == (2, 3)
            assert got[1, 2] == fn(3.0, PQParams(3, 0.5))

    @pytest.mark.parametrize("fn", [log_gamma_pq, psi_pq])
    @pytest.mark.parametrize("bad", [0.0, -1.5])
    def test_one_nonpositive_element_raises(self, fn, bad):
        with pytest.raises(DomainError):
            fn(np.array([0.5, 2.0, bad, 3.0]), PQParams(3, 0.5))


AFFINE_SPECS = st.builds(
    AffineInequalitySpec,
    st.floats(0.2, 3.0), st.floats(0.1, 2.0), st.floats(0.1, 2.0),
    st.floats(0.2, 5.0), st.floats(0.1, 4.0), st.floats(0.1, 2.0))
UNIT_ARRAYS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=21)


class TestPaperFunctionArrays:
    @given(AFFINE_SPECS, P_VALUES, Q_VALUES, UNIT_ARRAYS)
    @settings(max_examples=60, deadline=None)
    def test_f1_array_equals_scalar_calls(self, spec, p, q, xs):
        params = PQParams(p, q)
        got = f1(np.array(xs), spec, params)
        assert same_bits(got, [f1(x, spec, params) for x in xs])

    @given(AFFINE_SPECS, P_VALUES, Q_VALUES, UNIT_ARRAYS,
           st.sampled_from(["L41", "L42", "L43"]))
    @settings(max_examples=60, deadline=None)
    def test_lemma_sign_check_array_equals_scalar_calls(self, spec, p, q, xs, which):
        params = PQParams(p, q)
        got = lemma_sign_check(spec, params, np.array(xs), which)
        each = [lemma_sign_check(spec, params, x, which) for x in xs]
        assert all(type(c.hypotheses_hold) is bool for c in each)
        assert got.hypotheses_hold.tolist() == [c.hypotheses_hold for c in each]
        assert got.conclusion_holds.tolist() == [c.conclusion_holds for c in each]

    @pytest.mark.parametrize("call", [
        lambda spec, xs: f1(xs, spec, PQParams(3, 0.5)),
        lambda spec, xs: lemma_sign_check(spec, PQParams(3, 0.5), xs, "L41"),
    ])
    def test_one_nonpositive_affine_form_raises(self, call):
        spec = AffineInequalitySpec(0.5, 1.0, 1.0, 1.0, 1.0, 1.0)  # a + bx <= 0 at x <= -0.5
        with pytest.raises(DomainError, match="x=-0.5"):
            call(spec, np.array([0.0, 0.3, -0.5, 0.7]))


RATIO_SPECS = st.sampled_from([RatioSpec((1, 2), (1.5, 2.5)), RatioSpec((0.5, 1, 3), (1, 1.5, 3)),
                               RatioSpec((0.25,), (0.75,))])
TWO_POINT_SPECS = st.sampled_from([TwoPointSpec(2.0, 1.0, 0.5), TwoPointSpec(1.0, 2.5, 1.0),
                                   TwoPointSpec(0.5, -0.25, 0.3)])
# offsets from beta that straddle the removable singularity's radius of 1e-6
NEAR_BETA = st.sampled_from([0.0, 1e-7, -9e-7, 1e-6, -1e-6, 1.1e-6, 3e-3])


class TestStencilFunctionArrays:
    @given(st.sampled_from([1, 3, 50]), st.sampled_from([0.3, 0.5, 0.9]), X_ARRAYS,
           st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_psi_pq_deriv(self, p, q, xs, n):
        params = PQParams(p, q)
        got = psi_pq_deriv(np.array(xs), params, n)
        assert same_bits(got, [psi_pq_deriv(x, params, n) for x in xs])

    # 70 rows span three slices of _M_ROWS; x from lo to 20 spreads the rows' stopping
    # blocks over 1/x, and lo is as small as each q allows within the 10^6-term cap
    @pytest.mark.parametrize("q, lo", [(0.5, 1e-3), (0.9, 1e-3), (0.99, 0.01), (0.999, 0.2)])
    @pytest.mark.parametrize("p, n", [(1, 1), (4, 3), (1000, 8)])
    def test_psi_pq_deriv_over_several_slices(self, q, lo, p, n):
        params = PQParams(p, q)
        xs = np.random.default_rng(n).permutation(np.geomspace(lo, 20.0, 70))
        assert xs.size > 2 * _M_ROWS
        assert same_bits(psi_pq_deriv(xs, params, n),
                         [psi_pq_deriv(x, params, n) for x in xs.tolist()])

    def test_psi_pq_deriv_keeps_the_shape(self):
        params = PQParams(3, 0.9)
        xs = np.geomspace(0.05, 8.0, 12).reshape(3, 4)
        got = psi_pq_deriv(xs, params, 2)
        assert got.shape == (3, 4)
        assert same_bits(got.ravel(), [psi_pq_deriv(x, params, 2) for x in xs.ravel().tolist()])
        assert psi_pq_deriv(np.array(1.5), params, 2).shape == ()
        assert psi_pq_deriv(np.array([]), params, 2).shape == (0,)

    @pytest.mark.parametrize("x, q", [(1100.0, 0.5), (700.0, 0.3), (238.5, 0.05)])
    @pytest.mark.parametrize("n", [1, 2])
    def test_psi_pq_deriv_stops_once_its_terms_underflow(self, x, q, n):
        # q^x underflows to 0, or 1e-14 of it does: the sum stops after one block
        params = PQParams(3, q)
        got = psi_pq_deriv(x, params, n)
        # the term m = 1, (ln q)^{n+1} q^x (1 - q^{p+1})/(1 - q); m = 2 underflows
        lead = mpmath.log(q) ** (n + 1) * mpmath.mpf(q) ** x * (1 - mpmath.mpf(q) ** 4) / (1 - q)
        assert got == pytest.approx(float(lead), rel=1e-12, abs=0.0)
        assert math.copysign(1.0, got) == (-1.0) ** (n + 1)  # the sign of psi_pq^(n), also at 0
        xs = np.array([x, 1.5, 2 * x, 0.7])
        assert same_bits(psi_pq_deriv(xs, params, n),
                         [psi_pq_deriv(v, params, n) for v in xs.tolist()])
        assert same_bits(psi_pq_deriv(xs[[0, 2]], params, n),
                         [got, psi_pq_deriv(2 * x, params, n)])

    def test_psi_pq_deriv_names_the_first_truncated_element(self):
        # at q = 0.999, x = 0.01 and 0.005 need over 10^6 terms; x = 1 and 3 need ~4e4
        params = PQParams(3, 0.999)
        with pytest.raises(TruncationError) as scalar:
            psi_pq_deriv(0.01, params, 1)
        with pytest.raises(TruncationError) as batched:
            psi_pq_deriv(np.array([1.0, 0.01, 3.0, 0.005]), params, 1)
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("bad", [0.0, -1.5, np.nan, np.inf])
    def test_psi_pq_deriv_checks_every_x_before_summing(self, bad, monkeypatch):
        monkeypatch.setattr(psifam, "_m_block", lambda *a: pytest.fail("summed"))
        with pytest.raises(DomainError, match="x must be positive and finite"):
            # 0.001 at q = 0.9999 would hit the term cap first
            psi_pq_deriv(np.array([0.001, 2.0, bad]), PQParams(3, 0.9999), 1)

    @given(RATIO_SPECS, P_VALUES, Q_VALUES, X_ARRAYS)
    @settings(max_examples=60, deadline=None)
    def test_log_G_pq(self, spec, p, q, xs):
        params = PQParams(p, q)
        assert same_bits(log_G_pq(np.array(xs), spec, params),
                         [log_G_pq(x, spec, params) for x in xs])

    @given(P_VALUES, Q_VALUES, st.lists(st.floats(0.05, 20.0), min_size=1, max_size=12),
           st.sampled_from(["as_defined", "as_proved"]))
    @settings(max_examples=60, deadline=None)
    def test_f_theorem32(self, p, q, xs, variant):
        params = PQParams(p, q)
        assert same_bits(f_theorem32(np.array(xs), params, variant),
                         [f_theorem32(x, params, variant) for x in xs])

    @given(TWO_POINT_SPECS, P_VALUES, Q_VALUES, st.lists(st.floats(0.0, 8.0), max_size=6),
           st.lists(NEAR_BETA, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_h_beta(self, spec, p, q, offsets, near):
        params = PQParams(p, q)
        xs = [spec.beta + d for d in near] + [-spec.alpha + 0.01 + d for d in offsets]
        assert same_bits(h_beta(np.array(xs), spec, params), [h_beta(x, spec, params) for x in xs])

    @given(TWO_POINT_SPECS, P_VALUES, Q_VALUES, st.lists(st.floats(0.01, 8.0), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_phi(self, spec, p, q, offsets):
        params = PQParams(p, q)
        us = [-spec.alpha + d for d in offsets]
        assert same_bits(phi(np.array(us), spec, params), [phi(u, spec, params) for u in us])

    def test_arrays_longer_than_one_slice(self):
        params = PQParams(40, 0.7)
        xs = np.linspace(0.6, 5.0, 3 * _SLICE // 41)
        spec, two = RatioSpec((1, 2), (1.5, 2.5)), TwoPointSpec(2.0, 1.0, 0.5)
        for fn in (lambda x: log_G_pq(x, spec, params), lambda x: h_beta(x, two, params),
                   lambda x: f_theorem32(x, params, "as_defined")):
            assert same_bits(fn(xs), [fn(x) for x in xs.tolist()])

    @pytest.mark.parametrize("call, name", [
        (lambda x: h_beta(x, TwoPointSpec(2.0, 1.0, 0.5), PQParams(3, 0.5)), "x"),
        (lambda x: phi(x, TwoPointSpec(2.0, 1.0, 0.5), PQParams(3, 0.5)), "u"),
    ])
    def test_first_element_outside_the_domain_is_named(self, call, name):
        with pytest.raises(DomainError, match=rf"{name} must lie in \(-1.0, inf\), got -1.5$"):
            call(np.array([0.5, 2.0, -1.5, -3.0, np.nan]))

    def test_first_nonpositive_x_is_named(self):
        with pytest.raises(DomainError, match=r"got -0.25$"):
            log_G_pq(np.array([0.5, -0.25, 0.0]), RatioSpec((1, 2), (1.5, 2.5)), PQParams(3, 0.5))


# x -> value at PQParams for each array-valued function; the x of LAYOUT_XS lie in every
# domain, and h_beta's include its beta = 0.5 and a point inside its 1e-6 radius
LAYOUT_FUNCTIONS = {
    "log_gamma_pq": log_gamma_pq,
    "psi_pq": psi_pq,
    "log_G_pq": lambda x, params: log_G_pq(x, RatioSpec((0.5, 1, 3), (1, 1.5, 3)), params),
    "f32-as-defined": lambda x, params: f_theorem32(x, params, "as_defined"),
    "f32-as-proved": lambda x, params: f_theorem32(x, params, "as_proved"),
    "h_beta": lambda x, params: h_beta(x, TwoPointSpec(2.0, 1.0, 0.5), params),
    "f1": lambda x, params: f1(x, AffineInequalitySpec(0.5, 1.0, 1.2, 1.0, 1.5, 1.0), params),
}
LAYOUT_XS = np.concatenate([[0.5, 0.5 + 4e-7], np.geomspace(0.05, 9.0, 22)])


class TestArrayLayouts:
    """numpy may take other loops for a strided, a transposed or a 0-d array than for a
    contiguous one; each element must still equal the float call, bit for bit."""

    @pytest.mark.parametrize("name", sorted(LAYOUT_FUNCTIONS))
    @pytest.mark.parametrize("p", [3, 40, 1000])
    def test_strided_transposed_and_0d_arrays(self, name, p):
        fn = LAYOUT_FUNCTIONS[name]
        params = PQParams(p, 0.7)
        strided = LAYOUT_XS[::2]
        transposed = LAYOUT_XS.reshape(4, 6).T
        assert not strided.flags.c_contiguous and not transposed.flags.c_contiguous
        assert same_bits(fn(strided, params), [fn(x, params) for x in strided.tolist()])
        got = fn(transposed, params)
        assert got.shape == (6, 4)
        assert same_bits(got.ravel(), [fn(x, params) for x in transposed.ravel().tolist()])
        for x in LAYOUT_XS[:4].tolist():
            assert same_bits([fn(x, params)], [fn(np.array(x), params)])


# (function, x whose exponent passes ln(DBL_MAX) ~ 709.78, x with a finite value): f1 at
# u = 1e-300 with c = 1000, as_proved at x -> 0+, and h_beta with beta + t = 1e-300 on its
# difference-quotient branch
OVERFLOWING = {
    "f1": (lambda x: f1(x, AffineInequalitySpec(1e-300, 1, 1000, 1, 1, 1), PQParams(3, 0.5)),
           0.0, 0.5),
    "f32-as-proved": (lambda x: f_theorem32(x, PQParams(3, 0.5), "as_proved"), 1e-5, 0.5),
    "h_beta": (lambda x: h_beta(x, TwoPointSpec(1.0, 0.0, 1e-300), PQParams(3, 0.5)), 1e-5,
               5.0),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_an_overflowing_exponent_raises_overflow_error(name):
    fn, x, fine = OVERFLOWING[name]
    assert math.isfinite(fn(fine))
    for arg in (x, np.array(x), np.array([fine, x]), np.array([[x, fine], [fine, fine]]).T):
        with pytest.raises(OverflowError):
            fn(arg)


def difference_campaign_loop(f, grid, tol_scale, min_order):
    """The sequential difference campaign, one scalar call of f per abscissa in (x, h, j)
    order and a strict < over (x, h, n): the reference for monocheck._difference_campaign.
    The first cell (x, h) with a value that is not finite, or whose table overflows (a
    tested order with a slack or a tolerance that is not finite), raises DomainError."""
    best_margin = math.inf
    best = (0.0, (grid.lo, 0, _STEPS[0]), 0.0)
    evaluations = 0
    for x in grid.xs():
        for h in _STEPS:
            n_avail = min(_MAX_ORDER, int((grid.hi - x) / h + 1e-12))
            if n_avail < min_order:
                continue
            vals = [float(f(x + j * h)) for j in range(n_avail + 1)]  # float ops overflow quietly
            for j, v in enumerate(vals):
                if not math.isfinite(v):
                    raise DomainError(f"f({x + j * h!r}) = {float(v)!r} is not finite")
            evaluations += n_avail + 1
            rows = difference_table(vals)
            table_mag = max(abs(v) for row in rows for v in row)
            tol = tol_scale * _EPS * max(1.0, table_mag)
            for n in range(min_order, n_avail + 1):
                s = (-1.0) ** n * rows[n][0]
                if not (math.isfinite(s) and math.isfinite(tol)):
                    raise DomainError(f"the difference table of f overflows at x = {x!r}, "
                                      f"h = {h!r}")
                margin = s + tol
                if margin < best_margin:
                    best_margin = margin
                    best = (s, (x, n, h), tol)
    verdict = "pass" if best_margin >= 0.0 else "fail"
    return MonotonicityReport(verdict, best[0], best[1], best[2], evaluations, grid.seed)


def outcome(run, *args):
    """run(*args), or the message of the DomainError it raises."""
    try:
        return run(*args)
    except DomainError as exc:
        return str(exc)


def log_of(f):
    """ln f at a float, as check_lcm takes it: by np.log."""
    return lambda x: float(np.log(f(x)))


P_STENCIL = PQParams(4, 0.49)
G_SPEC = RatioSpec((1, 2), (1.5, 2.5))
H_SPEC = TwoPointSpec(2.0, 1.0, 0.5)
# (check, f at a float or an array, min_order); the f32 statement fails lcm, a NaN at x > 3
# is a DomainError naming its abscissa, as is an f whose tables overflow at x > 3 (it
# alternates 1.7e308 and 1 on a 0.01 lattice), and a constant makes every margin a tie
STENCIL_CASES = {
    "cm-psi-prime": (check_cm, lambda x: psi_pq_deriv(x, P_STENCIL, 1), 0),
    "cm-psi-prime-negated": (check_cm, lambda x: -psi_pq_deriv(x, P_STENCIL, 1), 0),
    "cm-G": (check_cm, lambda x: _exp(log_G_pq(x, G_SPEC, P_STENCIL)), 0),
    "lcm-f32-as-defined": (check_lcm, lambda x: f_theorem32(x, P_STENCIL, "as_defined"), 1),
    "lcm-f32-as-proved": (check_lcm, lambda x: f_theorem32(x, P_STENCIL, "as_proved"), 1),
    "lcm-h": (check_lcm, lambda x: h_beta(x, H_SPEC, P_STENCIL), 1),
    "cm-rational": (check_cm, lambda x: 0.7 / x + 1.3 / (x + 1.0), 0),
    "cm-increasing": (check_cm, lambda x: x * x, 0),
    "cm-constant": (check_cm, lambda x: 2.5 + 0.0 * x, 0),
    "cm-nan-above-3": (check_cm, lambda x: np.where(np.asarray(x) > 3.0, np.nan, 1.0 / x)[()], 0),
    "cm-overflow-above-3": (check_cm, lambda x: np.where(
        (np.asarray(x) > 3.0) & (np.round(np.asarray(x) * 100) % 2 == 0), 1.7e308, 1.0)[()], 0),
    "lcm-rational": (check_lcm, lambda x: 1.0 + 1.0 / x, 1),
}
GRIDS = st.builds(lambda lo, width, points, seed: GridSpec(lo, lo + width, points, seed),
                  st.floats(0.51, 3.0), st.floats(0.004, 6.0),
                  st.sampled_from([1, 2, 3, 8, 17, 64]), st.integers(0, 10**6))


class TestDifferenceCampaignReference:
    @pytest.mark.parametrize("case", sorted(STENCIL_CASES))
    @given(grid=GRIDS, tol_scale=st.sampled_from([0.0, 1.0, 1e3]))
    @settings(max_examples=25, deadline=None)
    def test_matches_sequential_loop(self, case, grid, tol_scale):
        check, f, min_order = STENCIL_CASES[case]
        report = outcome(check, f, grid, tol_scale)
        scalar = log_of(f) if min_order else f
        assert report == outcome(difference_campaign_loop, scalar, grid, tol_scale, min_order)
        if isinstance(report, str):
            return
        assert type(report.min_slack) is float and type(report.tolerance_used) is float
        assert type(report.evaluations) is int
        assert [type(w) for w in report.witness] == [float, int, float]

    @pytest.mark.parametrize("case", ["cm-psi-prime", "cm-G", "lcm-f32-as-defined", "lcm-h",
                                      "cm-constant", "cm-increasing"])
    @pytest.mark.parametrize("points", [1, 16, 64])
    def test_campaign_grids(self, case, points):
        check, f, min_order = STENCIL_CASES[case]
        grid = GridSpec(0.6, 5.0, points)
        report = check(f, grid)
        assert report == difference_campaign_loop(log_of(f) if min_order else f, grid, 1e3,
                                                  min_order)

    def test_failing_cells_and_ties_are_covered(self):
        grid = GridSpec(0.5, 6.0, 16)
        assert check_lcm(STENCIL_CASES["lcm-f32-as-defined"][1], grid).verdict == "fail"
        assert check_cm(STENCIL_CASES["cm-psi-prime-negated"][1], grid).verdict == "fail"
        tie = check_cm(STENCIL_CASES["cm-constant"][1], grid, 0.0)
        assert tie.min_slack == 0.0 and tie.witness == (0.5, 1, _STEPS[0])

    def test_one_call_of_f_per_campaign(self):
        calls = []

        def f(x):
            calls.append(x.shape)
            return 1.0 / x

        report = check_cm(f, GridSpec(0.5, 6.0, 32))
        assert len(calls) == 1 and calls[0] == (report.evaluations,)

    @pytest.mark.parametrize("case", ["cm-rational", "cm-increasing", "cm-constant",
                                      "cm-nan-above-3", "cm-overflow-above-3", "lcm-rational"])
    def test_grids_of_several_blocks(self, case):
        check, f, min_order = STENCIL_CASES[case]
        calls = []

        def counted(x):
            calls.append(x.size)
            return f(x)

        grid = GridSpec(0.6, 40.0, 2 * _BLOCK + 5)  # the last block has full stencils too
        report = outcome(check, counted, grid)
        # a DomainError stops the campaign at the block that raised it, here the first
        assert len(calls) == (1 if isinstance(report, str) else 3)
        assert max(calls) <= _BLOCK * len(_STEPS) * (_MAX_ORDER + 1)
        assert report == outcome(difference_campaign_loop, log_of(f) if min_order else f, grid,
                                 1e3, min_order)

    @pytest.mark.parametrize("case", ["cm-psi-prime", "cm-rational", "cm-increasing",
                                      "cm-constant", "lcm-rational", "lcm-h"])
    @pytest.mark.parametrize("tol_scale", [0.0, 1e3])
    def test_one_block_with_every_order_count(self, case, tol_scale):
        # at h = 1e-2 the points of [0.5, 0.57] have 6 orders down to 0; at the larger steps
        # every cell has order 0 only, which check_lcm does not test
        check, f, min_order = STENCIL_CASES[case]
        grid = GridSpec(0.5, 0.57, 71)
        counts = [min(_MAX_ORDER, int((grid.hi - x) / h + 1e-12))
                  for x in grid.xs() for h in _STEPS]
        assert set(counts) == set(range(_MAX_ORDER + 1)) and len(grid.xs()) <= _BLOCK
        report = check(f, grid, tol_scale)
        assert report == difference_campaign_loop(log_of(f) if min_order else f, grid,
                                                  tol_scale, min_order)

    @pytest.mark.parametrize("block", [1, 5])
    @pytest.mark.parametrize("case", sorted(STENCIL_CASES))
    @given(grid=GRIDS, tol_scale=st.sampled_from([0.0, 1e3]))
    @settings(max_examples=10, deadline=None)
    def test_block_boundaries_keep_the_first_smallest(self, block, case, grid, tol_scale):
        check, f, min_order = STENCIL_CASES[case]
        scalar = log_of(f) if min_order else f
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(monocheck, "_BLOCK", block)
            report = outcome(check, f, grid, tol_scale)
        assert report == outcome(difference_campaign_loop, scalar, grid, tol_scale, min_order)

    @pytest.mark.parametrize("hi", [1e17, 1e19])
    def test_order_counts_beyond_int64(self, hi):
        # (hi - x)/h exceeds 2^63 at x = lo and x = (lo + hi)/2, whose cells are tested to
        # order _MAX_ORDER; x = hi takes order 0 only
        check, f, min_order = STENCIL_CASES["cm-rational"]
        grid = GridSpec(0.5, hi, 3)
        report = check(f, grid)
        assert report == difference_campaign_loop(f, grid, 1e3, min_order)
        assert report.evaluations == (2 * (_MAX_ORDER + 1) + 1) * len(_STEPS)

    @pytest.mark.parametrize("lo, hi, points", [
        (0.5, 1e308, 1),  # (hi - lo)/h is inf
        (-1e308, 1e308, 2),  # hi - lo is inf
        (0.5, 1e306, 1000),  # (hi - lo)*(points - 1), and so the last grid point, is inf
    ])
    def test_an_overflowing_grid_is_a_domain_error(self, lo, hi, points):
        with pytest.raises(DomainError, match="lo and hi .* " + re.escape(f"lo = {lo}, hi = {hi}")):
            GridSpec(lo, hi, points)

    def test_a_grid_without_a_full_stencil_calls_nothing(self):
        report = check_lcm(lambda x: pytest.fail("f was called"), GridSpec(1.0, 1.004, 3))
        assert report.verdict == "pass" and report.evaluations == 0


class TestUniforms:
    @pytest.mark.parametrize("seed", [0, 42, 677212])
    def test_equals_sequential_draws_across_chunks(self, seed):
        batched, single = _LCG(seed), _LCG(seed)
        # chunk sizes as check_young_bracket takes them, ending in a partial chunk
        full = 4 * (monocheck._DRAWS // 4)
        for n in (full, full, 4 * 784, 0, 1, 3):
            got = batched.uniforms(n)
            assert got.shape == (n,)
            assert np.array_equal(got, np.array([single.uniform() for _ in range(n)]))
            assert batched.state == single.state


def young_bracket_loop(grid):
    """The sequential Lemma 2.1 loop: (verdict, min_slack, witness) over the same draws,
    every slack from one numpy evaluation of q_bracket's formula, the first smallest kept."""
    rng = _LCG(grid.seed)
    span = grid.hi - grid.lo
    draws = []
    for _ in range(grid.points**2):
        x = grid.lo + span * rng.uniform()
        y = grid.lo + span * rng.uniform()
        alpha = rng.uniform()
        draws.append((x, y, alpha, 0.05 + 0.9 * rng.uniform()))
    x, y, alpha, q = np.array(draws).T
    lq = np.log(q)
    beta = 1.0 - alpha

    def bracket(n):
        return np.expm1(n * lq) / np.expm1(lq)

    lhs = bracket(1.0 + x) ** alpha * bracket(1.0 + y) ** beta
    slacks = bracket(1.0 + alpha * x + beta * y) - lhs
    best_slack = math.inf
    witness = (0.0, 0.0, 0.0)
    for draw, slack in zip(draws, slacks.tolist()):
        if slack < best_slack:
            best_slack = slack
            witness = draw[:3]
    return ("pass" if best_slack >= -1e-14 else "fail"), best_slack, witness


class TestYoungBracketReference:
    # 64^2 draws fill whole chunks; 100^2 draws end in a partial chunk
    @pytest.mark.parametrize("points", [64, 100])
    @pytest.mark.parametrize("seed", [42, 7, 677212])
    def test_matches_sequential_loop(self, seed, points):
        grid = GridSpec(0.0, 5.0, points=points, seed=seed)
        report = check_young_bracket(grid)
        verdict, slack, witness = young_bracket_loop(grid)
        assert report.verdict == verdict
        assert report.witness == witness
        assert report.min_slack == slack
        assert report.evaluations == 2 * points**2

    def test_ties_keep_the_first_draw(self):
        # [1 + x]_q = 1 for every x in [0, 1e-300], so each of the 56^2 draws, over two
        # chunks, has slack 0
        grid = GridSpec(0.0, 1e-300, points=56, seed=7)
        report = check_young_bracket(grid)
        assert report.min_slack == 0.0 and grid.points**2 > monocheck._DRAWS // 4
        assert (report.verdict, report.min_slack, report.witness) == young_bracket_loop(grid)
        rng = _LCG(7)
        assert report.witness == (1e-300 * rng.uniform(), 1e-300 * rng.uniform(), rng.uniform())

    def test_draw_outside_the_bracket_domain_raises(self):
        with pytest.raises(DomainError):
            check_young_bracket(GridSpec(-3.0, 0.0, points=4))

    def test_tolerance_scales_with_tol_scale(self):
        grid = GridSpec(0.0, 5.0, points=4)
        assert check_young_bracket(grid).tolerance_used == 1e-14
        assert check_young_bracket(grid, tol_scale=1e6).tolerance_used == 1e-14 * 1e3


def log_convex_loop(f, grid, tol_scale=1e3):
    """The sequential log-convexity campaign, three uniform() draws per triple."""
    rng = _LCG(grid.seed)
    best_margin = math.inf
    best = (0.0, (grid.lo, grid.lo, 0.5), 0.0)
    evaluations = 0
    span = grid.hi - grid.lo
    for _ in range(grid.points**2):
        x = grid.lo + span * rng.uniform()
        y = grid.lo + span * rng.uniform()
        alpha = rng.uniform()
        beta = 1.0 - alpha
        lx, ly, lm = f(x), f(y), f(alpha * x + beta * y)
        evaluations += 3
        lhs = math.log(lm)
        rhs = alpha * math.log(lx) + beta * math.log(ly)
        slack = rhs - lhs
        tol = tol_scale * _EPS * max(1.0, abs(lhs), abs(rhs))
        if slack + tol < best_margin:
            best_margin = slack + tol
            best = (slack, (x, y, alpha), tol)
    verdict = "pass" if best_margin >= 0.0 else "fail"
    return MonotonicityReport(verdict, best[0], best[1], best[2], evaluations, grid.seed)


P_LOG_CONVEX = PQParams(4, 0.6)


class TestLogConvexReference:
    # Gamma_{4,0.6} is log-convex; 1/Gamma_{4,0.6} fails, as the benchmark's negative control
    @pytest.mark.parametrize("f, verdict", [
        (lambda x: math.exp(log_gamma_pq(x, P_LOG_CONVEX)), "pass"),
        (lambda x: math.exp(-log_gamma_pq(x, P_LOG_CONVEX)), "fail"),
    ], ids=["gamma", "reciprocal"])
    @pytest.mark.parametrize("seed", [42, 7, 677212])
    def test_matches_sequential_loop(self, f, verdict, seed):
        grid = GridSpec(0.5, 8.0, points=24, seed=seed)
        report = check_log_convex(f, grid)
        assert report == log_convex_loop(f, grid)
        assert report.verdict == verdict
        assert [type(w) for w in report.witness] == [float, float, float]

    # 70 points draw over two chunks of _DRAWS // 3 triples; _DRAWS = 8 takes 2 triples a call
    @pytest.mark.parametrize("draws, points", [(monocheck._DRAWS, 64), (monocheck._DRAWS, 70),
                                               (8, 9)])
    def test_draws_in_chunks(self, draws, points, monkeypatch):
        f = lambda x: math.exp(log_gamma_pq(x, P_LOG_CONVEX))  # noqa: E731
        grid = GridSpec(0.5, 8.0, points=points, seed=677212)
        sizes = []
        uniforms = _LCG.uniforms
        monkeypatch.setattr(monocheck, "_DRAWS", draws)
        monkeypatch.setattr(_LCG, "uniforms", lambda rng, n: sizes.append(n) or uniforms(rng, n))
        report = check_log_convex(f, grid)
        per = draws // 3  # whole triples per call
        assert sizes == [3 * min(per, points**2 - done) for done in range(0, points**2, per)]
        assert report == log_convex_loop(f, grid)


def affine_specs_loop(samples, seed):
    """The sequential sampler: a, b, d, e, c, f from consecutive uniforms of each sample."""
    rng = _LCG(seed)
    out = []
    for _ in range(samples):
        a = 0.2 + 2.8 * rng.uniform()
        b = 0.1 + 1.9 * rng.uniform()
        d = a + 2.0 * rng.uniform()
        e = b + 2.0 * rng.uniform()
        c = 0.1 + 1.9 * rng.uniform()
        f = 0.1 + 1.9 * rng.uniform()
        out.append(AffineInequalitySpec(a, b, c, d, e, f))
    return out


@pytest.mark.parametrize("samples, seed", [(1, 42), (300, 7), (1000, 677212)])
def test_sampled_specs_equal_the_sequential_draws(samples, seed):
    columns = _affine_columns(samples, seed)
    rows = np.hstack([getattr(columns, name) for name in "abcdef"]).tolist()
    assert [AffineInequalitySpec(*row) for row in rows] == affine_specs_loop(samples, seed)


def sec4_loop(params, samples, seed):
    """The sequential section 4 loop, endpoints' self-comparisons skipped."""
    xs = [i / 20 for i in range(21)]
    best_slack, witness, qualified = math.inf, (0.0, 0.0, 0.0), 0
    for spec in affine_specs_loop(samples, seed):
        if not any(all(lemma_sign_check(spec, params, x, which).hypotheses_hold for x in xs)
                   for which in ("L42", "L43")):
            continue
        qualified += 1
        vals = [f1(x, spec, params) for x in xs]
        for i, x in enumerate(xs):
            slacks = []
            if i + 1 < len(xs):
                slacks += [vals[i] - vals[i + 1], vals[i] - vals[-1]]
            if i > 0:
                slacks.append(vals[0] - vals[i])
            for slack in slacks:
                if slack < best_slack:
                    best_slack, witness = slack, (x, spec.a, spec.b)
    return qualified, best_slack, witness


class TestSec4Reference:
    @pytest.mark.parametrize("seed", [42, 7])
    def test_matches_sequential_loop(self, seed):
        params = PQParams(3, 0.5)
        result = run_sec4_campaign(params, samples=60, seed=seed)
        qualified, slack, witness = sec4_loop(params, 60, seed)
        assert result["qualified"] == qualified
        assert result["min_slack"] == slack
        assert result["witness"] == witness

    def test_min_slack_is_positive(self):
        # f1(0) - f1(0) and f1(1) - f1(1) are not slacks of the double inequality
        result = run_sec4_campaign(PQParams(3, 0.5), samples=200, seed=42)
        assert result["verdict"] == "pass"
        assert result["min_slack"] > 0.0

    def test_one_psi_evaluation_per_spec(self, monkeypatch):
        # the L42 and L43 gates share one psi_pq call on every spec's 42 affine points
        calls = []

        def spy(x, params):
            calls.append(np.shape(x))
            return psi_pq(x, params)

        monkeypatch.setattr(paperfuncs, "psi_pq", spy)
        result = run_sec4_campaign(PQParams(3, 0.5), samples=60, seed=42)
        assert calls == [(2, 60, 21)]
        assert result["skipped"] > 0
        assert result["evaluations"] == 2 * 21 * 60 + 21 * result["qualified"]
