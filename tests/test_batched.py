"""Array-valued (p,q) finite sums and the campaigns built on them.

Every array call must equal the float calls element by element, bit for bit,
and the vectorised Lemma 2.1 and section 4 campaigns must give the results of
the sequential loops kept here as references.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pqgamma import paperfuncs
from pqgamma.gammafam import log_gamma_pq
from pqgamma.monocheck import _LCG, GridSpec
from pqgamma.paperfuncs import (
    _YOUNG_CHUNK,
    AffineInequalitySpec,
    check_young_bracket,
    f1,
    lemma_sign_check,
    run_sec4_campaign,
    sample_affine_specs,
)
from pqgamma.psifam import psi_pq
from pqgamma.qcore import DomainError, PQParams, q_bracket

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


class TestUniforms:
    @pytest.mark.parametrize("seed", [0, 42, 677212])
    def test_equals_sequential_draws_across_chunks(self, seed):
        batched, single = _LCG(seed), _LCG(seed)
        # chunk sizes as check_young_bracket takes them, ending in a partial chunk
        for n in (4 * _YOUNG_CHUNK, 4 * _YOUNG_CHUNK, 4 * 784, 0, 1, 3):
            got = batched.uniforms(n)
            assert got.shape == (n,)
            assert np.array_equal(got, np.array([single.uniform() for _ in range(n)]))
            assert batched.state == single.state


def young_bracket_loop(grid):
    """The sequential Lemma 2.1 loop: (verdict, min_slack, witness) over the same draws."""
    rng = _LCG(grid.seed)
    span = grid.hi - grid.lo
    best_slack = math.inf
    witness = (0.0, 0.0, 0.0)
    for _ in range(grid.points**2):
        x = grid.lo + span * rng.uniform()
        y = grid.lo + span * rng.uniform()
        alpha = rng.uniform()
        q = 0.05 + 0.9 * rng.uniform()
        beta = 1.0 - alpha
        lhs = q_bracket(1.0 + x, q) ** alpha * q_bracket(1.0 + y, q) ** beta
        rhs = q_bracket(1.0 + alpha * x + beta * y, q)
        slack = rhs - lhs
        if slack < best_slack:
            best_slack = slack
            witness = (x, y, alpha)
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

    def test_draw_outside_the_bracket_domain_raises(self):
        with pytest.raises(DomainError):
            check_young_bracket(GridSpec(-3.0, 0.0, points=4))

    def test_tolerance_scales_with_tol_scale(self):
        grid = GridSpec(0.0, 5.0, points=4)
        assert check_young_bracket(grid).tolerance_used == 1e-14
        assert check_young_bracket(grid, tol_scale=1e6).tolerance_used == 1e-14 * 1e3


def sec4_loop(params, samples, seed):
    """The sequential section 4 loop, endpoints' self-comparisons skipped."""
    xs = [i / 20 for i in range(21)]
    best_slack, witness, qualified = math.inf, (0.0, 0.0, 0.0), 0
    for spec in sample_affine_specs(samples, seed):
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
        # the L42 and L43 gates share one psi_pq call on the spec's 42 affine points
        calls = []

        def spy(x, params):
            calls.append(np.shape(x))
            return psi_pq(x, params)

        monkeypatch.setattr(paperfuncs, "psi_pq", spy)
        result = run_sec4_campaign(PQParams(3, 0.5), samples=60, seed=42)
        assert calls == [(2, 21)] * 60
        assert result["skipped"] > 0
        assert result["evaluations"] == 2 * 21 * 60 + 21 * result["qualified"]
