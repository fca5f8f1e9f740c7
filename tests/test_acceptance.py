"""Top-level acceptance suite.

Each test exercises one headline guarantee of the package end to end and
prints a single PASS/FAIL status line (bypassing capture so the lines
always show), then asserts the same condition so pytest records it too.
"""

import math
import random
import sys

import mpmath
import numpy as np
import pytest

from pqgamma.cli import limit_rows, gaps_nonincreasing, run_sec4_campaign
from pqgamma.gammafam import (
    log_gamma_p,
    log_gamma_pq,
    log_gamma_q,
)
from pqgamma.monocheck import (
    GridSpec,
    check_cm,
    check_lcm,
    check_log_convex,
)
from pqgamma.paperfuncs import (
    RatioSpec,
    TwoPointSpec,
    f_theorem32,
    h_beta,
    log_G_pq,
    phi,
    validate_ratio_spec,
)
from pqgamma.psifam import euler_gamma, psi_p, psi_pq, psi_pq_deriv
from pqgamma.qcore import PQParams, q_bracket


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_status_lines(capfd):
    """Let status lines bypass capture so they always reach the terminal."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit_line(text):
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(text)
    else:
        print(text, file=sys.__stdout__)


def report(name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    _emit_line(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


P_GRID = (1, 3, 10)
Q_GRID = (0.3, 0.5, 0.8)


def test_01_gamma_identity_suite():
    """Value at 1 and the recurrence, 1e-12 relative across a (p,q,x) sweep."""
    rng = random.Random(42)
    xs = [rng.uniform(1e-9, 10.0) for _ in range(100)]
    worst = 0.0
    for p in (1, 2, 5, 10, 50):
        for q in (0.1, 0.3, 0.5, 0.7, 0.9):
            params = PQParams(p, q)
            lhs = log_gamma_pq(1.0, params)
            rhs = math.log(q_bracket(p, q) / q_bracket(p + 1, q))
            # |difference of logs| is the relative error of the values
            worst = max(worst, abs(math.expm1(lhs - rhs)))
            for x in xs:
                step = log_gamma_pq(x + 1.0, params) - log_gamma_pq(x, params)
                expect = math.log(
                    q_bracket(p, q) * q_bracket(x, q) / q_bracket(x + p + 1, q)
                )
                worst = max(worst, abs(step - expect) / max(abs(expect), 1.0))
    ok = worst <= 1e-12
    assert report("01 gamma identity suite", ok, f"worst rel err {worst:.2e}")


def test_02_derivative_consistency():
    """psi agrees with d/dx ln Gamma; psi derivatives agree with differences of psi."""
    worst0 = worst12 = 0.0
    for p, q in ((1, 0.3), (3, 0.5), (10, 0.8)):
        params = PQParams(p, q)
        for x in (0.5, 1.0, 2.7, 5.5, 10.0):
            h = 1e-5
            fd = (log_gamma_pq(x + h, params) - log_gamma_pq(x - h, params)) / (2 * h)
            got = psi_pq(x, params)
            worst0 = max(worst0, abs(got - fd) / max(abs(got), 1e-12))
            for n, h in ((1, 1e-5), (2, 1e-3)):
                lower = psi_pq(x - h, params) if n == 1 else psi_pq_deriv(x - h, params, n - 1)
                upper = psi_pq(x + h, params) if n == 1 else psi_pq_deriv(x + h, params, n - 1)
                fd = (upper - lower) / (2 * h)
                got = psi_pq_deriv(x, params, n)
                worst12 = max(worst12, abs(got - fd) / max(abs(got), 1e-12))
    ok = worst0 <= 1e-6 and worst12 <= 1e-5
    assert report("02 derivative consistency", ok,
                  f"psi vs lngamma {worst0:.2e}, orders 1-2 {worst12:.2e}")


def brute_psi_deriv_double_series(x, p, q, n, dps=60, m_max=4000):
    """Independent extended-precision oracle: the raw double series in (k, m)."""
    with mpmath.workdps(dps):
        qm = mpmath.mpf(q)
        lq = mpmath.log(qm)
        total = mpmath.mpf(0)
        for k in range(p + 1):
            for m in range(1, m_max + 1):
                total += mpmath.mpf(m) ** n * qm ** (m * (x + k))
        return float(lq ** (n + 1) * total)


def test_03_oracle_equivalence_psi_derivatives():
    worst = 0.0
    for p, q in ((1, 0.3), (3, 0.5), (5, 0.7)):
        params = PQParams(p, q)
        for n in (1, 2, 3):
            for x in (0.7, 1.5, 4.0):
                got = psi_pq_deriv(x, params, n)
                want = brute_psi_deriv_double_series(x, p, q, n)
                worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-12
    assert report("03 oracle equivalence for psi derivatives", ok,
                  f"worst rel err {worst:.2e}")


def test_04_log_convexity_campaign():
    params = PQParams(4, 0.6)
    grid = GridSpec(0.5, 8.0, points=64, seed=42)  # 3 * 64^2 = 12288 >= 4096 triples
    rep = check_log_convex(lambda x: math.exp(log_gamma_pq(x, params)), grid)
    ok = rep.verdict == "pass" and rep.min_slack >= -1e-12
    assert report("04 log-convexity of gamma_pq", ok, f"min slack {rep.min_slack:.2e}")


def test_05_young_bracket_inequality():
    rng = random.Random(42)
    worst = math.inf
    for _ in range(4096):
        x, y = rng.uniform(0, 5), rng.uniform(0, 5)
        alpha = rng.uniform(0, 1)
        q = rng.uniform(0.05, 0.95)
        lhs = q_bracket(1 + x, q) ** alpha * q_bracket(1 + y, q) ** (1 - alpha)
        rhs = q_bracket(1 + alpha * x + (1 - alpha) * y, q)
        worst = min(worst, rhs - lhs)
    ok = worst >= -1e-14
    assert report("05 weighted-mean bracket inequality", ok, f"min slack {worst:.2e}")


def test_06_complete_monotonicity_psi_prime():
    grid = GridSpec(0.5, 6.0)
    bad = []
    for p in P_GRID:
        for q in Q_GRID:
            params = PQParams(p, q)
            rep = check_cm(lambda x: psi_pq_deriv(x, params, 1), grid)
            if rep.verdict != "pass":
                bad.append((p, q))
    ok = not bad
    assert report("06 complete monotonicity of psi_pq'", ok,
                  f"failing combos {bad}" if bad else "9/9 combos")


def test_07_cm_of_gamma_ratio_product():
    rng = random.Random(42)
    params = PQParams(3, 0.5)
    grid = GridSpec(0.5, 6.0)
    failures = 0
    for _ in range(20):
        n = rng.randint(1, 4)
        a = []
        acc = rng.uniform(0.1, 1.0)
        for _ in range(n):
            a.append(acc)
            acc += rng.uniform(0.0, 1.0)
        deltas = sorted(rng.uniform(0.0, 1.0) for _ in range(n))
        spec = RatioSpec(tuple(a), tuple(ai + d for ai, d in zip(a, deltas)))
        assert validate_ratio_spec(spec) is None
        rep = check_cm(lambda x: np.exp(log_G_pq(x, spec, params)), grid)
        if rep.verdict != "pass":
            failures += 1
    msg = validate_ratio_spec(RatioSpec((1, 2), (0.5, 5)))
    rejection_named = msg is not None and "k=1" in msg
    ok = failures == 0 and rejection_named
    assert report("07 cm of shifted gamma-ratio product", ok,
                  f"{20 - failures}/20 specs pass, rejection named: {rejection_named}")


def test_08_root_function_variant_matrix():
    """Both readings of the reciprocal-root function, per (p,q); at least one
    of the two must be logarithmically completely monotonic everywhere."""
    grid = GridSpec(0.5, 6.0)
    matrix = {}
    for p in P_GRID:
        for q in Q_GRID:
            params = PQParams(p, q)
            outcome = {}
            for variant in ("as_defined", "as_proved"):
                rep = check_lcm(lambda x: f_theorem32(x, params, variant), grid)
                outcome[variant] = rep.verdict
            matrix[(p, q)] = outcome
            _emit_line(f"[acceptance]   root-function p={p} q={q}: "
                       f"as_defined={outcome['as_defined']} "
                       f"as_proved={outcome['as_proved']}")
    ok = all("pass" in out.values() for out in matrix.values())
    assert report("08 root-function variant matrix", ok,
                  "one variant passes for every combo")


def test_09_two_point_mean_lcm_and_continuity():
    rng = random.Random(42)
    params = PQParams(3, 0.5)
    lcm_fail = 0
    worst_cont = 0.0
    for _ in range(10):
        t = rng.uniform(0.2, 2.0)
        s = t + rng.uniform(0.1, 2.0)
        beta = rng.uniform(0.0, 1.5)
        spec = TwoPointSpec(s, t, beta)
        rep = check_lcm(lambda x: h_beta(x, spec, params),
                        GridSpec(beta + 0.1, beta + 4.0))
        if rep.verdict != "pass":
            lcm_fail += 1
        # continuity across the removable point: the difference-quotient
        # branch just outside the switch radius must agree with the fill
        x = beta + 1e-4
        quotient = h_beta(x, spec, params)
        fill = math.exp(phi(0.5 * (x + beta), spec, params))
        worst_cont = max(worst_cont, abs(quotient - fill) / fill)
    ok = lcm_fail == 0 and worst_cont <= 1e-6
    assert report("09 two-point mean lcm and continuity", ok,
                  f"{10 - lcm_fail}/10 lcm pass, continuity gap {worst_cont:.2e}")


def test_10_affine_ratio_campaign():
    result = run_sec4_campaign(PQParams(3, 0.5), samples=1000, seed=42)
    ok = (result["verdict"] == "pass"
          and result["qualified"] >= 50
          and result["min_slack"] >= -1e-10)
    assert report("10 affine-ratio decrease and double inequality", ok,
                  f"{result['qualified']} qualified, {result['skipped']} skipped, "
                  f"min slack {result['min_slack']:.2e}")


def test_11_limit_ladders():
    sqrt_pi = math.sqrt(math.pi)
    checks = []

    rows = limit_rows("p-gamma", 0.5, ladder=(10, 100, 1000, 10000))
    checks.append(gaps_nonincreasing(rows))
    gap_p = abs(math.exp(log_gamma_p(0.5, 10**4)) - sqrt_pi) / sqrt_pi
    checks.append(gap_p <= 1e-3)

    rows = limit_rows("q-gamma", 0.5)
    checks.append(gaps_nonincreasing(rows))
    gap_q = abs(math.exp(log_gamma_q(0.5, 1 - 1e-6)) - sqrt_pi) / sqrt_pi
    checks.append(gap_q <= 1e-4)

    rows = limit_rows("p-to-q", 1.7, q=0.9)
    checks.append(gaps_nonincreasing(rows))
    target = log_gamma_q(1.7, 0.9)
    gap_p2 = abs(log_gamma_pq(1.7, PQParams(10**2, 0.9)) - target)
    gap_p4 = abs(log_gamma_pq(1.7, PQParams(10**4, 0.9)) - target)
    checks.append(gap_p4 <= gap_p2 / 10)

    rows = limit_rows("q-to-p", 2.0, p=10)
    checks.append(gaps_nonincreasing(rows))

    rows = limit_rows("psi-diagram", 1.0, p=10, q=0.9)
    checks.append(gaps_nonincreasing(rows))
    gap_psi = abs(psi_p(1.0, 10**6) + euler_gamma())
    checks.append(gap_psi <= 1e-5)

    ok = all(checks)
    assert report("11 limit ladders", ok,
                  f"gamma_p gap {gap_p:.1e}, gamma_q gap {gap_q:.1e}, "
                  f"psi_p gap {gap_psi:.1e}, p-ladder ratio {gap_p4 / gap_p2:.1e}")


def test_12_negative_controls():
    rep_cm = check_cm(lambda x: x, GridSpec(0.0, 5.0))
    rep_lc = check_log_convex(lambda x: x, GridSpec(1.0, 5.0))
    rep_lcm = check_lcm(np.exp, GridSpec(0.0, 5.0))
    ok = (rep_cm.verdict == "fail" and rep_cm.witness[1] == 1
          and rep_lc.verdict == "fail"
          and rep_lcm.verdict == "fail" and rep_lcm.witness[1] == 1)
    assert report("12 negative controls falsify", ok,
                  "cm/log-convex/lcm all reject their counterexamples")
