"""The certified geometric-series kernel behind log Gamma_q, psi_q and psi_q^(n)."""

import math

import mpmath
import numpy as np
import pytest

from pqgamma import gammafam, psifam, qcore
from pqgamma.cli import main
from pqgamma.gammafam import log_gamma_q
from pqgamma.psifam import _polylog_neg, psi_q, psi_q_deriv
from pqgamma.qcore import TruncationError, _geometric_series, log_q_pochhammer_inf


def lerch_mp(s, L, y, head=40, em_terms=30):
    """sum_{k>=0} Li_s(exp(L (y + k))) for L < 0 in mpmath: a direct head, then the
    Euler-Maclaurin tail, using d/dt Li_s(e^{Lt}) = L Li_{s-1}(e^{Lt})."""
    L, y = mpmath.mpf(L), mpmath.mpf(y)
    total = mpmath.fsum(mpmath.polylog(s, mpmath.exp(L * (y + k))) for k in range(head))
    u = mpmath.exp(L * (y + head))
    tail = -mpmath.polylog(s + 1, u) / L + mpmath.polylog(s, u) / 2
    for j in range(1, em_terms):
        tail -= (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j) * L ** (2 * j - 1)
                 * mpmath.polylog(s - 2 * j + 1, u))
    return total + tail


def ref_log_gamma_q(x, q):
    """Jackson's products, ln(r;r)_inf - ln(r^x;r)_inf = sum_k Li_1(r^{x+k}) - Li_1(r^{1+k})."""
    with mpmath.workdps(30):
        x, q = mpmath.mpf(x), mpmath.mpf(q)
        L = mpmath.log(q) if q < 1 else -mpmath.log(q)
        s = lerch_mp(1, L, x) - lerch_mp(1, L, 1)
        if q < 1:
            return float(s + (1 - x) * mpmath.log(1 - q))
        return float(s + (1 - x) * mpmath.log(q - 1) + x * (x - 1) / 2 * mpmath.log(q))


def ref_psi_q(x, q):
    with mpmath.workdps(30):
        x, q = mpmath.mpf(x), mpmath.mpf(q)
        if q < 1:
            return float(-mpmath.log(1 - q) + mpmath.log(q) * lerch_mp(0, mpmath.log(q), x))
        s = lerch_mp(0, -mpmath.log(q), x)
        return float(-mpmath.log(q - 1) + mpmath.log(q) * (x - mpmath.mpf(1) / 2 - s))


# q = 1 - 1e-5 needs ~4.4e6 terms, under the kernel's cap of 1e9
@pytest.mark.parametrize("q", [0.999, 0.9999, 1.001, 1 - 1e-5])
@pytest.mark.parametrize("x", [0.5, 3.7])
def test_near_q_one_against_reference(x, q):
    assert psi_q(x, q) == pytest.approx(ref_psi_q(x, q), rel=1e-12)
    assert log_gamma_q(x, q) == pytest.approx(ref_log_gamma_q(x, q), rel=1e-12)


@pytest.mark.parametrize("n", [1, 4, 8])
@pytest.mark.parametrize("x,q", [(0.5, 0.9), (3.7, 0.9999), (0.5, 1.001), (3.7, 2.0)])
def test_psi_q_deriv_against_reference(x, q, n):
    """Both branches' m-sums, sum_m m^n w^m/(1 - w^m) with w = q^x or q^{-x}, as Li_{-n} sums."""
    with mpmath.workdps(30):
        lq = mpmath.log(q)
        if q < 1:
            ref = lq ** (n + 1) * lerch_mp(-n, lq, x)
        else:
            s = lerch_mp(-n, -x * lq, 1)
            ref = lq * (1 + s) if n == 1 else (-1) ** (n - 1) * lq ** (n + 1) * s
    assert psi_q_deriv(x, q, n) == pytest.approx(float(ref), rel=1e-12)


def log1m(y):  # ln(1 - z) = -Li_1(z), the terms of ln (a;q)_inf
    return np.log1p(-np.exp(y))


TAIL_CASES = [(s, g, x, q)
              for s, g in ((0, _polylog_neg(0)), (1, log1m))
              for x, q in ((0.5, 0.5), (2.0, 0.9), (0.3, 0.99), (5.0, 0.999))]
# Li_{-3} terms fall far faster than r at first, so only small sums leave a
# tail above the rounding of the computed sum
TAIL_CASES += [(-3, _polylog_neg(3), 0.5, 0.5), (-3, _polylog_neg(3), 2.0, 0.9)]


@pytest.mark.parametrize("s,g,x,q", TAIL_CASES)
def test_bound_covers_true_tail(s, g, x, q, monkeypatch):
    monkeypatch.setattr(qcore, "_REL_TOL", 1e-6)
    L = math.log(q)
    value, terms, bound = _geometric_series(g, x * L, L)
    with mpmath.workdps(30):
        exact = lerch_mp(s, L, x)
        if s == 1:
            exact = -exact
        tail = float(abs(exact - value))
    rounding = 1e-14 * abs(value)  # of the computed sum, against which the tail is measured
    assert tail > 100 * rounding
    assert tail <= bound + rounding
    assert bound <= 1e-6 * abs(value)


def test_terms_match_up_front_count():
    r = 0.5
    need = math.ceil(math.log(qcore._REL_TOL * (1 - r)) / math.log(r))
    _, terms, _ = _geometric_series(_polylog_neg(0), 0.5 * math.log(r), math.log(r))
    assert terms == need == 48


def geometric_series_loop(g, y0, lr):
    """The kernel's summation before chunks were split: every chunk of up to 2^14 terms
    evaluated and summed by one numpy call."""
    need = max(1, math.ceil((math.log(qcore._REL_TOL) + math.log(-math.expm1(lr))) / lr))
    ratio = 1.0 / math.expm1(-lr)
    total, done = 0.0, 0
    while done < need:
        n = min(1 << 14, need - done)
        terms = g(y0 + lr * np.arange(done, done + n, dtype=float))
        total += float(terms.sum())
        done += n
        bound = abs(float(terms[-1])) * ratio
        if bound <= qcore._REL_TOL * abs(total):
            break
    return total, done, bound


# r from 48 terms to several chunks; the last chunk of each lies on one side of the split
@pytest.mark.parametrize("r", [0.5, 0.99, 0.996, 0.9983, 0.9991, 0.99965, 0.9999])
@pytest.mark.parametrize("s", [1, 0, -2])
def test_split_chunks_sum_as_one_call(r, s):
    g = (lambda y: np.log1p(-np.exp(y))) if s == 1 else _polylog_neg(-s)
    lr = math.log(r)
    assert _geometric_series(g, 0.7 * lr, lr) == geometric_series_loop(g, 0.7 * lr, lr)


@pytest.mark.parametrize("n", [1, 7, 128, 129, qcore._SLICE, qcore._SLICE + 1, 9999, 12345,
                               (1 << 14) - 3, (1 << 14) - 1, 1 << 14])
def test_chunk_sum_is_numpy_sum(n):
    # positive terms of one size, whose rounded sum depends on where the halves split
    values = np.random.default_rng(n).uniform(0.0, 1.0, n)
    sizes = []

    def term(j):
        sizes.append(len(j))
        return values[j.astype(int) - 3]

    assert qcore._chunk_sum(term, 3, n) == (float(values.sum()), float(values[-1]))
    assert max(sizes) <= qcore._SLICE + 8  # halves of at most ~64 KiB


@pytest.mark.parametrize("x, q, n", [(0.5, 0.9999, 1), (3.7, 1.0002, 2), (1.5, 0.99995, 4)])
def test_q_functions_over_split_chunks_match_the_loop(x, q, n, monkeypatch):
    got = (log_gamma_q(x, q), psi_q(x, q), psi_q_deriv(x, q, n))
    for module in (gammafam, psifam):
        monkeypatch.setattr(module, "_geometric_series", geometric_series_loop)
    assert got == (log_gamma_q(x, q), psi_q(x, q), psi_q_deriv(x, q, n))


def test_psi_p_at_a_p_of_several_chunks_matches_mpmath():
    # p spans several 2^14-term chunks of the q-series kernel, which psi_p does not use
    x, p = 1.7, 3 * (1 << 14) + 9000
    with mpmath.workdps(40):
        ref = float(mpmath.log(p) - mpmath.digamma(mpmath.mpf(x) + p + 1)
                    + mpmath.digamma(mpmath.mpf(x)))
    assert abs(psifam.psi_p(x, p) - ref) <= 5e-15 * max(1.0, abs(ref))


def spy_kernel(monkeypatch, module):
    """Route module's _geometric_series through a spy; returns (kernel calls, chunk sizes)."""
    kernel_calls, chunks = [], []

    def spy(g, *args):
        kernel_calls.append(args)

        def counted(y):
            chunks.append(len(y))
            return g(y)

        return _geometric_series(counted, *args)

    monkeypatch.setattr(module, "_geometric_series", spy)
    return kernel_calls, chunks


def test_term_cap_raises_before_any_chunk(monkeypatch):
    kernel_calls, chunks = spy_kernel(monkeypatch, qcore)
    with pytest.raises(TruncationError):
        log_q_pochhammer_inf(0.9, 1 - 1e-12)
    assert len(kernel_calls) == 1
    assert chunks == []


@pytest.mark.parametrize("q", ["0.99999999", "1.00000001"])
def test_cli_over_term_cap_exits_2_before_any_chunk(q, monkeypatch, capsys):
    """About 5e9 terms at q = 1 -+ 1e-8, over the cap of 1e9: exit 2 with nothing summed."""
    kernel_calls, chunks = spy_kernel(monkeypatch, gammafam)
    assert main(["eval", "--fn", "gamma_q", "--x", "1.5", "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert len(kernel_calls) == 1
    assert chunks == []
