"""mpmath references for the benchmark's check points, at 50 significant digits.

Every reference is built from the defining finite sums, products and series,
never from the package under test.  The infinite q-sums are evaluated as

    S(s, L, y) = sum_{k>=0} Li_s(exp(L (y + k))),    L < 0,

with a direct head up to y + k >= 40 and an Euler-Maclaurin tail, because the
direct sums need O(1/(1-q)) terms as q -> 1 (and mpmath.qgamma does not
converge there).  With u = exp(L z) the tail is

    -Li_{s+1}(u)/L + Li_s(u)/2 - sum_j B_{2j}/(2j)! L^{2j-1} Li_{s-2j+1}(u),

using d/dt Li_s(exp(L t)) = L Li_{s-1}(exp(L t)).  Li_1(z) = -ln(1 - z) gives
the log q-Pochhammer products, Li_0(z) = z/(1 - z) the psi sums and
Li_{-n} their n-th derivatives.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 50
_HEAD_END = 40  # first abscissa of the Euler-Maclaurin tail
_MAX_EM_TERMS = 80


def _lerch(s, L, y):
    """sum_{k>=0} Li_s(exp(L (y + k))) for L < 0."""
    head = max(0, math.ceil(_HEAD_END - y))
    total = mp.fsum(mp.polylog(s, mp.exp(L * (y + k))) for k in range(head))
    u = mp.exp(L * (y + head))
    tail = -mp.polylog(s + 1, u) / L + mp.polylog(s, u) / 2
    eps = mp.mpf(10) ** (-DPS - 5)
    for j in range(1, _MAX_EM_TERMS):
        term = mp.bernoulli(2 * j) / mp.factorial(2 * j) * L ** (2 * j - 1) * mp.polylog(
            s - 2 * j + 1, u
        )
        tail -= term
        if abs(term) <= eps * abs(total + tail):
            return total + tail
    raise ArithmeticError(f"Euler-Maclaurin tail did not converge (s={s}, L={L}, y={y})")


def _bracket(y, q):
    return (1 - q**y) / (1 - q)


def log_gamma_pq(x, p, q):
    x, q = mp.mpf(x), mp.mpf(q)
    return (
        x * mp.log(_bracket(p, q))
        + mp.fsum(mp.log(_bracket(k, q)) for k in range(1, p + 1))
        - mp.fsum(mp.log(_bracket(x + k, q)) for k in range(p + 1))
    )


def psi_pq(x, p, q):
    x, q = mp.mpf(x), mp.mpf(q)
    return mp.log(_bracket(p, q)) + mp.log(q) * mp.fsum(
        q ** (x + k) / (1 - q ** (x + k)) for k in range(p + 1)
    )


def psi_pq_deriv(x, p, q, n):
    """d^n/dx^n psi_{p,q} = (ln q)^{n+1} sum_{k=0}^{p} Li_{-n}(q^{x+k})."""
    x, q = mp.mpf(x), mp.mpf(q)
    return mp.log(q) ** (n + 1) * mp.fsum(mp.polylog(-n, q ** (x + k)) for k in range(p + 1))


def log_gamma_p(x, p):
    x = mp.mpf(x)
    return (
        x * mp.log(p)
        + mp.fsum(mp.log(k) for k in range(1, p + 1))
        - mp.fsum(mp.log(x + k) for k in range(p + 1))
    )


def psi_p(x, p):
    x = mp.mpf(x)
    return mp.log(p) - mp.fsum(1 / (x + k) for k in range(p + 1))


def log_gamma(x):
    return mp.loggamma(mp.mpf(x))


def psi(x):
    return mp.digamma(mp.mpf(x))


def _log_pochhammer(y, L):
    """ln (b^y; b)_inf with b = exp(L) < 1."""
    return -_lerch(1, L, y)


def log_gamma_q(x, q):
    """Jackson's product; for q > 1 the product runs in 1/q."""
    x, q = mp.mpf(x), mp.mpf(q)
    if q < 1:
        L = mp.log(q)
        return _log_pochhammer(1, L) - _log_pochhammer(x, L) + (1 - x) * mp.log(1 - q)
    L = -mp.log(q)
    return (
        _log_pochhammer(1, L)
        - _log_pochhammer(x, L)
        + (1 - x) * mp.log(q - 1)
        + x * (x - 1) / 2 * mp.log(q)
    )


def psi_q(x, q):
    """d/dx of log_gamma_q."""
    x, q = mp.mpf(x), mp.mpf(q)
    if q < 1:
        return -mp.log(1 - q) + mp.log(q) * _lerch(0, mp.log(q), x)
    return -mp.log(q - 1) + mp.log(q) * (x - mp.mpf(1) / 2 - _lerch(0, -mp.log(q), x))


def psi_q_deriv(x, q, n):
    """For q < 1 the n-th derivative of psi_q.  For q > 1 the series the package
    documents for this branch (its cited form, which is not the derivative of
    psi_q): with w = q^{-x}, sum_m m^n w^m / (1 - w^m) = sum_{j>=1} Li_{-n}(w^j)."""
    x, q = mp.mpf(x), mp.mpf(q)
    lq = mp.log(q)
    if q < 1:
        return lq ** (n + 1) * _lerch(-n, lq, x)
    s = _lerch(-n, -x * lq, 1)
    if n == 1:
        return lq * (1 + s)
    return (-1) ** (n - 1) * lq ** (n + 1) * s


def log_G_pq(x, a, b, p, q):
    x = mp.mpf(x)
    return mp.fsum(
        log_gamma_pq(x + ai, p, q) - log_gamma_pq(x + bi, p, q) for ai, bi in zip(a, b)
    )


def f_theorem32(x, p, q, variant):
    x = mp.mpf(x)
    if variant == "as_defined":
        return mp.exp(-(log_gamma_pq(1, p, q) + log_gamma_pq(x, p, q)) / x)
    return mp.exp(-log_gamma_pq(x + 1, p, q) / x)


def h_beta(x, s, t, beta, p, q):
    """Difference-quotient form; the check points keep x away from beta."""
    x, s, t, beta = (mp.mpf(v) for v in (x, s, t, beta))
    num = (
        log_gamma_pq(x + s, p, q)
        - log_gamma_pq(beta + s, p, q)
        - log_gamma_pq(x + t, p, q)
        + log_gamma_pq(beta + t, p, q)
    )
    return mp.exp(num / (x - beta))


def f1(x, a, b, c, d, e, f, p, q):
    x = mp.mpf(x)
    return mp.exp(c * log_gamma_pq(a + b * x, p, q) - f * log_gamma_pq(d + e * x, p, q))


FUNCTIONS = {
    "log_gamma_pq": log_gamma_pq,
    "psi_pq": psi_pq,
    "psi_pq_deriv": psi_pq_deriv,
    "log_gamma_p": log_gamma_p,
    "psi_p": psi_p,
    "log_gamma": log_gamma,
    "psi": psi,
    "log_gamma_q": log_gamma_q,
    "psi_q": psi_q,
    "psi_q_deriv": psi_q_deriv,
    "log_G_pq": log_G_pq,
    "f_theorem32": f_theorem32,
    "h_beta": h_beta,
    "f1": f1,
}


def reference(point):
    """The reference value of one check point (name, *args) as a decimal string."""
    name, *args = point
    with mp.workdps(DPS):
        return mp.nstr(FUNCTIONS[name](*args), DPS)


def rel_err(got, ref):
    """|got - ref| / |ref| for a float got and a decimal-string reference."""
    with mp.workdps(DPS):
        r = mp.mpf(ref)
        return float(abs(mp.mpf(got) - r) / abs(r))
