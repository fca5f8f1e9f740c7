"""The four gamma corners: Gamma_{p,q}, Euler's Gamma_p, Jackson's Gamma_q, classical Gamma.

All functions return natural logs; ratios in downstream inequality work
would overflow in the value domain.  Gamma_{p,q} is defined only for
q in (0,1); Gamma_q carries both the 0<q<1 and q>1 branches.
"""

from __future__ import annotations

import math

import numpy as np

from .qcore import DomainError, PQParams, _check_q, _check_x, _geometric_series
from .qcore import _pq_constants, _positive_array, _row_sums


def log_gamma_pq(x, params: PQParams):
    """ln Gamma_{p,q}(x) = x ln[p]_q - ln[x]_q - sum_{k=1}^{p} log1p(w_k s), s = 1 - q^x and
    w_k = q^k/(1 - q^k): [k]_q of [p]_q! paired with [x+k]_q, [x+k]_q/[k]_q = 1 + w_k s, so
    that no O(p ln(1/(1-q))) log-sums cancel, as in log_gamma_p.

    x may be a float or an array; each element of an array result equals the
    float call at that element, bit for bit."""
    xs = _positive_array(x)
    p, q = params.p, params.q
    lbp, _, ws = _pq_constants(p, q)
    s = -np.expm1(xs * math.log(q))
    out = xs * lbp - (np.log(s) - math.log1p(-q)) - _row_sums(_paired_logs, s, ws, None)
    return float(out) if out.ndim == 0 else out


def _paired_logs(s, ws, _):
    """ln([x+k]_q/[k]_q) = log1p(w_k s) for k = 1..p."""
    return np.log1p(s * ws)


def log_gamma_p(x, p):
    """ln Gamma_p(x) = x ln p - ln x - sum_{k=1}^{p} log1p(x/k), the sums of ln k and
    ln(x+k) paired term by term, so that no O(p ln p) log-sums cancel."""
    _check_x(x)
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise DomainError(f"p must be a positive integer, got {p!r}")
    s = np.log1p(x / np.arange(1, p + 1, dtype=float)).sum()
    return x * math.log(p) - math.log(x) - float(s)


def log_gamma_q(x, q):
    """ln Gamma_q(x) from Jackson's products, for 0<q<1 and q>1 (in r = 1/q).

    ln((r;r)_inf/(r^x;r)_inf) is summed as one series of terms g(r^j) with |g(z)|/z
    nondecreasing, so the tail after the last summed term t is at most |t| r/(1-r).
    The 1e-14 relative tail bound applies to this combined sum, not to each product.
    """
    _check_x(x)
    _check_q(q)
    lr = -abs(math.log(q))  # ln r
    c = math.exp(lr) * math.expm1((x - 1.0) * lr)  # r^x - r
    # terms ln((1 - r^{j+1})/(1 - r^{x+j})) = log1p(r^j (r^x - r)/(1 - r^{x+j})) at y = j ln r;
    # the sign of 1 - r^{x+j} = -expm1 rides on c, which saves a numpy call per chunk
    s = _geometric_series(lambda y: np.log1p(np.exp(y) * -c / np.expm1(y + x * lr)), 0, lr)[0]
    if q < 1.0:
        return s + (1.0 - x) * math.log1p(-q)
    return s + (1.0 - x) * math.log(q - 1.0) + 0.5 * x * (x - 1.0) * math.log(q)


def log_gamma_classical(x):
    """ln Gamma(x) for 0 < x < inf, from the standard library."""
    _check_x(x)
    return math.lgamma(x)
