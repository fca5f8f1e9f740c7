"""q-arithmetic primitives: q-brackets, the (p,q) sum constants, infinite q-Pochhammer products.

Everything gamma-scale is carried in the log domain; callers exponentiate
at the boundary.  Evaluation near q = 1 goes through expm1 so that the
bracket (1 - q^n)/(1 - q) keeps its digits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """Argument outside the domain of a (p,q)-family function."""


class TruncationError(RuntimeError):
    """A series or product hit its term cap before meeting the tail bound."""


@dataclass(frozen=True)
class PQParams:
    """Deformation parameters shared by all (p,q) functions: p >= 1 integer, 0 < q < 1."""

    p: int
    q: float

    def __post_init__(self):
        if not isinstance(self.p, (int, np.integer)) or self.p < 1:
            raise DomainError(f"p must be a positive integer, got {self.p!r}")
        if not (0.0 < self.q < 1.0):
            raise DomainError(f"q must lie strictly inside (0,1), got {self.q!r}")


def q_bracket(n, q):
    """[n]_q = (1 - q^n)/(1 - q), safe for q arbitrarily close to 1.

    Computed as expm1(n ln q)/expm1(ln q); tends to n as q -> 1-.
    """
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie strictly inside (0,1), got {q!r}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n!r}")
    lq = math.log(q)
    return math.expm1(n * lq) / math.expm1(lq)


def _check_x(x):
    """DomainError unless 0 < x < inf, which a NaN x fails too."""
    if not 0 < x < math.inf:
        raise DomainError(f"x must be positive and finite, got {x!r}")


def _check_q(q):
    """DomainError unless 0 < q < inf and q != 1, the domain of the q-limit functions."""
    if not 0 < q < math.inf or q == 1.0:
        raise DomainError(f"q must be positive, finite and != 1, got {q!r}")


def _positive_array(x):
    """x as a float array, or DomainError naming its first element outside (0, inf).  A 0-d
    x is compared as given, which is cheaper than array reductions."""
    xs = np.asarray(x, dtype=float)
    if xs.ndim == 0:
        _check_x(x)
    elif xs.size and not 0 < xs.min() <= xs.max() < math.inf:  # a NaN element makes min NaN
        _check_x(float(xs.flat[np.flatnonzero(~((xs > 0) & (xs < math.inf)))[0]]))
    return xs


def _exp(w):
    """np.exp of a float or an array, as a float for a 0-d result: a float and an array
    element take the same numpy path.  An exponent whose value overflows raises
    OverflowError, as math.exp does, not a RuntimeWarning and inf."""
    try:
        with np.errstate(over="raise"):
            out = np.exp(w)
    except FloatingPointError:
        raise OverflowError("math range error") from None
    return float(out) if out.ndim == 0 else out


_SLICE = 1 << 13  # terms per numpy call of a sliced sum: 64 KiB temporaries


def _row_sums(term, xs, ks, arg):
    """term(xs[..., None], ks, arg).sum(axis=-1).  An xs of more than _SLICE // len(ks)
    elements is summed in slices of that many rows, so that no temporary grows with xs;
    each row's sum is the same numpy call on the same row, bit for bit.  A 0-d xs (a float
    x) is passed without the extra axis: the same sum, with 1-D temporaries, on which
    numpy's ufuncs skip broadcasting; a float log_gamma_pq call at p = 4 takes 5.1 us this
    way and 6.2 us through the broadcast path (best of 40 timeit runs, 2-vCPU x86-64 VM)."""
    if not xs.ndim:
        return term(xs, ks, arg).sum()
    rows = max(1, _SLICE // ks.size)
    if xs.size <= rows:
        return term(xs[..., None], ks, arg).sum(axis=-1)
    flat = xs.ravel()
    return np.concatenate([term(flat[i:i + rows, None], ks, arg).sum(axis=-1)
                           for i in range(0, flat.size, rows)]).reshape(xs.shape)


@functools.lru_cache(maxsize=32)
def _pq_constants(p, q):
    """The x-independent parts of the (p,q) finite sums: ln [p]_q, and as read-only arrays the
    shifts k = 0..p and the weights w_k = q^k/(1 - q^k), k = 1..p, as exp(k ln q)/-expm1(k ln q),
    whose numerator underflows to 0 quietly at large k."""
    ks = np.arange(0, p + 1, dtype=float)
    kq = ks[1:] * math.log(q)
    ws = np.exp(kq) / -np.expm1(kq)
    ks.flags.writeable = ws.flags.writeable = False
    return math.log(q_bracket(p, q)), ks, ws


_CHUNK = 1 << 14  # most terms summed per stop test of a series
_REL_TOL = 1e-14  # relative tail bound every q-series meets
_MAX_TERMS = 10**9  # about 10 s of summing; r closer to 1 than ~1 - 5e-8 needs more


def _chunk_sum(term, j0, n):
    """(sum, last) of t = term(j) at j = j0 .. j0+n-1 as floats, the sum equal to t.sum() bit
    for bit.  Above _SLICE terms, t is evaluated as two halves split where numpy's pairwise
    summation splits it, n//2 rounded down to a multiple of 8, and the half-sums are added as
    that summation adds them.  A whole chunk of 2^14 floats is 128 KiB, glibc's default mmap
    threshold, and temporaries of that size can make every chunk fault in fresh pages."""
    if n <= _SLICE:
        t = term(np.arange(j0, j0 + n, dtype=float))
        return float(t.sum()), float(t[-1])
    n2 = n // 2 - n // 2 % 8
    head = term(np.arange(j0, j0 + n2, dtype=float)).sum()
    t = term(np.arange(j0 + n2, j0 + n, dtype=float))
    return float(head + t.sum()), float(t[-1])


def _geometric_series(g, y0, lr):
    """sum_{j>=0} g(y0 + j lr) for 0 < r = e^lr < 1; returns (value, terms, bound).

    g maps y = ln z to the terms, so that it can take 1 - z from -expm1(y).  Every
    g used has one sign and |g(z)|/z nondecreasing, so |g(rz)| <= r |g(z)| and the
    tail after the last summed term t is at most bound = |t| r/(1-r).  As |sum| >= |t_0|,
    J = ceil(ln(_REL_TOL (1-r)) / ln r) terms always meet _REL_TOL; J > _MAX_TERMS raises
    TruncationError before any evaluation.  Chunks of at most _CHUNK terms are summed
    (by _chunk_sum) until bound <= _REL_TOL * |sum|.
    """
    need = max(1, math.ceil((math.log(_REL_TOL) + math.log(-math.expm1(lr))) / lr))
    if need > _MAX_TERMS:
        raise TruncationError(f"series in r={math.exp(lr)!r} needs {need} terms for its tail "
                              f"bound, over the cap of {_MAX_TERMS}")
    ratio = 1.0 / math.expm1(-lr)  # r/(1-r)
    total, done = 0.0, 0
    while done < need:
        n = min(_CHUNK, need - done)
        chunk, last = _chunk_sum(lambda j: g(y0 + lr * j), done, n)
        total += chunk
        done += n
        bound = abs(last) * ratio
        if bound <= _REL_TOL * abs(total):
            break
    return total, done, bound


def log_q_pochhammer_inf(a, q):
    """ln (a;q)_inf = sum_{j>=0} ln(1 - a q^j), summed until its tail bound |t| q/(1-q)
    after the last summed term t (valid as -ln(1-z)/z is nondecreasing) is <= 1e-14 * |sum|.
    """
    if not (0.0 <= a < 1.0):
        raise DomainError(f"a must lie in [0,1), got {a!r}")
    if not (0.0 < q < 1.0):
        raise DomainError(f"q must lie strictly inside (0,1), got {q!r}")
    if a == 0.0:
        return 0.0
    return _geometric_series(lambda y: np.log1p(-np.exp(y)), math.log(a), math.log(q))[0]
