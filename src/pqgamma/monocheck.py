"""Difference-table verification engine for complete monotonicity and friends.

Complete monotonicity is tested through forward-difference signs,
(-1)^n Delta_h^n f(x) >= -tol, which characterizes CM exactly and needs
only function values; high-order numerical derivatives are hopeless at
double precision.  Tolerances scale with the largest table magnitude to
absorb cancellation.

check_cm and check_lcm pass f the 1-D array of the stencil abscissae of up to
_BLOCK grid points in one call and build the tables with numpy.  check_log_convex and
check_decreasing call f at one float at a time and score its values with numpy.
Every check, and paperfuncs.check_young_bracket, ranks its cells with _lowest: the
result is that of the sequential loop over the cells that keeps the first smallest
margin.  A value of f that is not finite raises DomainError naming its abscissa
(_check_values): a NaN fails every comparison and an inf makes the tolerance inf, so
either would pass any check.  So does a difference table that overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import DomainError

_EPS = 2.220446049250313e-16
_STEPS = (1e-2, 1e-1, 0.5)  # stencil spacings h of the difference campaigns
_MAX_ORDER = 6  # highest difference order of the difference campaigns
_BLOCK = 1024  # grid points per call of f in the difference campaigns
# uniforms per _LCG.uniforms call of the sampled checks, taken in whole draws (3 per
# check_log_convex triple, 4 per check_young_bracket draw): no draw array over 96 KiB
# however many points**2 draws are taken
_DRAWS = 3 * 64**2


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid and stencil policy for the difference-table campaigns."""

    lo: float
    hi: float
    points: int = 64
    seed: int = 42

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"lo and hi must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DomainError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.points < 1:
            raise DomainError(f"points must be >= 1, got {self.points}")
        # the stencil count (hi - lo)/h and the grid points lo + (hi - lo) i/(points - 1)
        # must be finite; an inf hi - lo makes both inf
        span = self.hi - self.lo
        if not math.isfinite(max(span / min(_STEPS), span * (self.points - 1))):
            raise DomainError(f"lo and hi are too far apart: (hi - lo)/{min(_STEPS)} or "
                              f"(hi - lo)*(points - 1) overflows, got lo = {self.lo}, "
                              f"hi = {self.hi}, points = {self.points}")

    def xs(self):
        if self.points == 1:
            return [self.lo]
        span = self.hi - self.lo
        return [self.lo + span * i / (self.points - 1) for i in range(self.points)]


@dataclass(frozen=True)
class MonotonicityReport:
    """Verdict plus the worst-case signed slack of a campaign."""

    verdict: str  # "pass" | "fail"
    min_slack: float
    witness: tuple  # (x, n, h) for difference campaigns; (x, y, alpha) for log-convexity
    tolerance_used: float
    evaluations: int
    seed: int | None = None


class _LCG:
    """Seeded 64-bit linear congruential generator; deterministic across platforms."""

    _A = 6364136223846793005
    _C = 1442695040888963407
    _M = 1 << 64

    def __init__(self, seed):
        self.state = (seed ^ 0x9E3779B97F4A7C15) % self._M

    def uniform(self):
        self.state = (self._A * self.state + self._C) % self._M
        return (self.state >> 11) / float(1 << 53)

    def uniforms(self, n):
        """The next n uniform() values as an array, bit for bit: state k is
        A^k s + C (1 + A + ... + A^{k-1}), evaluated in uint64, whose arithmetic is mod 2^64
        like the generator's."""
        powers = np.cumprod(np.full(n, self._A, dtype=np.uint64))  # A^1 .. A^n
        geometric = np.cumsum(powers) - powers + 1  # 1 + A + ... + A^{k-1}
        states = powers * np.uint64(self.state) + np.uint64(self._C) * geometric
        if n:
            self.state = int(states[-1])
        return (states >> 11) / float(1 << 53)


def forward_difference(f, x, h, n):
    """Delta_h^n f(x) = sum_j (-1)^{n-j} C(n,j) f(x+jh), compensated via fsum."""
    if h <= 0:
        raise DomainError(f"h must be positive, got {h!r}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n!r}")
    return math.fsum(
        (-1.0) ** (n - j) * math.comb(n, j) * f(x + j * h) for j in range(n + 1)
    )


def difference_table(values):
    """Rows of forward differences: row[n][i] = Delta^n at offset i.

    Built by the exact recursion Delta^n(x) = Delta^{n-1}(x+h) - Delta^{n-1}(x).
    """
    rows = [list(values)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([prev[i + 1] - prev[i] for i in range(len(prev) - 1)])
    return rows


def _check_tol_scale(tol_scale):
    """0 <= tol_scale < inf: an inf or NaN tolerance passes anything; 0 is an exact sign test."""
    if not 0.0 <= tol_scale < math.inf:
        raise DomainError(f"tol_scale must be finite and >= 0, got {tol_scale!r}")


def _check_values(zs, values, positive=False):
    """DomainError naming the first abscissa of zs whose value is not finite, or with
    positive (the log checks), not positive and finite."""
    low = 0.0 if positive else -math.inf
    bad = np.flatnonzero(~((values > low) & (values < math.inf)))
    if bad.size:
        i = bad[0]
        need = "positive and finite" if positive else "finite"
        raise DomainError(f"f({float(zs.flat[i])!r}) = {float(values.flat[i])!r} is not {need}")


def _lowest(chunks, empty, seed):
    """The report of a check from chunks of its cells in evaluation order, each chunk
    (margins, slacks, tols, witness_of, evaluations): arrays over its cells (tols may be one
    float) and witness_of(k), the witness of its cell k.  A chunk's first smallest margin
    replaces the best only when strictly smaller, as in a loop over the cells that keeps
    the first smallest by a strict <.  The verdict is pass when that margin is >= 0, and
    with no cell the report holds empty = (slack, witness, tolerance)."""
    best_margin, best, evaluations = math.inf, empty, 0
    for margins, slacks, tols, witness_of, count in chunks:
        evaluations += count
        if margins.size:
            k = int(np.argmin(margins))
            if margins[k] < best_margin:
                best_margin = margins[k]
                best = (float(slacks[k]), witness_of(k), float(tols[k] if np.ndim(tols) else tols))
    verdict = "pass" if best_margin >= 0.0 else "fail"
    return MonotonicityReport(verdict, *best, evaluations, seed)


def _difference_campaign(f, grid, tol_scale, min_order):
    """The difference test at every grid point x and step h of _STEPS, over the orders
    min_order..n that x + n h <= hi allows (at most _MAX_ORDER).  The grid points are taken
    in blocks of _BLOCK, each evaluated in one call of f."""
    _check_tol_scale(tol_scale)
    xs = grid.xs()
    blocks = (_difference_block(f, xs[b:b + _BLOCK], grid.hi, tol_scale, min_order)
              for b in range(0, len(xs), _BLOCK))
    return _lowest(blocks, (0.0, (grid.lo, 0, _STEPS[0]), 0.0), grid.seed)


def _difference_block(f, xs, hi, tol_scale, min_order):
    """The _lowest chunk of the grid points xs, whose cells are the tested (x, h, n): n from
    min_order to the order count of (x, h).  Every abscissa x + j h is evaluated in one
    call of f, in (x, h, j) order.  Each (x, h) with n orders gets the full table of
    _MAX_ORDER + 1 values by np.diff, its values past j = n padded with NaN: entry i of row
    r reads the values i .. i + r, so the entries i + r <= n are its n-order table, and
    np.fmax skips the NaN elsewhere in the magnitude.  The first (x, h) with a value that is
    not finite, or with a tested order whose slack or tolerance is not finite (its table
    overflows), raises DomainError, as a loop over the cells would."""
    x0 = np.array(xs)[:, None]
    steps = np.array(_STEPS)
    ratio = (hi - x0) / steps + 1e-12  # (x, h), finite as GridSpec checks
    avail = np.minimum(_MAX_ORDER, ratio).astype(int)[..., None]  # capped before the cast
    js = np.arange(_MAX_ORDER + 1)  # the offsets j of the values, and the orders n
    used = (js <= avail) & (avail >= min_order)  # (x, h, j)
    tested = used & (js >= min_order)  # (x, h, n)
    zs = (x0[..., None] + js * steps[:, None])[used]
    values = np.full(used.shape, math.nan)
    if zs.size:
        values[used] = f(zs)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing table raises below
        rows = [values]
        while rows[-1].shape[-1] > 1:
            rows.append(np.diff(rows[-1], axis=-1))
        mag = np.fmax.reduce(np.abs(np.concatenate(rows, axis=-1)), axis=-1)
        tols = tol_scale * _EPS * np.fmax(1.0, mag)  # 1 where the cell evaluates nothing
        slack = (-1.0) ** js * np.stack([r[..., 0] for r in rows], axis=-1)  # (-1)^n Delta^n
        broken = (used & ~np.isfinite(values)) | (
            tested & ~(np.isfinite(slack) & np.isfinite(tols)[..., None]))
        i, h, n = np.nonzero(tested)
        slack, tol = slack[i, h, n], tols[i, h]
        margins = slack + tol
    bad = np.argwhere(broken.any(axis=-1))  # in (x, h) order
    if bad.size:
        b, s = bad[0]
        cell = used[b, s]
        _check_values(x0[b, 0] + js[cell] * steps[s], values[b, s, cell])
        raise DomainError(f"the difference table of f overflows at x = {xs[b]!r}, "
                          f"h = {_STEPS[s]!r}")
    return margins, slack, tol, lambda k: (xs[i[k]], int(n[k]), _STEPS[h[k]]), zs.size


def check_cm(f, grid: GridSpec, tol_scale=1e3):
    """Complete-monotonicity campaign: (-1)^n Delta_h^n f >= -tol for n = 0.._MAX_ORDER.

    f takes a 1-D float array of abscissae and returns the array of its values."""
    return _difference_campaign(f, grid, tol_scale, min_order=0)


def check_lcm(f, grid: GridSpec, tol_scale=1e3):
    """Logarithmic complete monotonicity: the difference test on ln f, orders 1.._MAX_ORDER.

    f takes a 1-D float array of abscissae and returns the array of its values, which
    must be positive; ln f is np.log of that array."""

    def g(xs):
        values = np.asarray(f(xs), dtype=float)
        _check_values(xs, values, positive=True)
        return np.log(values)

    return _difference_campaign(g, grid, tol_scale, min_order=1)


def _sampled(grid, width, calls, score):
    """The report of grid.points**2 seeded draws of width uniforms u each, the first three
    giving x, y in [lo, hi] and alpha in [0, 1), the witness.  They are drawn _DRAWS // width
    at a time, and score(x, y, alpha, u) gives their slacks and tolerances for calls
    evaluations per draw."""
    rng = _LCG(grid.seed)
    count = grid.points**2
    per = _DRAWS // width
    span = grid.hi - grid.lo

    def chunk(m):
        u = rng.uniforms(width * m).reshape(-1, width)
        x, y, alpha = grid.lo + span * u[:, 0], grid.lo + span * u[:, 1], u[:, 2]
        slack, tol = score(x, y, alpha, u)
        return (slack + tol, slack, tol,
                lambda k: (float(x[k]), float(y[k]), float(alpha[k])), calls * m)

    chunks = (chunk(min(per, count - done)) for done in range(0, count, per))
    return _lowest(chunks, (0.0, (grid.lo, grid.lo, 0.5), 0.0), grid.seed)  # points >= 1


def check_log_convex(f, grid: GridSpec, tol_scale=1e3):
    """Seeded-random log-convexity test: ln f(ax+by) <= a ln f(x) + b ln f(y) + tol.

    f takes one float and returns one float: callers such as the benchmark's negative
    control pass f written with math.exp, which an array call would break (ROADMAP item
    1a).  Its values stream into an array in the order x, y, ax+by of each triple."""
    _check_tol_scale(tol_scale)

    def score(x, y, alpha, _):
        beta = 1.0 - alpha
        zs = np.stack([x, y, alpha * x + beta * y], axis=-1).ravel()
        values = np.fromiter(map(f, map(float, zs)), float, zs.size)
        _check_values(zs, values, positive=True)
        lx, ly, lhs = np.log(values).reshape(-1, 3).T
        rhs = alpha * lx + beta * ly
        return rhs - lhs, tol_scale * _EPS * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))

    return _sampled(grid, 3, 3, score)


def check_decreasing(f, grid: GridSpec, tol_scale=1e3):
    """Monotone decrease over the sorted grid: f(x_{i+1}) <= f(x_i) + tol."""
    _check_tol_scale(tol_scale)
    xs = grid.xs()
    values = np.fromiter(map(f, xs), float, len(xs))
    _check_values(np.array(xs), values)
    tol = tol_scale * _EPS * max(1.0, float(np.abs(values).max()))
    slack = values[:-1] - values[1:]
    chunk = (slack + tol, slack, tol, lambda k: (xs[k], 1, xs[k + 1] - xs[k]), len(xs))
    return _lowest([chunk], (0.0, (xs[0], 1, 0.0), tol), grid.seed)
