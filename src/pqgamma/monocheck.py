"""Difference-table verification engine for complete monotonicity and friends.

Complete monotonicity is tested through forward-difference signs,
(-1)^n Delta_h^n f(x) >= -tol, which characterizes CM exactly and needs
only function values; high-order numerical derivatives are hopeless at
double precision.  Tolerances scale with the largest table magnitude to
absorb cancellation.

check_cm and check_lcm pass f the 1-D array of the stencil abscissae of up to
_BLOCK grid points in one call and build the tables with numpy; their result is
that of the sequential loop over grid points, steps and orders.
check_log_convex and check_decreasing call f at one float at a time;
check_log_convex draws its uniforms with _LCG.uniforms, in one call up to 64 points.
A value of f that is not finite raises DomainError naming its abscissa: a NaN fails every
comparison and an inf makes the tolerance inf, so either would pass any check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .qcore import DomainError

_EPS = 2.220446049250313e-16
_STEPS = (1e-2, 1e-1, 0.5)  # stencil spacings h of the difference campaigns
_MAX_ORDER = 6  # highest difference order of the difference campaigns
_BLOCK = 1024  # grid points per call of f in the difference campaigns
# uniforms per _LCG.uniforms call of check_log_convex: one call up to 64 points, and no
# temporary over 96 KiB however many points**2 triples are drawn
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


def _difference_campaign(f, grid, tol_scale, min_order):
    """The difference test at every grid point x and step h of _STEPS, over the orders
    min_order..n that x + n h <= hi allows (at most _MAX_ORDER).

    The grid points are taken in blocks of _BLOCK, each evaluated in one call of f, and
    the result is that of a loop over (x, h, n) keeping the first smallest margin
    (-1)^n Delta_h^n f(x) + tol."""
    _check_tol_scale(tol_scale)
    xs = grid.xs()
    best_margin = math.inf
    best = (0.0, (grid.lo, 0, _STEPS[0]), 0.0)
    evaluations = 0
    for b in range(0, len(xs), _BLOCK):
        margin, found, count = _difference_block(f, xs[b:b + _BLOCK], grid.hi, tol_scale,
                                                 min_order)
        evaluations += count
        if margin < best_margin:
            best_margin, best = margin, found
    verdict = "pass" if best_margin >= 0.0 else "fail"
    return MonotonicityReport(verdict, best[0], best[1], best[2], evaluations, grid.seed)


def _difference_block(f, xs, hi, tol_scale, min_order):
    """(margin, (slack, witness, tol), evaluations) of the first smallest margin over the
    grid points xs; the margin is inf when no order is tested.

    Every abscissa x + j h is evaluated in one call of f, in the order (x, h, j).  Each
    cell (x, h) with n orders gets the full table of _MAX_ORDER + 1 values by np.diff, the
    subtraction of difference_table, its values past j = n padded with NaN.  Entry i of
    row r reads the values i .. i + r, so the entries of the cell's own table, i + r <= n,
    are those of its n-order table, and every other entry is NaN."""
    x0 = np.array(xs)[:, None]
    steps = np.array(_STEPS)
    ratio = (hi - x0) / steps + 1e-12  # (x, h), finite as GridSpec checks
    avail = np.minimum(_MAX_ORDER, ratio).astype(int)  # capped before the cast to int
    avail[avail < min_order] = -1  # cells with too few orders evaluate nothing
    js = np.arange(_MAX_ORDER + 1)
    used = js <= avail[..., None]  # (x, h, j)
    values = np.full(used.shape, math.nan)
    if used.any():
        values[used] = f((x0[..., None] + js * steps[:, None])[used])
        bad = np.argwhere(used & ~np.isfinite(values))  # in (x, h, j) order
        if bad.size:
            i, h, j = bad[0]
            z, v = float(x0[i, 0] + j * steps[h]), float(values[i, h, j])
            raise DomainError(f"f({z!r}) = {v!r} is not finite")
    rows = [values]
    while rows[-1].shape[-1] > 1:
        rows.append(np.diff(rows[-1], axis=-1))
    # max(abs(v) for row in rows for v in row) over the cell's own table; fmax skips the NaN
    # padding, and a cell that evaluates nothing gets 1
    mag = np.fmax.reduce(np.abs(np.concatenate(rows, axis=-1)), axis=-1)
    tols = tol_scale * _EPS * np.fmax(1.0, mag)
    slack = (-1.0) ** js * np.stack([r[..., 0] for r in rows], axis=-1)  # (-1)^n Delta^n f(x)
    margins = slack + tols[..., None]  # NaN past the cell's orders
    margins[..., :min_order] = math.inf
    margins[np.isnan(margins)] = math.inf  # an untested order is never best
    k = int(np.argmin(margins))  # the first smallest in (x, h, n) order
    i, h, n = np.unravel_index(k, margins.shape)
    found = (float(slack.flat[k]), (xs[i], int(n), _STEPS[h]), float(tols[i, h]))
    return float(margins.flat[k]), found, int(used.sum())


def check_cm(f, grid: GridSpec, tol_scale=1e3):
    """Complete-monotonicity campaign: (-1)^n Delta_h^n f >= -tol for n = 0.._MAX_ORDER.

    f takes a 1-D float array of abscissae and returns the array of its values."""
    return _difference_campaign(f, grid, tol_scale, min_order=0)


def check_lcm(f, grid: GridSpec, tol_scale=1e3):
    """Logarithmic complete monotonicity: the difference test on ln f, orders 1.._MAX_ORDER.

    f takes a 1-D float array of abscissae and returns the array of its values, which
    must be positive; ln f is np.log of that array."""

    def g(xs):
        vs = np.asarray(f(xs), dtype=float)
        bad = np.flatnonzero(vs <= 0.0)
        if bad.size:
            i = bad[0]
            raise DomainError(f"f({float(xs[i])}) = {float(vs[i])} is not positive; "
                              "ln f undefined")
        return np.log(vs)

    return _difference_campaign(g, grid, tol_scale, min_order=1)


def check_log_convex(f, grid: GridSpec, tol_scale=1e3):
    """Seeded-random log-convexity test: ln f(ax+by) <= a ln f(x) + b ln f(y) + tol.

    The 3 points^2 uniforms, (x, y, alpha) for each triple, are drawn _DRAWS at a time.
    f takes one float and returns one float: callers such as the benchmark's negative
    control pass f written with math.exp, which an array call would break (ROADMAP
    item 1a)."""
    _check_tol_scale(tol_scale)
    best_margin = math.inf
    best = (0.0, (grid.lo, grid.lo, 0.5), 0.0)
    count = grid.points**2
    span = grid.hi - grid.lo
    rng = _LCG(grid.seed)
    inf = math.inf
    # floats taken one at a time: a list of all of them costs 0.35 MB of peak RSS at 64 points
    draws = itertools.chain.from_iterable(
        map(float, rng.uniforms(min(_DRAWS, 3 * count - done)))
        for done in range(0, 3 * count, _DRAWS))
    for ux, uy, alpha in zip(draws, draws, draws):
        x = grid.lo + span * ux
        y = grid.lo + span * uy
        beta = 1.0 - alpha
        m = alpha * x + beta * y
        lx, ly, lm = f(x), f(y), f(m)
        if not (0.0 < lx < inf and 0.0 < ly < inf and 0.0 < lm < inf):
            z, v = next(zv for zv in ((x, lx), (y, ly), (m, lm)) if not 0.0 < zv[1] < inf)
            raise DomainError(f"f({z!r}) = {v!r} is not positive and finite")
        lhs = math.log(lm)
        rhs = alpha * math.log(lx) + beta * math.log(ly)
        slack = rhs - lhs
        tol = tol_scale * _EPS * max(1.0, abs(lhs), abs(rhs))
        margin = slack + tol
        if margin < best_margin:
            best_margin = margin
            best = (slack, (x, y, alpha), tol)
    verdict = "pass" if best_margin >= 0.0 else "fail"
    return MonotonicityReport(verdict, best[0], best[1], best[2], 3 * count, grid.seed)


def check_decreasing(f, grid: GridSpec, tol_scale=1e3):
    """Monotone decrease over the sorted grid: f(x_{i+1}) <= f(x_i) + tol."""
    _check_tol_scale(tol_scale)
    xs = grid.xs()
    vals = [f(x) for x in xs]
    for x, v in zip(xs, vals):
        if not math.isfinite(v):
            raise DomainError(f"f({float(x)!r}) = {float(v)!r} is not finite")
    tol = tol_scale * _EPS * max(1.0, max(abs(v) for v in vals))
    best_margin = math.inf
    best = (0.0, (xs[0], 1, 0.0), tol)
    for i in range(len(xs) - 1):
        slack = vals[i] - vals[i + 1]
        margin = slack + tol
        if margin < best_margin:
            best_margin = margin
            best = (slack, (xs[i], 1, xs[i + 1] - xs[i]), tol)
    verdict = "pass" if best_margin >= 0.0 else "fail"
    return MonotonicityReport(verdict, best[0], best[1], best[2], len(xs), grid.seed)
