"""Concrete inequality-bearing functions built on Gamma_{p,q} and psi_{p,q}.

Covers the shifted gamma-ratio product G, the reciprocal-power root
function (in both its stated and proved forms), the two-point exponential
mean h, its inner psi-difference phi, and the affine-argument ratio
family with its hypothesis gates, plus the two sampled campaigns that
are not difference tables: Lemma 2.1 on q-brackets and the section 4
double inequality for f1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gammafam import log_gamma_pq
from .monocheck import _EPS, _LCG, GridSpec, MonotonicityReport, _check_tol_scale
from .psifam import psi_pq
from .qcore import DomainError, PQParams, _exp, _positive_array, q_bracket


@dataclass(frozen=True)
class RatioSpec:
    """Shift vectors (a_i), (b_i) for the gamma-ratio product G.

    Validity (ordering plus partial-sum domination) is checked by
    validate_ratio_spec, not at construction.
    """

    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))


@dataclass(frozen=True)
class TwoPointSpec:
    """Two shift points s != t and a base point beta >= -min(s,t)."""

    s: float
    t: float
    beta: float

    def __post_init__(self):
        if self.s == self.t:
            raise DomainError("s and t must be distinct")
        if self.beta < -self.alpha:
            raise DomainError(f"beta must be >= {-self.alpha}, got {self.beta}")

    @property
    def alpha(self):
        return min(self.s, self.t)


@dataclass(frozen=True)
class AffineInequalitySpec:
    """The six reals (a,b,c,d,e,f) of the affine-argument gamma ratio.

    Interval-dependent invariants are checked pointwise: f1 and
    lemma_sign_check reject nonpositive affine forms, and the lemma
    hypotheses include their ordering.  run_sec4_campaign holds many specs in
    one, each field an (S, 1) column of S specs, which f1 and _lemma broadcast
    against x.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float


def validate_ratio_spec(spec: RatioSpec):
    """Return None if the spec satisfies the ordering/domination hypotheses,
    else a message naming the first violation."""
    a, b = spec.a, spec.b
    if len(a) != len(b):
        raise DomainError(f"length mismatch: len(a)={len(a)}, len(b)={len(b)}")
    if len(a) == 0:
        raise DomainError("empty shift vectors")
    if a[0] <= 0.0:
        return "a[1] must be positive"
    if b[0] <= 0.0:
        return "b[1] must be positive"
    for i in range(1, len(a)):
        if a[i] < a[i - 1]:
            return f"a not nondecreasing at index {i + 1}"
        if b[i] < b[i - 1]:
            return f"b not nondecreasing at index {i + 1}"
    sa = sb = 0.0
    for k in range(len(a)):
        sa += a[k]
        sb += b[k]
        if sa > sb:
            return f"partial-sum domination violated at k={k + 1}"
    return None


def log_G_pq(x, spec: RatioSpec, params: PQParams):
    """ln of prod_i Gamma_{p,q}(x+a_i)/Gamma_{p,q}(x+b_i) for a validated spec, at a float
    or an array x; the spec is validated once per call, and each element of an array
    result equals the float call, bit for bit."""
    violation = validate_ratio_spec(spec)
    if violation is not None:
        raise DomainError(f"invalid RatioSpec: {violation}")
    xs = _positive_array(x)
    n = len(spec.a)
    lg = log_gamma_pq(xs[..., None] + np.array(spec.a + spec.b), params)
    logs = (lg[..., :n] - lg[..., n:]).reshape(-1, n)
    out = np.fromiter(map(math.fsum, zip(*logs.T)), float, len(logs)).reshape(xs.shape)
    return float(out) if out.ndim == 0 else out


def f_theorem32(x, params: PQParams, variant="as_defined"):
    """Reciprocal x-th root of the scaled (p,q)-gamma.

    as_defined uses ([p]_q/[p+1]_q) * Gamma_{p,q}(x) under the root (the
    statement); as_proved uses Gamma_{p,q}(x+1) (what the proof actually
    manipulates).  The two differ; both are exposed so campaigns can
    report each.  x may be a float or an array, as for f1.
    """
    xs = _positive_array(x)
    if variant == "as_defined":
        # lg[0] = ln Gamma_{p,q}(1) = ln([p]_q/[p+1]_q)
        lg = log_gamma_pq(np.append(1.0, xs), params)
        return _exp(-(lg[0] + lg[1:].reshape(xs.shape)) / xs)
    if variant == "as_proved":
        return _exp(-log_gamma_pq(xs + 1.0, params) / xs)
    raise DomainError(f"unknown variant {variant!r}")


def _above_alpha(x, spec: TwoPointSpec, name):
    """x as a float array, or DomainError naming its first element outside (-alpha, inf)."""
    xs = np.asarray(x, dtype=float)
    bad = np.flatnonzero(~((xs > -spec.alpha) & (xs < math.inf)))
    if bad.size:
        got = x if xs.ndim == 0 else float(xs.flat[bad[0]])
        raise DomainError(f"{name} must lie in ({-spec.alpha}, inf), got {got!r}")
    return xs


def phi(u, spec: TwoPointSpec, params: PQParams):
    """psi_{p,q}(u+s) - psi_{p,q}(u+t): the inner integral of psi'_{p,q} from t to s, at a
    float or an array u."""
    us = _above_alpha(u, spec, "u")
    psi_s, psi_t = psi_pq(np.stack([us + spec.s, us + spec.t]), params)
    out = psi_s - psi_t
    return float(out) if out.ndim == 0 else out


_H_SWITCH = 1e-6  # difference quotient loses ~6 digits inside this radius


def h_beta(x, spec: TwoPointSpec, params: PQParams):
    """Two-point exponential mean of the gamma ratio.

    For x away from beta: the (x-beta)-th root of the cross ratio of
    Gamma_{p,q} values, computed as a log difference quotient.  At the
    removable singularity x = beta (radius 1e-6): exp of the midpoint
    psi difference, second-order accurate.  x may be a float or an array, as for f1.
    """
    xs = _above_alpha(x, spec, "x")
    s, t, beta = spec.s, spec.t, spec.beta
    near = np.abs(xs - beta) <= _H_SWITCH
    far = ~near
    logs = np.empty(xs.shape)
    if far.any():
        xf = xs[far]
        lg_xs, lg_xt = log_gamma_pq(np.stack([xf + s, xf + t]), params)
        lg_bs, lg_bt = log_gamma_pq(np.array([beta + s, beta + t]), params)
        logs[far] = (lg_xs - lg_bs - lg_xt + lg_bt) / (xf - beta)
    if near.any():
        logs[near] = phi(0.5 * (xs[near] + beta), spec, params)
    return _exp(logs)


def _affine_forms(spec: AffineInequalitySpec, x):
    """(u, v) = (a+bx, d+ex) as arrays, or DomainError naming the first x where one is <= 0."""
    xs = np.asarray(x, dtype=float)
    u = spec.a + spec.b * xs
    v = spec.d + spec.e * xs
    bad = np.flatnonzero((u <= 0) | (v <= 0))
    if bad.size:
        i = bad[0]
        x_i = np.broadcast_to(xs, u.shape).flat[i]  # a column spec broadcasts u over x
        raise DomainError(f"affine forms must stay positive at x={x_i}: "
                          f"{u.flat[i]}, {v.flat[i]}")
    return u, v


def f1(x, spec: AffineInequalitySpec, params: PQParams):
    """Gamma_{p,q}(a+bx)^c / Gamma_{p,q}(d+ex)^f in the value domain, for a float or an
    array x; each element of an array result equals the float call, bit for bit."""
    u, v = _affine_forms(spec, x)
    lg_u, lg_v = log_gamma_pq(np.stack([u, v]), params)
    return _exp(spec.c * lg_u - spec.f * lg_v)


@dataclass(frozen=True)
class LemmaCheck:
    hypotheses_hold: bool
    conclusion_holds: bool


_CONCLUSION_SLACK = 1e-12


def lemma_sign_check(spec: AffineInequalitySpec, params: PQParams, x, which):
    """Evaluate one of the three affine-psi lemmas at x, a float or an array; for an
    array both fields are boolean arrays of its shape.

    which = "L41": ordering hypotheses only; conclusion
        psi(a+bx) - psi(d+ex) <= 0.
    which = "L42": adds ef >= bc > 0 and (psi(a+bx) > 0 or psi(d+ex) > 0);
    which = "L43": adds bc >= ef > 0 and (psi(d+ex) < 0 or psi(a+bx) < 0);
        both conclude bc psi(a+bx) - ef psi(d+ex) <= 0.
    """
    u, v = _affine_forms(spec, x)
    hyp, concl = _lemma(spec, u <= v, *psi_pq(np.stack([u, v]), params), which)
    if np.ndim(hyp) == 0:
        hyp, concl = bool(hyp), bool(concl)
    return LemmaCheck(hypotheses_hold=hyp, conclusion_holds=concl)


def _lemma(spec, ordered, psi_u, psi_v, which):
    """(hypotheses, conclusion) of lemma_sign_check from the psi values at u and v."""
    bc = spec.b * spec.c
    ef = spec.e * spec.f
    if which == "L41":
        return ordered, psi_u - psi_v <= _CONCLUSION_SLACK
    if which == "L42":
        hyp = ordered & (ef >= bc) & (bc > 0.0) & ((psi_u > 0.0) | (psi_v > 0.0))
    elif which == "L43":
        hyp = ordered & (bc >= ef) & (ef > 0.0) & ((psi_v < 0.0) | (psi_u < 0.0))
    else:
        raise DomainError(f"unknown lemma id {which!r}")
    return hyp, bc * psi_u - ef * psi_v <= _CONCLUSION_SLACK


_YOUNG_TOL = 1e-14
_YOUNG_CHUNK = 1024  # draws per numpy evaluation, which bounds the working set
# bound on the error of the numpy brackets relative to q_bracket, as a share of max(lhs, rhs)
_YOUNG_ERR = 64 * _EPS


def _q_brackets(n, lq):
    """[n]_q elementwise from ln q, by q_bracket's formula in numpy."""
    if n.min() < 0:
        raise DomainError(f"n must be >= 0, got {float(n.min())!r}")
    return np.expm1(n * lq) / np.expm1(lq)


def _young_slack(x, y, alpha, q):
    """rhs - lhs of Lemma 2.1 at one draw, from the scalar q_bracket."""
    beta = 1.0 - alpha
    lhs = q_bracket(1.0 + x, q) ** alpha * q_bracket(1.0 + y, q) ** beta
    return q_bracket(1.0 + alpha * x + beta * y, q) - lhs


def check_young_bracket(grid: GridSpec, tol_scale=1e3):
    """Lemma 2.1, [1+x]_q^alpha [1+y]_q^(1-alpha) <= [1+alpha x+(1-alpha) y]_q, at
    grid.points^2 seeded draws of x, y in [lo, hi], alpha in [0, 1), q in [0.05, 0.95).

    The witness is (x, y, alpha) of the first smallest slack rhs - lhs.  Draws are
    evaluated with numpy in chunks; numpy's exp, log and pow can differ from the math
    module's by a few ulp, so every draw whose slack may be the chunk's smallest within
    _YOUNG_ERR is evaluated again with _young_slack, in draw order.  The result is then
    that of evaluating every draw with _young_slack.  The tolerance is 1e-14 at the
    default tol_scale of 1000 and scales with it."""
    _check_tol_scale(tol_scale)
    tol = _YOUNG_TOL * (tol_scale / 1e3)
    rng = _LCG(grid.seed)
    span = grid.hi - grid.lo
    best_slack = math.inf
    witness = (0.0, 0.0, 0.0)
    count = grid.points**2
    for done in range(0, count, _YOUNG_CHUNK):
        draws = rng.uniforms(4 * min(_YOUNG_CHUNK, count - done)).reshape(-1, 4)
        x = grid.lo + span * draws[:, 0]
        y = grid.lo + span * draws[:, 1]
        alpha = draws[:, 2]
        q = 0.05 + 0.9 * draws[:, 3]
        beta = 1.0 - alpha
        lq = np.log(q)
        lhs = _q_brackets(1.0 + x, lq) ** alpha * _q_brackets(1.0 + y, lq) ** beta
        rhs = _q_brackets(1.0 + alpha * x + beta * y, lq)
        slack = rhs - lhs
        err = _YOUNG_ERR * np.maximum(lhs, rhs)
        for i in np.flatnonzero(slack - err <= (slack + err).min()):
            s = _young_slack(float(x[i]), float(y[i]), float(alpha[i]), float(q[i]))
            if s < best_slack:
                best_slack = s
                witness = (float(x[i]), float(y[i]), float(alpha[i]))
    verdict = "pass" if best_slack >= -tol else "fail"
    return MonotonicityReport(verdict, best_slack, witness, tol, 2 * count, grid.seed)


_SEC4_GRID_POINTS = 21
_SEC4_TOL = 1e-10


def _affine_columns(samples, seed):
    """The seeded candidate specs of sample_affine_specs as one spec of (samples, 1) columns,
    from the same draws: a, b, d, e, c, f take the uniforms of each sample in that order."""
    u = _LCG(seed).uniforms(6 * samples).reshape(-1, 6, 1)
    a = 0.2 + 2.8 * u[:, 0]
    b = 0.1 + 1.9 * u[:, 1]
    return AffineInequalitySpec(a, b, 0.1 + 1.9 * u[:, 4], a + 2.0 * u[:, 2], b + 2.0 * u[:, 3],
                                0.1 + 1.9 * u[:, 5])


def sample_affine_specs(samples, seed):
    """Seeded stream of candidate six-real specs with ordered affine forms on [0,1]."""
    cols = _affine_columns(samples, seed)
    rows = np.hstack([cols.a, cols.b, cols.c, cols.d, cols.e, cols.f]).tolist()
    return [AffineInequalitySpec(*row) for row in rows]


def run_sec4_campaign(params, samples=1000, seed=42, tol_scale=1e3):
    """Gate seeded affine specs on the lemma hypotheses, then test that every
    qualifying sample gives a decreasing ratio and the double inequality on [0,1].
    The tolerance is 1e-10 at the default tol_scale of 1000 and scales with it.

    All samples are gated with one psi_pq call and the qualifying ones scored with one f1
    call; min_slack and the witness are those of the first smallest slack in the order of
    a loop over the samples, then the grid."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    _check_tol_scale(tol_scale)
    tol = _SEC4_TOL * (tol_scale / 1e3)
    xs = np.arange(_SEC4_GRID_POINTS) / (_SEC4_GRID_POINTS - 1)
    specs = _affine_columns(samples, seed)
    u, v = _affine_forms(specs, xs)
    psi_u, psi_v = psi_pq(np.stack([u, v]), params)  # one evaluation gates both lemmas
    gated = np.zeros(samples, dtype=bool)
    for which in ("L42", "L43"):
        gated |= _lemma(specs, u <= v, psi_u, psi_v, which)[0].all(axis=1)
    qualified = int(gated.sum())
    best_slack = math.inf
    witness = (0.0, 0.0, 0.0)
    if qualified:
        chosen = AffineInequalitySpec(*(getattr(specs, name)[gated] for name in "abcdef"))
        vals = f1(xs, chosen, params)
        # slacks in the order of a loop over the grid: at x_i the decrease vals[i] - vals[i+1],
        # then the double inequality f1(1) <= f1(x_i) <= f1(0), less the endpoints' zero
        # comparisons with themselves
        slacks = np.full((qualified, len(xs), 3), math.inf)
        slacks[:, :-1, 0] = vals[:, :-1] - vals[:, 1:]
        slacks[:, :-1, 1] = vals[:, :-1] - vals[:, -1:]
        slacks[:, 1:, 2] = vals[:, :1] - vals[:, 1:]
        k = int(np.argmin(slacks))  # the first smallest, as a strict < in that loop keeps
        row, cell = divmod(k, 3 * len(xs))
        best_slack = float(slacks.flat[k])
        witness = (float(xs[cell // 3]), float(chosen.a[row, 0]), float(chosen.b[row, 0]))
    verdict = "pass" if (best_slack >= -tol and qualified > 0) else "fail"
    return {
        "verdict": verdict,
        "min_slack": best_slack if qualified else 0.0,
        "witness": witness,
        "tolerance": tol,
        "evaluations": (2 * samples + qualified) * len(xs),
        "samples": samples,
        "qualified": qualified,
        "skipped": samples - qualified,
        "grid_points": _SEC4_GRID_POINTS,
    }
