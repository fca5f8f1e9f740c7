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

from .gammafam import log_gamma_pq
from .monocheck import _LCG, GridSpec, MonotonicityReport
from .psifam import psi_pq
from .qcore import DomainError, PQParams, q_bracket


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
    hypotheses include their ordering.
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
    """ln of prod_i Gamma_{p,q}(x+a_i)/Gamma_{p,q}(x+b_i) for a validated spec."""
    violation = validate_ratio_spec(spec)
    if violation is not None:
        raise DomainError(f"invalid RatioSpec: {violation}")
    if x <= 0:
        raise DomainError(f"x must be positive, got {x!r}")
    return math.fsum(
        log_gamma_pq(x + ai, params) - log_gamma_pq(x + bi, params)
        for ai, bi in zip(spec.a, spec.b)
    )


def f_theorem32(x, params: PQParams, variant="as_defined"):
    """Reciprocal x-th root of the scaled (p,q)-gamma.

    as_defined uses ([p]_q/[p+1]_q) * Gamma_{p,q}(x) under the root (the
    statement); as_proved uses Gamma_{p,q}(x+1) (what the proof actually
    manipulates).  The two differ; both are exposed so campaigns can
    report each.
    """
    if x <= 0:
        raise DomainError(f"x must be positive, got {x!r}")
    if variant == "as_defined":
        scale = log_gamma_pq(1.0, params)  # ln([p]_q/[p+1]_q)
        return math.exp(-(scale + log_gamma_pq(x, params)) / x)
    if variant == "as_proved":
        return math.exp(-log_gamma_pq(x + 1.0, params) / x)
    raise DomainError(f"unknown variant {variant!r}")


def phi(u, spec: TwoPointSpec, params: PQParams):
    """psi_{p,q}(u+s) - psi_{p,q}(u+t): the inner integral of psi'_{p,q} from t to s."""
    if u + spec.s <= 0 or u + spec.t <= 0:
        raise DomainError(f"u={u} leaves a psi argument nonpositive")
    return psi_pq(u + spec.s, params) - psi_pq(u + spec.t, params)


_H_SWITCH = 1e-6  # difference quotient loses ~6 digits inside this radius


def h_beta(x, spec: TwoPointSpec, params: PQParams):
    """Two-point exponential mean of the gamma ratio.

    For x away from beta: the (x-beta)-th root of the cross ratio of
    Gamma_{p,q} values, computed as a log difference quotient.  At the
    removable singularity x = beta (radius 1e-6): exp of the midpoint
    psi difference, second-order accurate.
    """
    if x <= -spec.alpha:
        raise DomainError(f"x must exceed {-spec.alpha}, got {x}")
    s, t, beta = spec.s, spec.t, spec.beta
    if abs(x - beta) <= _H_SWITCH:
        return math.exp(phi(0.5 * (x + beta), spec, params))
    num = (
        log_gamma_pq(x + s, params)
        - log_gamma_pq(beta + s, params)
        - log_gamma_pq(x + t, params)
        + log_gamma_pq(beta + t, params)
    )
    return math.exp(num / (x - beta))


def f1(x, spec: AffineInequalitySpec, params: PQParams):
    """Gamma_{p,q}(a+bx)^c / Gamma_{p,q}(d+ex)^f in the value domain."""
    u = spec.a + spec.b * x
    v = spec.d + spec.e * x
    if u <= 0 or v <= 0:
        raise DomainError(f"affine forms must stay positive at x={x}: {u}, {v}")
    return math.exp(spec.c * log_gamma_pq(u, params) - spec.f * log_gamma_pq(v, params))


@dataclass(frozen=True)
class LemmaCheck:
    hypotheses_hold: bool
    conclusion_holds: bool


_CONCLUSION_SLACK = 1e-12


def lemma_sign_check(spec: AffineInequalitySpec, params: PQParams, x, which):
    """Evaluate one of the three affine-psi lemmas at x.

    which = "L41": ordering hypotheses only; conclusion
        psi(a+bx) - psi(d+ex) <= 0.
    which = "L42": adds ef >= bc > 0 and (psi(a+bx) > 0 or psi(d+ex) > 0);
    which = "L43": adds bc >= ef > 0 and (psi(d+ex) < 0 or psi(a+bx) < 0);
        both conclude bc psi(a+bx) - ef psi(d+ex) <= 0.
    """
    u = spec.a + spec.b * x
    v = spec.d + spec.e * x
    if u <= 0 or v <= 0:
        raise DomainError(f"affine forms must stay positive at x={x}: {u}, {v}")
    ordered = u <= v
    psi_u = psi_pq(u, params)
    psi_v = psi_pq(v, params)
    bc = spec.b * spec.c
    ef = spec.e * spec.f
    if which == "L41":
        hyp = ordered
        concl = psi_u - psi_v <= _CONCLUSION_SLACK
    elif which == "L42":
        hyp = ordered and ef >= bc > 0.0 and (psi_u > 0.0 or psi_v > 0.0)
        concl = bc * psi_u - ef * psi_v <= _CONCLUSION_SLACK
    elif which == "L43":
        hyp = ordered and bc >= ef > 0.0 and (psi_v < 0.0 or psi_u < 0.0)
        concl = bc * psi_u - ef * psi_v <= _CONCLUSION_SLACK
    else:
        raise DomainError(f"unknown lemma id {which!r}")
    return LemmaCheck(hypotheses_hold=hyp, conclusion_holds=concl)


_YOUNG_TOL = 1e-14


def check_young_bracket(grid: GridSpec):
    """Lemma 2.1, [1+x]_q^alpha [1+y]_q^(1-alpha) <= [1+alpha x+(1-alpha) y]_q, at
    grid.points^2 seeded draws of x, y in [lo, hi], alpha in [0, 1), q in [0.05, 0.95).

    The witness is (x, y, alpha) of the smallest slack rhs - lhs."""
    rng = _LCG(grid.seed)
    span = grid.hi - grid.lo
    best_slack = math.inf
    witness = (0.0, 0.0, 0.0)
    count = grid.points**2
    for _ in range(count):
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
    verdict = "pass" if best_slack >= -_YOUNG_TOL else "fail"
    return MonotonicityReport(verdict, best_slack, witness, _YOUNG_TOL, 2 * count, grid.seed)


_SEC4_GRID_POINTS = 21
_SEC4_TOL = 1e-10


def sample_affine_specs(samples, seed):
    """Seeded stream of candidate six-real specs with ordered affine forms on [0,1]."""
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


def run_sec4_campaign(params, samples=1000, seed=42):
    """Gate seeded affine specs on the lemma hypotheses, then test that every
    qualifying sample gives a decreasing ratio and the double inequality on [0,1]."""
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    xs = [i / (_SEC4_GRID_POINTS - 1) for i in range(_SEC4_GRID_POINTS)]
    qualified = skipped = 0
    evaluations = 0
    best_slack = math.inf
    witness = (0.0, 0.0, 0.0)
    for spec in sample_affine_specs(samples, seed):
        gate = None
        for which in ("L42", "L43"):
            if all(lemma_sign_check(spec, params, x, which).hypotheses_hold for x in xs):
                gate = which
                break
        evaluations += 2 * len(xs)
        if gate is None:
            skipped += 1
            continue
        qualified += 1
        vals = [f1(x, spec, params) for x in xs]
        evaluations += len(xs)
        for i, x in enumerate(xs):
            # monotone decrease along the grid
            if i + 1 < len(xs):
                slack = vals[i] - vals[i + 1]
                if slack < best_slack:
                    best_slack = slack
                    witness = (x, spec.a, spec.b)
            # double inequality: f1(1) <= f1(x) <= f1(0)
            for slack in (vals[i] - vals[-1], vals[0] - vals[i]):
                if slack < best_slack:
                    best_slack = slack
                    witness = (x, spec.a, spec.b)
    verdict = "pass" if (best_slack >= -_SEC4_TOL and qualified > 0) else "fail"
    return {
        "verdict": verdict,
        "min_slack": best_slack if qualified else 0.0,
        "witness": witness,
        "tolerance": _SEC4_TOL,
        "evaluations": evaluations,
        "samples": samples,
        "qualified": qualified,
        "skipped": skipped,
        "grid_points": _SEC4_GRID_POINTS,
    }
