"""The benchmark's workloads: seeded op lists and fixed check points.

Plain data shared by the runner (which computes mpmath references for the
check points) and the worker (which runs the ops against the package).
Nothing here imports pqgamma.

An op is a tuple (kind, payload, expect):
  ("call", (fn, *args), None)        one scalar call of a package function
  ("neg", (fn, *args), "fail")       a negative-control campaign that must fail
  ("cli", argv, expect)              cli.main(argv) in the worker process
For cli ops, expect is (exit code, verdict rule): the rule is "all" (every
record passes), "any" (at least one does) or None (no verdict column).

A check point is a tuple (fn, *args) with the argument order used by
oracle.FUNCTIONS and by worker.call().
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("family-eval", "q-limit", "campaigns")

FAMILY_P = (1, 10, 1000)
FAMILY_Q = (0.5, 0.9, 0.999)
LIMIT_Q = (0.5, 0.9, 0.99, 0.999, 0.9999, 1.001, 1.5, 2.0, 10.0)
DERIV_ORDERS = tuple(range(1, 9))
LIMIT_DERIV_ORDERS = (1, 2, 4)

# x per (function, parameter) cell.  The series cost grows like 1/x, so each
# cell takes one x near the middle of each of k equal slices of [ln lo, ln hi],
# moved by the seed within a small share of the slice: the cost of every op,
# and so of a pass, then barely depends on the seed.
FAMILY_STRATA = 6
LIMIT_STRATA = 6
JITTER = 0.1  # share of a slice that the seed moves x within

# Campaign sizes keep every op under about 0.3 s: an op's latency is its
# fastest pass, and a shorter op is more likely to find a pass in which the
# shared host left it alone.  logconvex-gamma (and its negative control) draws
# points**2 random triples rather than a stencil grid, so it keeps its default
# size; ineq-sec4 runs as several smaller ops with their own seeds, 1200
# samples per pass in all.
CAMPAIGN_POINTS = 256
LOGCONVEX_POINTS = 64
SEC4_SAMPLES = 300
SEC4_RUNS = 4
# each campaign has its own p; the seed moves q within a narrow band, so that
# the campaigns' cost does not depend on it
CAMPAIGN_P = {"logconvex-gamma": 3, "cm-psi-prime": 4, "cm-G": 5, "lcm-f32": 6, "lcm-h": 2,
              "ineq-sec4": 3}
CAMPAIGN_Q = (0.49, 0.51)

G_SHIFTS = ((1.0, 2.0), (1.5, 2.5))
TWO_POINT = (2.0, 1.0, 0.5)  # s, t, beta: the lcm-h defaults
AFFINE = (0.5, 1.0, 1.2, 1.0, 1.5, 1.0)  # a, b, c, d, e, f

def _strata(rng, lo, hi, k):
    a, w = math.log(lo), (math.log(hi) - math.log(lo)) / k
    return [math.exp(a + w * (i + 0.5 + JITTER * (rng.random() - 0.5))) for i in range(k)]


def _family_ops(rng):
    cells = []
    for p in FAMILY_P:
        for q in FAMILY_Q:
            cells.append(("log_gamma_pq", p, q))
            cells.append(("psi_pq", p, q))
            cells.extend(("psi_pq_deriv", p, q, n) for n in DERIV_ORDERS)
        cells.append(("log_gamma_p", p))
        cells.append(("psi_p", p))
    cells += [("log_gamma",), ("psi",)]
    ops = []
    for fn, *params in cells:
        for x in _strata(rng, 0.05, 10.0, FAMILY_STRATA):
            ops.append(("call", (fn, x, *params), None))
    rng.shuffle(ops)
    return ops


def _limit_ops(rng):
    cells = []
    for q in LIMIT_Q:
        cells.append(("log_gamma_q", q))
        cells.append(("psi_q", q))
        cells.extend(("psi_q_deriv", q, n) for n in LIMIT_DERIV_ORDERS)
    ops = []
    for fn, *params in cells:
        for x in _strata(rng, 0.5, 10.0, LIMIT_STRATA):
            ops.append(("call", (fn, x, *params), None))
    for corner in ("q-gamma", "p-to-q", "psi-diagram"):
        x = f"{rng.uniform(1.4, 1.6):.3f}"
        ops.append(("cli", ["limits", corner, "--x", x], (0, None)))
    rng.shuffle(ops)
    return ops


def _campaign_ops(rng):
    def pq(campaign):
        return ["--p", str(CAMPAIGN_P[campaign]), "--q", f"{rng.uniform(*CAMPAIGN_Q):.3f}"]

    def seed():
        return ["--seed", str(rng.randrange(1, 10**6))]

    points = ["--points", str(CAMPAIGN_POINTS)]
    a, b = (",".join(f"{v:g}" for v in vec) for vec in G_SHIFTS)
    argvs = [
        (["verify", "logconvex-gamma", *pq("logconvex-gamma"), "--points", str(LOGCONVEX_POINTS),
          *seed()], "all"),
        (["verify", "cm-psi-prime", *pq("cm-psi-prime"), *points], "all"),
        (["verify", "cm-G", "--a", a, "--b", b, *pq("cm-G"), *points], "all"),
        (["verify", "lcm-f32", *pq("lcm-f32"), *points], "any"),
        (["verify", "lcm-h", *pq("lcm-h"), *points], "all"),
        (["verify", "ineq-lemma21", *points, *seed()], "all"),
    ]
    argvs += [(["verify", "ineq-sec4", *pq("ineq-sec4"), "--samples", str(SEC4_SAMPLES),
                *seed()], "all") for _ in range(SEC4_RUNS)]
    ops = [("cli", argv, (0, rule)) for argv, rule in argvs]
    # the campaigns must be able to fail at the same grid sizes
    ops.append(("neg", ("neg_cm_psi_prime", rng.randrange(1, 10**6)), "fail"))
    ops.append(("neg", ("neg_logconvex_gamma", rng.randrange(1, 10**6)), "fail"))
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "family-eval": _family_ops,
    "q-limit": _limit_ops,
    "campaigns": _campaign_ops,
}


def ops(workload, seed):
    """The op list of one pass; the same (workload, seed) gives the same list."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# Untimed calls before the first timed op: one of each kind the workload runs.
WARMUP = {
    "family-eval": [("call", p, None) for p in (
        ("log_gamma_pq", 1.0, 10, 0.5), ("psi_pq", 1.0, 10, 0.5),
        ("psi_pq_deriv", 1.0, 10, 0.5, 2), ("log_gamma_p", 1.0, 10), ("psi_p", 1.0, 10),
        ("log_gamma", 1.5), ("psi", 1.5))],
    "q-limit": [("call", p, None) for p in (
        ("log_gamma_q", 1.5, 0.5), ("psi_q", 1.5, 0.5), ("psi_q_deriv", 1.5, 0.5, 1),
        ("psi_q_deriv", 1.5, 2.0, 1))]
        + [("cli", ["limits", "p-to-q", "--x", "1"], (0, None))],
    "campaigns": [("cli", ["verify", "cm-psi-prime", "--points", "2"], (0, "all")),
                  ("cli", ["verify", "ineq-sec4", "--samples", "10"], (0, "all"))],
}


def _family_checks():
    pts = []
    for p in FAMILY_P:
        for q in FAMILY_Q:
            for x in (0.05, 0.7, 3.3, 10.0):
                pts.append(("log_gamma_pq", x, p, q))
                pts.append(("psi_pq", x, p, q))
                pts.extend(("psi_pq_deriv", x, p, q, n) for n in (1, 4, 8))
    for p in FAMILY_P:
        for x in (0.05, 0.7, 3.3, 10.0):
            pts.append(("log_gamma_p", x, p))
            pts.append(("psi_p", x, p))
    for x in (0.05, 0.7, 3.3, 10.0):
        pts.append(("log_gamma", x))
        pts.append(("psi", x))
    return pts


def _limit_checks():
    pts = []
    for q in LIMIT_Q:
        for x in (0.5, 3.7):
            pts.append(("log_gamma_q", x, q))
            pts.append(("psi_q", x, q))
            pts.extend(("psi_q_deriv", x, q, n) for n in (1, 4))
    return pts


def _campaign_checks():
    pts = []
    s, t, beta = TWO_POINT
    for p, q in ((3, 0.5), (4, 0.6), (6, 0.3)):
        for x in (0.6, 1.7, 4.9):
            pts.append(("log_gamma_pq", x, p, q))
            pts.append(("psi_pq_deriv", x, p, q, 1))
            pts.append(("log_G_pq", x, *G_SHIFTS, p, q))
            pts.append(("f_theorem32", x, p, q, "as_defined"))
            pts.append(("f_theorem32", x, p, q, "as_proved"))
            pts.append(("h_beta", x, s, t, beta, p, q))
        for x in (0.0, 0.35, 1.0):
            pts.append(("f1", x, *AFFINE, p, q))
    return pts


CHECKS = {
    "family-eval": _family_checks(),
    "q-limit": _limit_checks(),
    "campaigns": _campaign_checks(),
}


def all_points():
    """Every check point of every workload."""
    return [pt for w in WORKLOADS for pt in CHECKS[w]]
