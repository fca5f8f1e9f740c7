"""Command-line front end: point evaluation, tables, verification campaigns, limit ladders.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
domain error, a series over its term cap, or a value that overflows a
float.  Data goes to stdout (CSV by default, JSON lines with --format
json); diagnostics go to stderr.  --out writes the same bytes to a file
as well.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .gammafam import (
    log_gamma_classical,
    log_gamma_p,
    log_gamma_pq,
    log_gamma_q,
)
from .monocheck import (
    GridSpec,
    MonotonicityReport,
    check_cm,
    check_lcm,
    check_log_convex,
)
from .paperfuncs import (
    AffineInequalitySpec,
    RatioSpec,
    TwoPointSpec,
    check_young_bracket,
    f1,
    f_theorem32,
    h_beta,
    log_G_pq,
    run_sec4_campaign,
    validate_ratio_spec,
)
from .psifam import (
    psi_classical,
    psi_p,
    psi_pq,
    psi_pq_deriv,
    psi_q,
)
from .qcore import DomainError, PQParams, TruncationError

USAGE_ERROR = 2
CHECK_FAILED = 1


class UsageError(Exception):
    pass


def _fmt(v):
    """Shortest round-trip decimal form for reals; plain str otherwise."""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(records, fmt, out_path):
    if fmt == "json":
        lines = [json.dumps(r) for r in records]
    else:
        if records:
            header = ",".join(records[0].keys())
            lines = [header] + [",".join(_fmt(v) for v in r.values()) for r in records]
        else:
            lines = []
    text = "\n".join(lines) + ("\n" if lines else "")
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_vector(text, flag):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"--{flag} expects comma-separated reals, got {text!r}")


def _pq(args, p=3, q=0.5):
    return PQParams(args.p if args.p is not None else p, args.q if args.q is not None else q)


def _ratio_spec(args):
    return RatioSpec(_parse_vector(args.a, "a"), _parse_vector(args.b, "b"))


def _affine_spec(args):
    coeffs = _parse_vector(args.abc, "abc")
    if len(coeffs) != 6:
        raise UsageError(f"--abc expects six comma-separated reals, got {args.abc!r}")
    return AffineInequalitySpec(*coeffs)


# ---------------------------------------------------------------------------
# eval

# --fn name -> (flags, value(args)); the flags are the only ones it takes, echoed in order,
# and all required but --variant, which defaults to the statement's reading
FUNCTIONS = {
    "gamma_pq": (("x", "p", "q"), lambda a: math.exp(log_gamma_pq(a.x, _pq(a)))),
    "gamma_p": (("x", "p"), lambda a: math.exp(log_gamma_p(a.x, a.p))),
    "gamma_q": (("x", "q"), lambda a: math.exp(log_gamma_q(a.x, a.q))),
    "gamma": (("x",), lambda a: math.exp(log_gamma_classical(a.x))),
    "psi_pq": (("x", "p", "q"), lambda a: psi_pq(a.x, _pq(a))),
    "psi_pq_deriv": (("x", "p", "q", "n"), lambda a: psi_pq_deriv(a.x, _pq(a), a.n)),
    "psi_p": (("x", "p"), lambda a: psi_p(a.x, a.p)),
    "psi_q": (("x", "q"), lambda a: psi_q(a.x, a.q)),
    "psi": (("x",), lambda a: psi_classical(a.x)),
    "G_pq": (("x", "p", "q", "a", "b"),
             lambda a: math.exp(log_G_pq(a.x, _ratio_spec(a), _pq(a)))),
    "f32": (("x", "p", "q", "variant"), lambda a: f_theorem32(a.x, _pq(a), a.variant)),
    "h_beta": (("x", "p", "q", "s", "t", "beta"),
               lambda a: h_beta(a.x, TwoPointSpec(a.s, a.t, a.beta), _pq(a))),
    "f1": (("x", "p", "q", "abc"), lambda a: f1(a.x, _affine_spec(a), _pq(a))),
}

# the function flags of eval and table besides --x, which every function reads
_FN_FLAGS = ("p", "q", "n", "a", "b", "s", "t", "beta", "abc", "variant")


def _eval_value(args):
    flags, value = FUNCTIONS[args.fn]
    if "variant" in flags and args.variant is None:
        args.variant = "as_defined"
    for name in ("x",) + _FN_FLAGS:
        if (name in flags) != (getattr(args, name) is not None):
            verb = "needs" if name in flags else "does not take"
            raise UsageError(f"function {args.fn} {verb} --{name}")
    v = value(args)
    if not math.isfinite(v):
        raise OverflowError(f"{args.fn} gives {v!r}")
    return v, {name: getattr(args, name) for name in flags}


def cmd_eval(args):
    value, inputs = _eval_value(args)
    if args.format == "json":
        record = {"function": args.fn, "inputs": inputs, "output": value,
                  "provenance": "value"}
    else:
        record = {"function": args.fn}
        record.update(inputs)
        record.update(output=value, provenance="value")
    _emit([record], args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# table


def cmd_table(args):
    if args.count < 2:
        raise UsageError(f"--count must be >= 2, got {args.count}")
    if not args.lo < args.hi:
        raise UsageError(f"need --lo < --hi, got [{args.lo}, {args.hi}]")
    records = []
    for i in range(args.count):
        x = args.lo + (args.hi - args.lo) * i / (args.count - 1)
        args.x = x
        value, _ = _eval_value(args)
        records.append({"x": x, "value": value})
    _emit(records, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _report_record(campaign, case, report, grid, tol_scale, extra=None):
    rec = {
        "campaign": campaign,
        "case": case,
        "verdict": report.verdict,
        "min_slack": report.min_slack,
        "w0": float(report.witness[0]),
        "w1": float(report.witness[1]),
        "w2": float(report.witness[2]),
        "tolerance": report.tolerance_used,
        "evaluations": report.evaluations,
        "seed": grid.seed,
        "lo": grid.lo,
        "hi": grid.hi,
        "points": grid.points,
        "max_order": grid.max_order,
        "tol_scale": tol_scale,
    }
    if extra:
        rec.update(extra)
    return rec


def _grid(args, lo, hi, max_order=6):
    # the stencil campaigns draw nothing at random and keep GridSpec's seed
    return GridSpec(
        lo=args.lo if args.lo is not None else lo,
        hi=args.hi if args.hi is not None else hi,
        points=args.points,
        max_order=max_order,
        seed=getattr(args, "seed", GridSpec.seed),
    )


# Each campaign runner returns (case, report, grid, extra) tuples, one per record.


def _verify_logconvex_gamma(args, tol_scale):
    params = _pq(args, 4, 0.6)
    grid = _grid(args, 0.5, 8.0)
    report = check_log_convex(lambda x: math.exp(log_gamma_pq(x, params)), grid, tol_scale)
    return [("gamma_pq", report, grid, {"p": params.p, "q": params.q})]


def _verify_cm_psi_prime(args, tol_scale):
    params = _pq(args)
    grid = _grid(args, 0.5, 6.0)
    report = check_cm(lambda x: psi_pq_deriv(x, params, 1), grid, tol_scale)
    return [("psi_pq_prime", report, grid, {"p": params.p, "q": params.q})]


def _verify_cm_G(args, tol_scale):
    spec = _ratio_spec(args)
    violation = validate_ratio_spec(spec)
    if violation is not None:
        raise UsageError(f"invalid shift vectors: {violation}")
    params = _pq(args)
    grid = _grid(args, 0.5, 6.0)
    report = check_cm(lambda x: math.exp(log_G_pq(x, spec, params)), grid, tol_scale)
    return [("G_pq", report, grid, {"p": params.p, "q": params.q, "a": args.a, "b": args.b})]


def _verify_lcm_f32(args, tol_scale):
    params = _pq(args)
    grid = _grid(args, 0.5, 6.0)
    return [(variant, check_lcm(lambda x: f_theorem32(x, params, variant), grid, tol_scale),
             grid, {"p": params.p, "q": params.q})
            for variant in ("as_defined", "as_proved")]


def _verify_lcm_h(args, tol_scale):
    params = _pq(args)
    spec = TwoPointSpec(args.s if args.s is not None else 2.0,
                        args.t if args.t is not None else 1.0,
                        args.beta if args.beta is not None else 0.5)
    grid = _grid(args, 0.6, 5.0)
    report = check_lcm(lambda x: h_beta(x, spec, params), grid, tol_scale)
    return [("h_beta", report, grid, {"p": params.p, "q": params.q, "s": spec.s,
                                      "t": spec.t, "beta": spec.beta})]


def _verify_lemma21(args, tol_scale):
    grid = _grid(args, 0.0, 5.0, max_order=0)
    return [("young_bracket", check_young_bracket(grid, tol_scale), grid, None)]


def _verify_sec4(args, tol_scale):
    params = _pq(args)
    result = run_sec4_campaign(params, samples=args.samples, seed=args.seed,
                               tol_scale=tol_scale)
    report = MonotonicityReport(result["verdict"], result["min_slack"], result["witness"],
                                result["tolerance"], result["evaluations"], args.seed)
    grid = GridSpec(0.0, 1.0, result["grid_points"], max_order=0, seed=args.seed)
    return [("f1_double_inequality", report, grid,
             {"samples": result["samples"], "qualified": result["qualified"],
              "skipped": result["skipped"], "p": params.p, "q": params.q})]


_STENCIL_FLAGS = ("p", "q", "lo", "hi", "points", "tol-scale")

# campaign -> (runner, the flags it reads); a trailing ! marks a required flag
CAMPAIGNS = {
    "logconvex-gamma": (_verify_logconvex_gamma, _STENCIL_FLAGS + ("seed",)),
    "cm-psi-prime": (_verify_cm_psi_prime, _STENCIL_FLAGS),
    "cm-G": (_verify_cm_G, _STENCIL_FLAGS + ("a!", "b!")),
    "lcm-f32": (_verify_lcm_f32, _STENCIL_FLAGS),
    "lcm-h": (_verify_lcm_h, _STENCIL_FLAGS + ("s", "t", "beta")),
    "ineq-lemma21": (_verify_lemma21, ("lo", "hi", "points", "seed", "tol-scale")),
    "ineq-sec4": (_verify_sec4, ("p", "q", "samples", "seed", "tol-scale")),
}


def cmd_verify(args):
    results = args.runner(args, args.tol_scale)
    _emit([_report_record(args.campaign, case, report, grid, args.tol_scale, extra)
           for case, report, grid, extra in results], args.format, args.out)
    # lcm-f32: the statement and the proof define different functions; the check
    # succeeds if either reading is logarithmically completely monotonic
    return 0 if any(report.passed for _, report, _, _ in results) else CHECK_FAILED


# ---------------------------------------------------------------------------
# limits

# corner -> the flags it reads, marked as in CAMPAIGNS
CORNERS = {
    "p-to-q": ("x!", "ladder", "q"),
    "q-to-p": ("x!", "ladder", "p"),
    "p-gamma": ("x!", "ladder"),
    "q-gamma": ("x!", "ladder"),
    "psi-diagram": ("x!", "ladder", "p", "q"),
}

_GAP_TOL = 1e-10  # noise floor of the long log-sums at large p


def limit_rows(corner, x, ladder=None, p=None, q=None):
    """Rows of (edge, parameter, gap) for one commutative-diagram corner.

    Gaps are absolute differences of log-values (log-gamma corners) or of
    values (psi corners).
    """
    rows = []
    if corner == "p-gamma":
        target = log_gamma_classical(x)
        for pv in ladder or (10, 100, 1000, 10000):
            pv = int(pv)
            rows.append(("gamma_p->gamma", pv, abs(log_gamma_p(x, pv) - target)))
    elif corner == "q-gamma":
        target = log_gamma_classical(x)
        for qv in ladder or (0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999):
            rows.append(("gamma_q->gamma", qv, abs(log_gamma_q(x, qv) - target)))
    elif corner == "p-to-q":
        qv = q if q is not None else 0.9
        target = log_gamma_q(x, qv)
        for pv in ladder or (10, 100, 1000, 10000):
            pv = int(pv)
            rows.append(("gamma_pq->gamma_q", pv,
                         abs(log_gamma_pq(x, PQParams(pv, qv)) - target)))
    elif corner == "q-to-p":
        pv = int(p) if p is not None else 10
        target = log_gamma_p(x, pv)
        for qv in ladder or (0.9, 0.99, 0.999, 0.9999, 1 - 1e-6, 1 - 1e-8):
            rows.append(("gamma_pq->gamma_p", qv,
                         abs(log_gamma_pq(x, PQParams(pv, qv)) - target)))
    elif corner == "psi-diagram":
        qv = q if q is not None else 0.9
        target = psi_q(x, qv)
        for pv in (10, 100, 1000, 10000):
            rows.append(("psi_pq->psi_q", pv, abs(psi_pq(x, PQParams(pv, qv)) - target)))
        pv = int(p) if p is not None else 10
        target = psi_p(x, pv)
        for qv in (0.9, 0.99, 0.999, 0.9999, 1 - 1e-6, 1 - 1e-8):
            rows.append(("psi_pq->psi_p", qv, abs(psi_pq(x, PQParams(pv, qv)) - target)))
        target = psi_classical(x)
        for pv in ladder or (100, 1000, 10000, 100000, 1000000):
            pv = int(pv)
            rows.append(("psi_p->psi", pv, abs(psi_p(x, pv) - target)))
    else:
        raise UsageError(f"unknown corner {corner!r}")
    return rows


def gaps_nonincreasing(rows, tol=_GAP_TOL):
    """Per edge, require gap_{i+1} <= gap_i + tol along the ladder."""
    by_edge = {}
    for edge, _, gap in rows:
        by_edge.setdefault(edge, []).append(gap)
    for gaps in by_edge.values():
        for g0, g1 in zip(gaps, gaps[1:]):
            if g1 > g0 + tol:
                return False
    return True


def cmd_limits(args):
    ladder = None if args.ladder is None else _parse_vector(args.ladder, "ladder")
    rows = limit_rows(args.corner, args.x, ladder=ladder,
                      p=getattr(args, "p", None), q=getattr(args, "q", None))
    records = [{"corner": args.corner, "edge": edge, "parameter": param, "gap": gap}
               for edge, param, gap in rows]
    _emit(records, args.format, args.out)
    return 0 if gaps_nonincreasing(rows) else CHECK_FAILED


# ---------------------------------------------------------------------------
# argument plumbing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main reports the message and returns 2, as for every other usage error
        self.print_usage(sys.stderr)
        raise UsageError(message)


# flag -> argparse keywords, shared by every command, campaign and corner that reads it
_FLAGS = {
    "fn": {"choices": FUNCTIONS},
    "x": {"type": float},
    "p": {"type": int},
    "q": {"type": float},
    "n": {"type": int},
    "a": {},
    "b": {},
    "s": {"type": float},
    "t": {"type": float},
    "beta": {"type": float},
    "abc": {},
    "variant": {"choices": ("as_defined", "as_proved")},
    "lo": {"type": float},
    "hi": {"type": float},
    "count": {"type": int},
    "points": {"type": int, "default": 64},
    "samples": {"type": int, "default": 1000},
    "seed": {"type": int, "default": 42},
    "tol-scale": {"type": float, "default": 1000.0},
    "ladder": {"help": "comma-separated parameter ladder"},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "out": {"help": "also write output bytes to this file"},
}


def _add_parser(subs, name, flags, help=None, **defaults):
    """A subcommand that takes exactly the given flags (a trailing ! marks a required one),
    plus --format and --out."""
    sub = subs.add_parser(name, help=help, allow_abbrev=False)
    for entry in flags + ("format", "out"):
        flag = entry.rstrip("!")
        sub.add_argument(f"--{flag}", required=entry.endswith("!"), **_FLAGS[flag])
    sub.set_defaults(**defaults)


@functools.cache
def build_parser():
    parser = _Parser(prog="pqgamma", description=__doc__, allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    _add_parser(subs, "eval", ("fn!", "x") + _FN_FLAGS,
                help="evaluate one function at a point", handler=cmd_eval)
    _add_parser(subs, "table", ("fn!",) + _FN_FLAGS + ("lo!", "hi!", "count!"),
                help="tabulate one function over a range", handler=cmd_table)
    verify = subs.add_parser("verify", help="run a theorem verification campaign",
                             allow_abbrev=False).add_subparsers(dest="campaign", required=True)
    for name, (runner, flags) in CAMPAIGNS.items():
        _add_parser(verify, name, flags, handler=cmd_verify, runner=runner)
    limits = subs.add_parser("limits", help="commutative-diagram convergence ladders",
                             allow_abbrev=False).add_subparsers(dest="corner", required=True)
    for name, flags in CORNERS.items():
        _add_parser(limits, name, flags, handler=cmd_limits)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (UsageError, DomainError, TruncationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except OverflowError as exc:
        sys.stderr.write(f"error: the value overflows a float ({exc})\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
