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
from .monocheck import (  # the checks are looked up by name in _verify_stencil
    _MAX_ORDER,
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
)
from .psifam import (
    psi_classical,
    psi_p,
    psi_pq,
    psi_pq_deriv,
    psi_q,
)
from .qcore import DomainError, PQParams, TruncationError, _exp

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


_VARIANTS = ("as_defined", "as_proved")  # the readings of f32


def _pq(args):
    return PQParams(args.p, args.q)


def _ratio_spec(args):
    return RatioSpec(_parse_vector(args.a, "a"), _parse_vector(args.b, "b"))


def _affine_spec(args):
    coeffs = _parse_vector(args.abc, "abc")
    if len(coeffs) != 6:
        raise UsageError(f"--abc expects six comma-separated reals, got {args.abc!r}")
    return AffineInequalitySpec(*coeffs)


def _at(fn, *rest):
    return lambda x: fn(x, *rest)


def _exp_at(log_fn, *rest):
    return lambda x: _exp(log_fn(x, *rest))


# ---------------------------------------------------------------------------
# eval and table

# --fn name -> (flags, make); make(args) is the function of x at the other flags. The flags
# are the only ones it takes, echoed in order, and all required but --variant, which
# defaults to the statement's reading. make looks the library functions up when it runs,
# so that a rebinding of them (a tracer, a test spy) is seen.
FUNCTIONS = {
    "gamma_pq": (("x", "p", "q"), lambda a: _exp_at(log_gamma_pq, _pq(a))),
    "gamma_p": (("x", "p"), lambda a: _exp_at(log_gamma_p, a.p)),
    "gamma_q": (("x", "q"), lambda a: _exp_at(log_gamma_q, a.q)),
    "gamma": (("x",), lambda a: _exp_at(log_gamma_classical)),
    "psi_pq": (("x", "p", "q"), lambda a: _at(psi_pq, _pq(a))),
    "psi_pq_deriv": (("x", "p", "q", "n"), lambda a: _at(psi_pq_deriv, _pq(a), a.n)),
    "psi_p": (("x", "p"), lambda a: _at(psi_p, a.p)),
    "psi_q": (("x", "q"), lambda a: _at(psi_q, a.q)),
    "psi": (("x",), lambda a: _at(psi_classical)),
    "G_pq": (("x", "p", "q", "a", "b"), lambda a: _exp_at(log_G_pq, _ratio_spec(a), _pq(a))),
    "f32": (("x", "p", "q", "variant"), lambda a: _at(f_theorem32, _pq(a), a.variant)),
    "h_beta": (("x", "p", "q", "s", "t", "beta"),
               lambda a: _at(h_beta, TwoPointSpec(a.s, a.t, a.beta), _pq(a))),
    "f1": (("x", "p", "q", "abc"), lambda a: _at(f1, _affine_spec(a), _pq(a))),
}

# the function flags of eval and table besides --x, which every function reads
_FN_FLAGS = ("p", "q", "n", "a", "b", "s", "t", "beta", "abc", "variant")


def _function(args):
    """The --fn function of x at the other flags, which must be exactly the ones it takes.
    A non-finite value raises OverflowError."""
    flags, make = FUNCTIONS[args.fn]
    if "variant" in flags and args.variant is None:
        args.variant = "as_defined"
    for name in _FN_FLAGS:
        if (name in flags) != (getattr(args, name) is not None):
            verb = "needs" if name in flags else "does not take"
            raise UsageError(f"function {args.fn} {verb} --{name}")
    f = make(args)

    def value(x):
        v = f(x)
        if not math.isfinite(v):
            raise OverflowError(f"{args.fn} gives {v!r}")
        return v

    return value


def cmd_eval(args):
    value = _function(args)(args.x)
    inputs = {name: getattr(args, name) for name in FUNCTIONS[args.fn][0]}
    if args.format == "json":
        record = {"function": args.fn, "inputs": inputs, "output": value, "provenance": "value"}
    else:
        record = {"function": args.fn, **inputs, "output": value, "provenance": "value"}
    _emit([record], args.format, args.out)
    return 0


def cmd_table(args):
    if args.count < 2:
        raise UsageError(f"--count must be >= 2, got {args.count}")
    if not args.lo < args.hi:
        raise UsageError(f"need --lo < --hi, got [{args.lo}, {args.hi}]")
    value = _function(args)
    xs = [args.lo + (args.hi - args.lo) * i / (args.count - 1) for i in range(args.count)]
    _emit([{"x": x, "value": value(x)} for x in xs], args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _report_record(args, case, report, grid, max_order, extra):
    return {
        "campaign": args.campaign,
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
        "max_order": max_order,
        "tol_scale": args.tol_scale,
        **extra,
    }


def _verify_stencil(check, fn, cases, args):
    flags, make = FUNCTIONS[fn]
    grid = GridSpec(args.lo, args.hi, args.points, seed=args.seed)
    records = []
    for case, fixed in cases.items():
        a = argparse.Namespace(**{**vars(args), **fixed})
        # looked up by name when the campaign runs, so that a rebinding of it is seen
        report = globals()[check](make(a), grid, args.tol_scale)
        extra = {name: getattr(a, name) for name in flags[1:] if name not in fixed}
        records.append(_report_record(args, case, report, grid, _MAX_ORDER, extra))
    return records


def _verify_lemma21(args):
    grid = GridSpec(args.lo, args.hi, args.points, seed=args.seed)
    return [_report_record(args, "young_bracket", check_young_bracket(grid, args.tol_scale),
                           grid, 0, {})]


def _verify_sec4(args):
    result = run_sec4_campaign(_pq(args), samples=args.samples, seed=args.seed,
                               tol_scale=args.tol_scale)
    report = MonotonicityReport(result["verdict"], result["min_slack"], result["witness"],
                                result["tolerance"], result["evaluations"], args.seed)
    grid = GridSpec(0.0, 1.0, result["grid_points"], seed=args.seed)
    return [_report_record(args, "f1_double_inequality", report, grid, 0,
                           {"samples": result["samples"], "qualified": result["qualified"],
                            "skipped": result["skipped"], "p": args.p, "q": args.q})]


_GRID_FLAGS = ("lo", "hi", "points", "tol-scale")


def _stencil(check, fn, cases, **defaults):
    """The CAMPAIGNS row that runs the monocheck function named check on the --fn function
    fn, once per case; cases maps a record's case name to the flags of fn it fixes. Each other
    flag of fn but x is a campaign flag and a record column, required where defaults has none."""
    fixed = next(iter(cases.values()))
    fn_flags = tuple(name if name in defaults else name + "!"
                     for name in FUNCTIONS[fn][0][1:] if name not in fixed)
    seed = ("seed",) if check == "check_log_convex" else ()  # the one that draws at random
    return (functools.partial(_verify_stencil, check, fn, cases),
            fn_flags + _GRID_FLAGS + seed, defaults)


_PQ = {"p": 3, "q": 0.5}
_STENCIL_DEFAULTS = {**_PQ, "lo": 0.5, "hi": 6.0}

# campaign -> (runner, the flags it reads, its defaults); runner(args) returns the records,
# and a trailing ! marks a required flag
CAMPAIGNS = {
    "logconvex-gamma": _stencil("check_log_convex", "gamma_pq", {"gamma_pq": {}},
                                p=4, q=0.6, lo=0.5, hi=8.0),
    "cm-psi-prime": _stencil("check_cm", "psi_pq_deriv", {"psi_pq_prime": {"n": 1}},
                             **_STENCIL_DEFAULTS),
    "cm-G": _stencil("check_cm", "G_pq", {"G_pq": {}}, **_STENCIL_DEFAULTS),
    "lcm-f32": _stencil("check_lcm", "f32", {v: {"variant": v} for v in _VARIANTS},
                        **_STENCIL_DEFAULTS),
    "lcm-h": _stencil("check_lcm", "h_beta", {"h_beta": {}},
                      **_PQ, lo=0.6, hi=5.0, s=2.0, t=1.0, beta=0.5),
    "ineq-lemma21": (_verify_lemma21, ("lo", "hi", "points", "seed", "tol-scale"),
                     {"lo": 0.0, "hi": 5.0}),
    "ineq-sec4": (_verify_sec4, ("p", "q", "samples", "seed", "tol-scale"), _PQ),
}

# defaults of every campaign; the stencil campaigns without --seed keep this seed
_CAMPAIGN_DEFAULTS = {"points": 64, "samples": 1000, "seed": 42, "tol_scale": 1000.0}


def cmd_verify(args):
    records = args.runner(args)
    _emit(records, args.format, args.out)
    # lcm-f32: the statement and the proof define different functions; the check
    # succeeds if either reading is logarithmically completely monotonic
    return 0 if any(r["verdict"] == "pass" for r in records) else CHECK_FAILED


# ---------------------------------------------------------------------------
# limits


def _p_ladder(values):
    """Ladder entries as p values: positive integers, with 100.0 read as 100."""
    for v in values:
        if not (v >= 1 and float(v).is_integer()):
            raise UsageError(f"--ladder takes positive integers as p, got {v:g}")
    return tuple(int(v) for v in values)


# an edge ladder "p" or "q" is --ladder, read as p or as q values
_READ_LADDER = {"p": _p_ladder, "q": tuple}
_P_LADDER = (10, 100, 1000, 10000)
_Q_LADDER = (0.9, 0.99, 0.999, 0.9999, 1 - 1e-6, 1 - 1e-8)

# corner -> (flags, defaults, edges), flags marked as in CAMPAIGNS. An edge is (name, ladder,
# value at a ladder entry, limit target); value and target read x, p and q from the
# corner's arguments, and a ladder is fixed or read from --ladder.
CORNERS = {
    "p-to-q": (("x!", "ladder", "q"), {"ladder": _P_LADDER}, (
        ("gamma_pq->gamma_q", "p", lambda a, p: log_gamma_pq(a.x, PQParams(p, a.q)),
         lambda a: log_gamma_q(a.x, a.q)),)),
    "q-to-p": (("x!", "ladder", "p"), {"ladder": _Q_LADDER}, (
        ("gamma_pq->gamma_p", "q", lambda a, q: log_gamma_pq(a.x, PQParams(a.p, q)),
         lambda a: log_gamma_p(a.x, a.p)),)),
    "p-gamma": (("x!", "ladder"), {"ladder": _P_LADDER}, (
        ("gamma_p->gamma", "p", lambda a, p: log_gamma_p(a.x, p),
         lambda a: log_gamma_classical(a.x)),)),
    "q-gamma": (("x!", "ladder"), {"ladder": (0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999)}, (
        ("gamma_q->gamma", "q", lambda a, q: log_gamma_q(a.x, q),
         lambda a: log_gamma_classical(a.x)),)),
    "psi-diagram": (("x!", "ladder", "p", "q"), {"ladder": (100, 1000, 10000, 100000, 1000000)}, (
        ("psi_pq->psi_q", _P_LADDER, lambda a, p: psi_pq(a.x, PQParams(p, a.q)),
         lambda a: psi_q(a.x, a.q)),
        ("psi_pq->psi_p", _Q_LADDER, lambda a, q: psi_pq(a.x, PQParams(a.p, q)),
         lambda a: psi_p(a.x, a.p)),
        ("psi_p->psi", "p", lambda a, p: psi_p(a.x, p), lambda a: psi_classical(a.x)))),
}

# the fixed p and q of every corner that does not step them
_CORNER_DEFAULTS = {"p": 10, "q": 0.9}

_GAP_TOL = 1e-10  # noise floor of the long log-sums at large p


def limit_rows(corner, x, ladder=None, p=None, q=None):
    """Rows of (edge, parameter, gap) for one commutative-diagram corner. A ladder, p or q
    left None takes the corner's default.

    Gaps are absolute differences of log-values (log-gamma corners) or of
    values (psi corners).
    """
    if corner not in CORNERS:
        raise UsageError(f"unknown corner {corner!r}")
    _, defaults, edges = CORNERS[corner]
    args = argparse.Namespace(x=x, **_CORNER_DEFAULTS, **defaults)
    for name, given in (("ladder", ladder), ("p", p), ("q", q)):
        if given is not None:
            setattr(args, name, given)
    rows = []
    for edge, steps, value, target in edges:
        if steps in _READ_LADDER:
            steps = _READ_LADDER[steps](args.ladder)
        limit = target(args)
        rows += [(edge, v, abs(value(args, v) - limit)) for v in steps]
    return rows


def gaps_nonincreasing(rows, tol=_GAP_TOL):
    """Per edge, require gap_{i+1} <= gap_i + tol along the ladder."""
    by_edge = {}
    for edge, _, gap in rows:
        by_edge.setdefault(edge, []).append(gap)
    return not any(g1 > g0 + tol for gaps in by_edge.values() for g0, g1 in zip(gaps, gaps[1:]))


def cmd_limits(args):
    rows = limit_rows(args.corner, args.x, args.ladder, args.p, args.q)
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
    "variant": {"choices": _VARIANTS},
    "lo": {"type": float},
    "hi": {"type": float},
    "count": {"type": int},
    "points": {"type": int},
    "samples": {"type": int},
    "seed": {"type": int},
    "tol-scale": {"type": float},
    "ladder": {"type": lambda text: _parse_vector(text, "ladder"),
               "help": "comma-separated parameter ladder"},
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
    _add_parser(subs, "eval", ("fn!", "x!") + _FN_FLAGS,
                help="evaluate one function at a point", handler=cmd_eval)
    _add_parser(subs, "table", ("fn!",) + _FN_FLAGS + ("lo!", "hi!", "count!"),
                help="tabulate one function over a range", handler=cmd_table)
    verify = subs.add_parser("verify", help="run a theorem verification campaign",
                             allow_abbrev=False).add_subparsers(dest="campaign", required=True)
    for name, (runner, flags, defaults) in CAMPAIGNS.items():
        _add_parser(verify, name, flags, handler=cmd_verify, runner=runner,
                    **_CAMPAIGN_DEFAULTS, **defaults)
    limits = subs.add_parser("limits", help="commutative-diagram convergence ladders",
                             allow_abbrev=False).add_subparsers(dest="corner", required=True)
    for name, (flags, defaults, _) in CORNERS.items():
        _add_parser(limits, name, flags, handler=cmd_limits, **_CORNER_DEFAULTS, **defaults)
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
