"""One fresh process running one workload against the package on PYTHONPATH.

    worker.py --workload W --seed S --seconds T --trace 0|1 --mode setup|measure --t0 T0

--t0 is the runner's time.monotonic() just before it started this process, so
the set-up time covers interpreter start, ``import pqgamma``, input
generation and warm-up.  Mode "setup" stops there.  Mode "measure" with
--trace 0 runs passes over the op list, one op at a time, for about T
seconds; with --trace 1 it alternates untraced and traced passes.  Then it
evaluates the workload's check points, outside any timed region.  The last
stdout line is one JSON object for the runner.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import statistics
import sys
import time

import pqgamma
import pqgamma.cli  # not imported by the package itself

import workloads
from tracer import DERIV_BANDS, MODULES, Tracer

# A traced run alternates untraced and traced passes, so that drift in machine
# speed affects both alike; the per-layer metrics are amounts per pass.
TRACE_ROUNDS = 2

# Each pass runs on the next CPU in turn.  On a shared host a CPU can stay
# slowed by a neighbour for many seconds, so a worker left on one CPU would
# measure that neighbour; rotating spreads every op over all the CPUs.
CPUS = sorted(os.sched_getaffinity(0))


def _params(p, q):
    return pqgamma.PQParams(p, q)


# Each entry turns check-point or op arguments into a zero-argument call.  The
# package function is looked up at call time, so a traced pass sees the
# wrapped binding.
_CALLS = {
    "log_gamma_pq": lambda x, p, q: (
        lambda P=_params(p, q): pqgamma.log_gamma_pq(x, P)),
    "psi_pq": lambda x, p, q: (lambda P=_params(p, q): pqgamma.psi_pq(x, P)),
    "psi_pq_deriv": lambda x, p, q, n: (
        lambda P=_params(p, q): pqgamma.psi_pq_deriv(x, P, n)),
    "log_gamma_p": lambda x, p: lambda: pqgamma.log_gamma_p(x, p),
    "psi_p": lambda x, p: lambda: pqgamma.psi_p(x, p),
    "log_gamma": lambda x: lambda: pqgamma.log_gamma_classical(x),
    "psi": lambda x: lambda: pqgamma.psi_classical(x),
    "log_gamma_q": lambda x, q: lambda: pqgamma.log_gamma_q(x, q),
    "psi_q": lambda x, q: lambda: pqgamma.psi_q(x, q),
    "psi_q_deriv": lambda x, q, n: lambda: pqgamma.psi_q_deriv(x, q, n),
    "log_G_pq": lambda x, a, b, p, q: (
        lambda S=pqgamma.RatioSpec(a, b), P=_params(p, q): pqgamma.log_G_pq(x, S, P)),
    "f_theorem32": lambda x, p, q, variant: (
        lambda P=_params(p, q): pqgamma.f_theorem32(x, P, variant)),
    "h_beta": lambda x, s, t, beta, p, q: (
        lambda S=pqgamma.TwoPointSpec(s, t, beta), P=_params(p, q): pqgamma.h_beta(x, S, P)),
    "f1": lambda x, a, b, c, d, e, f, p, q: (
        lambda S=pqgamma.AffineInequalitySpec(a, b, c, d, e, f), P=_params(p, q):
        pqgamma.f1(x, S, P)),
    # negative controls: the seed's confirmed counterexamples on the campaign grids
    "neg_cm_psi_prime": lambda seed: (
        lambda P=_params(3, 0.5): pqgamma.check_cm(
            lambda x: -pqgamma.psi_pq_deriv(x, P, 1),
            pqgamma.GridSpec(0.5, 6.0, points=workloads.CAMPAIGN_POINTS, seed=seed))),
    "neg_logconvex_gamma": lambda seed: (
        lambda P=_params(4, 0.6): pqgamma.check_log_convex(
            lambda x: math.exp(-pqgamma.log_gamma_pq(x, P)),
            pqgamma.GridSpec(0.5, 8.0, points=workloads.LOGCONVEX_POINTS, seed=seed))),
}


def call(point):
    fn, *args = point
    return _CALLS[fn](*args)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = pqgamma.cli.main(argv)
    return rc, out.getvalue()


class Op:
    """One op of a pass: a zero-argument runner plus the check of its result."""

    def __init__(self, kind, payload, expect):
        self.kind, self.payload, self.expect = kind, payload, expect
        self.first_output = None
        if kind in ("call", "neg"):
            self.run = call(payload)
        else:
            self.run = lambda argv=payload: _run_cli(argv)

    def check(self, result):
        """None if the result is right, else what is wrong with it."""
        if self.kind == "call":
            if isinstance(result, float) and math.isfinite(result):
                return None
            return f"{self.payload}: non-finite or non-float result {result!r}"
        if self.kind == "neg":
            verdict = getattr(result, "verdict", None)
            return None if verdict == self.expect else f"{self.payload}: verdict {verdict!r}"
        rc, text = result
        want_rc, rule = self.expect
        if rc != want_rc:
            return f"{self.payload}: exit code {rc}, expected {want_rc}"
        if self.first_output is None:
            self.first_output = text
        elif text != self.first_output:
            return f"{self.payload}: output differs between passes"
        rows = list(csv.DictReader(io.StringIO(text)))
        if not rows:
            return f"{self.payload}: no output records"
        for row in rows:
            for key, value in row.items():
                try:
                    if not math.isfinite(float(value)):
                        return f"{self.payload}: non-finite {key}={value}"
                except (TypeError, ValueError):
                    pass  # a text field, or the tail of an unquoted "1,2" vector
        verdicts = [row.get("verdict") for row in rows]
        if rule == "all" and any(v != "pass" for v in verdicts):
            return f"{self.payload}: verdicts {verdicts}"
        if rule == "any" and "pass" not in verdicts:
            return f"{self.payload}: verdicts {verdicts}"
        return None


class Pass:
    """Runs passes over the ops, timing each op and checking each result."""

    def __init__(self, ops):
        self.ops = ops
        self.lat = [[] for _ in ops]
        self.attempted = 0
        self.errors = []
        self.wall = 0.0
        self.count = 0

    def run(self):
        os.sched_setaffinity(0, {CPUS[self.count % len(CPUS)]})
        self.count += 1
        clock = time.perf_counter
        t_pass = clock()
        for op, lat in zip(self.ops, self.lat):
            t0 = clock()
            try:
                result = op.run()
                dt = clock() - t0
                problem = op.check(result)
            except Exception as exc:  # a failed op is counted, not fatal
                dt = clock() - t0
                problem = f"{op.payload}: {type(exc).__name__}: {exc}"
            lat.append(dt)
            self.attempted += 1
            if problem is not None:
                self.errors.append(problem)
        dt = clock() - t_pass
        self.wall += dt
        return dt


def _evaluate_checks(points):
    values = []
    for point in points:
        try:
            v = call(point)()
            values.append(v if isinstance(v, float) and math.isfinite(v) else None)
        except Exception:
            values.append(None)
    return values


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _layer_metrics(tracer, plain, spanned):
    """Per-layer metrics from the traced passes, as amounts per pass."""
    summary = tracer.summary()
    m = {}

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0] // TRACE_ROUNDS

    def total_ms(name):
        return summary.get(name, (0, 0.0, 0.0))[1] * 1e3 / TRACE_ROUNDS

    def self_ms(name):
        return summary.get(name, (0, 0.0, 0.0))[2] * 1e3 / TRACE_ROUNDS

    def per_call(name):  # in microseconds
        return total_ms(name) * 1e3 / calls(name) if calls(name) else 0.0

    m["cli.main.self_ms"] = self_ms("cli.main")
    m["cli.run_sec4_campaign.ms"] = total_ms("cli.run_sec4_campaign")
    m["cli.limit_rows.ms"] = total_ms("cli.limit_rows")
    m["qcore.log_q_pochhammer_inf.us_per_call"] = per_call("qcore.log_q_pochhammer_inf")
    m["qcore.log_q_pochhammer_inf.calls"] = calls("qcore.log_q_pochhammer_inf")
    m["qcore.q_bracket.calls"] = tracer.counts.get("qcore.q_bracket", 0) // TRACE_ROUNDS
    for fn in ("log_gamma_pq", "log_gamma_q", "log_gamma_p", "log_gamma_classical"):
        m[f"gammafam.{fn}.us_per_call"] = per_call(f"gammafam.{fn}")
        m[f"gammafam.{fn}.calls"] = calls(f"gammafam.{fn}")
    for fn in ("psi_pq", "psi_q", "psi_q_deriv"):
        m[f"psifam.{fn}.us_per_call"] = per_call(f"psifam.{fn}")
        m[f"psifam.{fn}.calls"] = calls(f"psifam.{fn}")
    for band in DERIV_BANDS:
        m[f"psifam.psi_pq_deriv.{band}.us_per_call"] = per_call(f"psifam.psi_pq_deriv.{band}")
    m["psifam.psi_pq_deriv.calls"] = sum(
        calls(f"psifam.psi_pq_deriv.{band}") for band in DERIV_BANDS)
    for fn in ("check_cm", "check_lcm", "check_log_convex"):
        m[f"monocheck.{fn}.self_ms"] = self_ms(f"monocheck.{fn}")
    m["monocheck.evaluations"] = tracer.evaluations // TRACE_ROUNDS
    for fn in ("f1", "lemma_sign_check", "h_beta", "log_G_pq", "f_theorem32"):
        m[f"paperfuncs.{fn}.us_per_call"] = per_call(f"paperfuncs.{fn}")
        m[f"paperfuncs.{fn}.self_ms"] = self_ms(f"paperfuncs.{fn}")
    qualified, samples = tracer.sec4
    m["paperfuncs.sec4.qualified_ratio"] = qualified / samples if samples else 0.0
    for module in MODULES:
        own = sum(s for name, (_, _, s) in summary.items() if name.startswith(module + "."))
        m[f"{module}.self_share"] = own / spanned.wall
    m["trace.overhead_frac"] = spanned.wall / plain.wall - 1.0

    # a metric of a function missing at this commit is absent, not zero
    absent = set(tracer.absent)
    for key in list(m):
        if any(key.startswith(a + ".") for a in absent):
            del m[key]
    return m


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans", default=None, help="file for the spans of a traced pass")
    args = ap.parse_args()

    ops = [Op(*spec) for spec in workloads.ops(args.workload, args.seed)]
    warm = Pass([Op(*spec) for spec in workloads.WARMUP[args.workload]])
    warm.run()
    if warm.errors:
        sys.stderr.write(f"warm-up failed: {warm.errors[:3]}\n")
        return 1
    t_first = time.monotonic()
    out = {"setup_s": t_first - args.t0}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    if args.trace:
        plain, spanned = Pass(ops), Pass(ops)
        tracer = Tracer()
        for _ in range(TRACE_ROUNDS):
            plain.run()
            tracer.install()
            try:
                spanned.run()
            finally:
                tracer.uninstall()
        out["layers"] = _layer_metrics(tracer, plain, spanned)
        out["absent"] = tracer.absent
        out["spans"] = len(tracer.start)
        if args.spans:
            tracer.save(args.spans)
        runs = (plain, spanned)
    else:
        passes = Pass(ops)
        pass_s = []
        while True:
            pass_s.append(passes.run())
            elapsed = time.monotonic() - t_first
            if elapsed + statistics.median(pass_s) > args.seconds:
                break
        out["passes"] = len(pass_s)
        # an op's latency is its fastest pass: the slower ones measure how busy
        # the neighbours on a shared host were, not the program
        out["lat_s"] = [min(lat) for lat in passes.lat]
        out["rss_mb"] = _peak_rss_mb()
        runs = (passes,)

    errors = [e for run in runs for e in run.errors]
    out["attempted"] = sum(run.attempted for run in runs)
    out["failed"] = len(errors)
    out["errors"] = errors[:5]
    out["checks"] = _evaluate_checks(workloads.CHECKS[args.workload])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
