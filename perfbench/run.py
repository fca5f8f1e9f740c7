"""pqgamma benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, untraced and traced

Run from the repository root; the package is imported from ./src.  Each
workload runs in fresh worker processes, one at a time, from a single
closed-loop caller.  With --trace 0 the runner reports the end-to-end
metrics, with --trace 1 the per-layer metrics from traced passes.  Every op
result is checked, and the workload's check points are compared with mpmath
references (oracle.py), which are cached under .perfbench/ by the hash of
oracle.py.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every check passed.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench"
SETUP_RUNS = 7  # set-ups per run; setup_s is their median
PROBE_RUNS = 5  # fresh interpreters per process-layer probe
CHECK_TOL = 1e-7  # a check point further than this from its reference is wrong
RUN_BUDGET_S = 170.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env():
    env = dict(os.environ, **PINNED)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(cmd, deadline):
    """Run cmd to completion, in its own process group so that nothing it
    starts outlives a timeout; return its stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: {' '.join(cmd)}\n{err}")
    return out


def _worker(args, mode, deadline, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    cmd += ["--t0", repr(time.monotonic())]
    return json.loads(_run(cmd, deadline).strip().splitlines()[-1])


def _probe_ms(code, deadline):
    """Median wall time, in ms, of a fresh interpreter running code."""
    walls = []
    for _ in range(PROBE_RUNS):
        t0 = time.perf_counter()
        _run([sys.executable, "-c", code], deadline)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) * 1e3


# ---------------------------------------------------------------------------
# correctness


def references(points):
    """mpmath references for the points, computed once per version of oracle.py."""
    import oracle

    with open(os.path.join(HERE, "oracle.py"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    path = os.path.join(OUT_DIR, f"oracle-{digest}.json")
    cache = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            cache = json.load(fh)
    if any(json.dumps(pt) not in cache for pt in points):
        for pt in workloads.all_points():
            key = json.dumps(pt)
            if key not in cache:
                cache[key] = oracle.reference(pt)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(cache, fh, indent=0)
        os.replace(path + ".tmp", path)
    return {json.dumps(pt): cache[json.dumps(pt)] for pt in points}


def check_values(workload, result):
    """Relative errors of every check point, and the problems found."""
    import oracle

    pairs = list(zip(workloads.CHECKS[workload], result["checks"]))
    problems = []
    refs = references([pt for pt, _ in pairs])
    errors = []
    for pt, value in pairs:
        if value is None:
            problems.append(f"{pt}: no finite value")
            continue
        err = oracle.rel_err(value, refs[json.dumps(pt)])
        errors.append((err, pt))
        if err > CHECK_TOL:
            problems.append(f"{pt}: relative error {err:.3g} against mpmath")
    return errors, problems


# ---------------------------------------------------------------------------
# metrics


def tail(lat):
    """The highest percentile with at least ten ops beyond it; the slowest op
    when only the median has that many."""
    s, n = sorted(lat), len(lat)
    for pct in (99.9, 99.0, 90.0):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, s[rank - 1]
    return 100.0, s[-1]


def measure(args, deadline, out):
    """One workload, one run: (correct, attempted, failed, metrics)."""
    metrics, notes = {}, {}
    if args.trace:
        result = _worker(args, "measure", deadline,
                         spans=os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.npz"))
        layers = dict(result["layers"], **{
            "process.import_ms": _probe_ms("import pqgamma", deadline),
            "process.interp_ms": _probe_ms("pass", deadline)})
        for name, value in layers.items():
            metrics[name] = (value, _layer_unit(name))
        if result["absent"]:
            out(f"# absent at this commit (metrics not reported): {', '.join(result['absent'])}")
        out(f"# traced passes: {result['spans']} spans in all")
    else:
        setups = [_worker(args, "setup", deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        result = _worker(args, "measure", deadline)
        setups.append(result["setup_s"])
        lat_ms = [v * 1e3 for v in result["lat_s"]]
        pct, tail_ms = tail(lat_ms)
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["ops_per_s"] = (len(lat_ms) / sum(result["lat_s"]), "1/s")
        metrics["op_p50_ms"] = (statistics.median(lat_ms), "ms")
        metrics["op_tail_ms"] = (tail_ms, "ms")
        metrics["peak_rss_mb"] = (result["rss_mb"], "MB")
        notes["setup_s"] = f"median of {len(setups)} set-ups"
        notes["ops_per_s"] = (f"{len(lat_ms)} ops over the sum of their fastest "
                              f"of {result['passes']} passes")
        notes["op_p50_ms"] = f"median over the {len(lat_ms)} ops of each op's fastest pass"
        notes["op_tail_ms"] = (
            f"p{pct:g} of {len(lat_ms)} ops" if pct < 100 else
            f"p100 (slowest) of {len(lat_ms)} ops: fewer than 100 ops, so no "
            f"percentile above the median has 10 beyond it")
    errors, problems = check_values(args.workload, result)
    problems = result["errors"] + problems
    failed = result["failed"]
    if not args.trace:
        worst, where = max(errors) if errors else (0.0, None)
        metrics["max_rel_err"] = (worst, "1")
        notes["max_rel_err"] = f"worst of {len(errors)} check points, at {where}"
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        out(f"{name:44s} {value:.6g} {unit}{note}")
    out(f"{'error_rate':44s} {failed / max(1, result['attempted']):.6g} 1"
        f"  ({failed} of {result['attempted']} ops failed)")
    for problem in problems[:10]:
        out(f"# FAILED: {problem}")
    return not problems and failed == 0, result["attempted"], failed, metrics


def _layer_unit(name):
    for suffix, unit in ((".us_per_call", "us"), ("_ms", "ms"), (".ms", "ms"),
                         (".calls", "count"), (".evaluations", "count"), ("_share", "1"),
                         ("_frac", "1"), ("_ratio", "1")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def _json(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "pqgamma", "__init__.py")):
        sys.stderr.write("error: run from the repository root (no src/pqgamma here)\n")
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    print(f"# env python={platform.python_version()} "
          f"numpy={importlib.metadata.version('numpy')} "
          f"mpmath={importlib.metadata.version('mpmath')} nproc={os.cpu_count()} "
          + " ".join(f"{k}={v}" for k, v in PINNED.items()))
    try:
        if args.workload != "all":
            print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
                  f"trace={args.trace}")
            correct, attempted, failed, metrics = measure(args, deadline, print)
            print(_json(correct, attempted, failed, metrics))
            return 0 if correct else 1
        total = [True, 0, 0, {}]
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                run_args = argparse.Namespace(**dict(vars(args), workload=name, trace=trace))
                print(f"# workload={name} seed={args.seed} seconds={args.seconds} trace={trace}")
                correct, attempted, failed, metrics = measure(
                    run_args, time.monotonic() + RUN_BUDGET_S, print)
                total[0] &= correct
                total[1] += attempted
                total[2] += failed
                total[3].update({f"{name}.{k}": v for k, v in metrics.items()})
        print(_json(*total))
        return 0 if total[0] else 1
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
