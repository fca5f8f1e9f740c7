"""Spans around calls into the package's public functions, recorded from outside.

Each traced function is replaced, in every pqgamma module that holds a binding
to it (``from .x import y`` copies the name), by a wrapper that records a span
(name, start, end, parent).  Spans are kept in flat arrays in memory, written
out once at the end, and reduced to calls, time per call and self time (a
span's duration minus that of its direct children).
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (module, function) pairs that get a span
SPANNED = (
    ("cli", "main"),
    ("cli", "run_sec4_campaign"),
    ("cli", "limit_rows"),
    ("qcore", "log_q_pochhammer_inf"),
    ("gammafam", "log_gamma_pq"),
    ("gammafam", "log_gamma_q"),
    ("gammafam", "log_gamma_p"),
    ("gammafam", "log_gamma_classical"),
    ("psifam", "psi_pq"),
    ("psifam", "psi_pq_deriv"),
    ("psifam", "psi_q"),
    ("psifam", "psi_q_deriv"),
    ("psifam", "psi_p"),
    ("psifam", "psi_classical"),
    ("monocheck", "check_cm"),
    ("monocheck", "check_lcm"),
    ("monocheck", "check_log_convex"),
    ("paperfuncs", "f1"),
    ("paperfuncs", "lemma_sign_check"),
    ("paperfuncs", "h_beta"),
    ("paperfuncs", "log_G_pq"),
    ("paperfuncs", "f_theorem32"),
)
# called too often and too cheaply for a span: counted only
COUNTED = (("qcore", "q_bracket"),)

MODULES = ("cli", "qcore", "gammafam", "psifam", "monocheck", "paperfuncs")
DERIV_BANDS = ("q0.5", "q0.9", "q0.999")


def _deriv_band(args, kwargs):
    params = args[1] if len(args) > 1 else kwargs.get("params")
    q = getattr(params, "q", 0.5)
    return DERIV_BANDS[0] if q < 0.7 else DERIV_BANDS[1] if q < 0.99 else DERIV_BANDS[2]


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counts = {}
        self.evaluations = 0  # sum of MonotonicityReport.evaluations
        self.sec4 = [0, 0]  # qualified, samples
        self.absent = []
        self._bindings = None  # (module, attribute, original, wrapper)

    def _id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _span_wrapper(self, module, fn_name, fn):
        name = f"{module}.{fn_name}"
        start, end, parent, name_id, stack = (
            self.start, self.end, self.parent, self.name_id, self.stack)
        clock = time.perf_counter
        if fn_name == "psi_pq_deriv":
            ids = {band: self._id(f"{name}.{band}") for band in DERIV_BANDS}

            def pick(args, kwargs):
                return ids[_deriv_band(args, kwargs)]
        else:
            nid = self._id(name)

            def pick(args, kwargs):
                return nid

        def on_result(result):
            if module == "monocheck":
                self.evaluations += getattr(result, "evaluations", 0)
            elif fn_name == "run_sec4_campaign" and isinstance(result, dict):
                self.sec4[0] += result.get("qualified", 0)
                self.sec4[1] += result.get("samples", 0)

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(pick(args, kwargs))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            on_result(result)
            return result

        return wrapper

    def _count_wrapper(self, module, fn_name, fn):
        key = f"{module}.{fn_name}"
        counts = self.counts
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bind(self):
        """Make one wrapper per traced function and find every binding of it."""
        self._bindings = []
        mods = [m for n, m in list(sys.modules.items())
                if n == "pqgamma" or n.startswith("pqgamma.")]
        for targets, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module, fn_name in targets:
                try:
                    fn = getattr(importlib.import_module(f"pqgamma.{module}"), fn_name)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module}.{fn_name}")
                    continue
                wrapper = make(module, fn_name, fn)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._bindings.append((mod, attr, fn, wrapper))

    def install(self):
        if self._bindings is None:
            self._bind()
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, fn, _ in self._bindings:
            setattr(mod, attr, fn)

    def spans(self):
        """The spans as numpy arrays: name id, parent index, start, end."""
        return (np.frombuffer(self.name_id, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        name_id, parent, start, end = self.spans()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start, end=end)

    def summary(self):
        """Per span name: (calls, total seconds, self seconds)."""
        name_id, parent, start, end = self.spans()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=dur, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}
