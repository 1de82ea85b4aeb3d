"""Per-layer tracing of bqmi from outside the package.

The tracer replaces bqmi's public functions, in every bqmi module namespace
that binds them, with timing wrappers, plus ``numpy.linalg.eigh`` and
``eigvalsh`` as the kernel boundary.  Nothing inside bqmi changes.

Solver-level calls become spans (name, start, end, parent, thread) kept in
memory and written out at the end; a span's self time is its duration minus
the union of its children.  chain_report runs esq/cemi/eic on a thread pool,
which does not carry the caller's span along, so a span opened on a pool
thread with nothing open in that thread takes the main thread's innermost
open span as its parent.  Kernel-level calls (eigh, qcore helpers, the
parameterizations) happen hundreds of thousands of times per round, so they
are aggregated in place as a call count and total time instead of spans.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

import numpy as np

# (metric name, unit); BENCHMARK.json's per_layer list is this list.
PER_LAYER = [
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("cli.self_s", "s"),
    ("entms.ecsq_upper.s", "s"),
    ("entms.esq_upper.s", "s"),
    ("entms.cemi_upper.s", "s"),
    ("entms.eic_lower.s", "s"),
    ("entms.eic_lower.calls", "count"),
    ("entms.eic_lower.failures", "count"),
    ("entms.chain_report.self_s", "s"),
    *[(f"broadcast.broadcast_mi_upper.d{d}.{k}", u)
      for d in (4, 16, 64, 256) for k, u in (("s", "s"), ("calls", "count"))],
    ("broadcast.growth_curve.self_s", "s"),
    ("broadcast.property_checks.self_s", "s"),
    ("measures.classical_mi_max.s", "s"),
    ("measures.classical_mi_max.calls", "count"),
    ("measures.fd_fallbacks", "count"),
    ("measures.PovmParam.grad_x.s", "s"),
    ("optim.minimize_penalized.s", "s"),
    ("optim.minimize_penalized.calls", "count"),
    ("optim.objective_evals", "count"),
    ("optim.constraint_evals", "count"),
    ("optim.iterations", "count"),
    ("optim.evals_per_iter", "evals/iter"),
    ("optim.DensityParam.sigma.calls", "count"),
    ("optim.DensityParam.grad_x.s", "s"),
    ("optim.entropy_combo.s", "s"),
    ("optim.entropy_combo.calls", "count"),
    ("optim.marginal_penalty.s", "s"),
    ("optim.marginal_penalty.calls", "count"),
    ("optim.dykstra_project.s", "s"),
    ("optim.dykstra_project.calls", "count"),
    ("optim.dykstra_project.failures", "count"),
    ("optim.finite_diff_check.s", "s"),
    ("qcore.partial_trace_mat.s", "s"),
    ("qcore.partial_trace_mat.calls", "count"),
    ("qcore.expand_mat.s", "s"),
    ("qcore.expand_mat.calls", "count"),
    ("qcore.logm2_psd.s", "s"),
    ("qcore.logm2_psd.calls", "count"),
    ("qcore.mutual_information.calls", "count"),
    *[(f"numpy.linalg.{fn}.{b}.{k}", u)
      for fn in ("eigh", "eigvalsh") for b in ("le16", "le64", "gt64")
      for k, u in (("calls", "count"), ("s", "s"))],
]

# Solver-level functions traced as spans: (layer module, function).
SPAN_FUNCS = [
    ("cli", "cmd_chain"), ("cli", "cmd_curve"), ("cli", "cmd_measure"),
    ("entms", "chain_report"), ("entms", "ecsq_upper"), ("entms", "esq_upper"),
    ("entms", "cemi_upper"), ("entms", "eic_lower"),
    ("broadcast", "growth_curve"), ("broadcast", "property_checks"),
    ("optim", "finite_diff_check"),
]
# Kernel-level functions aggregated in place.
LEAF_FUNCS = [
    ("optim", "entropy_combo"), ("optim", "marginal_penalty"),
    ("optim", "dykstra_project"), ("qcore", "partial_trace_mat"),
    ("qcore", "expand_mat"), ("qcore", "logm2_psd"),
    ("qcore", "mutual_information"),
]
LEAF_METHODS = [
    ("optim", "DensityParam", "sigma"), ("optim", "DensityParam", "grad_x"),
    ("measures", "PovmParam", "grad_x"),
]


def _eig_bucket(a):
    d = np.shape(a)[-1]
    return "le16" if d <= 16 else "le64" if d <= 64 else "gt64"


def _union_length(intervals, lo, hi):
    total, cur = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, cur), min(e, hi)
        if e > s:
            total += e - s
            cur = e
    return total


class Tracer:
    """Records spans and counters while installed; restores bqmi on uninstall."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or None, thread name)
        self.leaf = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.counts = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name, k=1):
        with self._lock:
            self.counts[name] += k

    def span_wrapper(self, name, fn, name_of=None, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kw):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            with self._lock:
                sid = len(self.spans)
                self.spans.append(None)
            label = name_of(*args, **kw) if name_of else name
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kw)
            except Exception:
                self.count(name + ".failures")
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans[sid] = (sid, label, t0, t1, parent,
                                   threading.current_thread().name)
            if on_result is not None:
                on_result(out)
            return out
        return traced

    def leaf_wrapper(self, name, fn, name_of=None):
        @functools.wraps(fn)
        def timed(*args, **kw):
            label = name_of(*args, **kw) if name_of else name
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            except Exception:
                self.count(name + ".failures")
                raise
            finally:
                dt = time.perf_counter() - t0
                with self._lock:
                    acc = self.leaf[label]
                    acc[0] += 1
                    acc[1] += dt
        return timed

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, modules, home, attr, make):
        # A function that a later version of bqmi removes is skipped, and
        # its metrics read 0.
        orig = getattr(modules[home], attr, None)
        if orig is None:
            return
        new = make(orig)
        for mod in modules.values():
            if getattr(mod, attr, None) is orig:
                self._patch(mod, attr, new)

    def install(self, modules):
        """modules: {'bqmi': package, 'qcore': module, ...}."""
        for home, attr in SPAN_FUNCS:
            self._patch_everywhere(modules, home, attr,
                                   lambda f, n=f"{home}.{attr}": self.span_wrapper(n, f))

        def count_fallback(bv):
            self.count("measures.fd_fallbacks",
                       int(bool(bv.diagnostics.get("finite_difference_fallback"))))
        self._patch_everywhere(
            modules, "measures", "classical_mi_max",
            lambda f: self.span_wrapper("measures.classical_mi_max", f,
                                        on_result=count_fallback))

        def bmi_name(rho, n, *a, **kw):
            return f"broadcast.broadcast_mi_upper.d{rho.dim ** n}"
        self._patch_everywhere(
            modules, "broadcast", "broadcast_mi_upper",
            lambda f: self.span_wrapper("broadcast.broadcast_mi_upper", f, name_of=bmi_name))
        self._patch_everywhere(modules, "optim", "minimize_penalized", self._wrap_minimize)

        for home, attr in LEAF_FUNCS:
            self._patch_everywhere(
                modules, home, attr, lambda f, n=f"{home}.{attr}": self.leaf_wrapper(n, f))
        for home, cls, meth in LEAF_METHODS:
            owner = getattr(modules[home], cls, None)
            if owner is not None and hasattr(owner, meth):
                self._patch(owner, meth,
                            self.leaf_wrapper(f"{home}.{cls}.{meth}", getattr(owner, meth)))
        for fn in ("eigh", "eigvalsh"):
            self._patch(np.linalg, fn, self.leaf_wrapper(
                f"numpy.linalg.{fn}", getattr(np.linalg, fn),
                name_of=lambda a, *r, fn=fn, **kw: f"numpy.linalg.{fn}.{_eig_bucket(a)}"))

    def _wrap_minimize(self, fn):
        def counted(f, name):
            def g(x):
                self.count(name)
                return f(x)
            return g

        def minimize(objective, constraints, *args, **kw):
            cons = [(n, counted(c, "optim.constraint_evals")) for n, c in constraints]
            return fn(counted(objective, "optim.objective_evals"), cons, *args, **kw)

        return self.span_wrapper(
            "optim.minimize_penalized", minimize,
            on_result=lambda res: self.count("optim.iterations", int(res.iterations_used)))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reporting ---------------------------------------------------------

    def metrics(self, wall_traced, wall_untraced):
        spans = [s for s in self.spans if s is not None]
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _ in spans:
            if parent is not None:
                children[parent].append((t0, t1))
        total = defaultdict(float)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, name, t0, t1, _, _ in spans:
            total[name] += t1 - t0
            calls[name] += 1
            self_s[name] += (t1 - t0) - _union_length(children[sid], t0, t1)

        values = {"trace.wall_s": wall_traced,
                  "trace.overhead_s": wall_traced - wall_untraced,
                  "cli.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.cmd_"))}
        for name, _ in PER_LAYER:
            if name in values:
                continue
            base, _, kind = name.rpartition(".")
            if kind == "self_s":
                values[name] = self_s.get(base, 0.0)
            elif kind == "s":
                values[name] = total[base] if base in total else self.leaf.get(base, [0, 0.0])[1]
            elif kind == "calls":
                values[name] = calls[base] if base in calls else self.leaf.get(base, [0, 0.0])[0]
            else:
                values[name] = self.counts.get(name, 0)
        iters = self.counts.get("optim.iterations", 0)
        values["optim.evals_per_iter"] = (
            self.counts.get("optim.objective_evals", 0) / iters if iters else 0.0)
        return values

    def write_spans(self, path):
        with open(path, "w") as f:
            for sid, name, t0, t1, parent, thread in (s for s in self.spans if s is not None):
                f.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                    "parent": parent, "thread": thread}) + "\n")
