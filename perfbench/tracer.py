"""Span tracer for the traced benchmark run, installed from outside lorenzlab.

`Tracer.install` wraps every public function of the lorenzlab modules in
each module namespace where callers look it up (``experiments`` and
``pdmp`` import ``sample_chain``, ``integrate`` and others by name, so
those bindings are wrapped too), public methods on their classes, and
scipy's ``solve_ivp`` where ``section`` and ``dynamics`` look it up. Each
wrapped call records a span (name, start, end, parent) in memory; spans
are written out when the run ends. The hottest boundaries, the field's
``velocity`` (hundreds of calls per transition) and ``velocity_batch``,
are counted instead of spanned. ``uninstall`` restores every binding, so
traced and untraced rounds can alternate in one process.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict

MODULES = ("dynamics", "errors", "noise", "section", "cuspmap", "transfer",
           "pdmp", "plotting", "manifest", "config", "experiments", "cli")

# Counted, not spanned: called hundreds of times per chain transition.
_COUNTED = {("dynamics", "FieldSpec", "velocity"),
            ("dynamics", "FieldSpec", "velocity_batch")}
# Constructors whose work is a layer's cost (the rebuilt trajectory).
_INIT_SPANS = {("pdmp", "PdmpTrajectory")}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list = []
        self._wrappers: dict = {}

    # -- recording -------------------------------------------------------
    def _span(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (name, t0, clock(), parent)
            if after is not None:
                after(args, kwargs, out)
            return out
        return wrapper

    def _after_solve_ivp(self, args, kwargs, sol):
        self.counts["solver_calls"] += 1
        # sol.t holds the start plus one entry per accepted step (no t_eval)
        if kwargs.get("t_eval") is None:
            self.counts["solver_steps"] += len(sol.t) - 1

    def _sample_chain(self, fn):
        counts = self.counts
        inner = self._span("section.sample_chain", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = (counts["rhs"], counts["solver_calls"],
                      counts["solver_steps"])
            trace = inner(*args, **kwargs)
            counts["chain_rhs"] += counts["rhs"] - before[0]
            counts["chain_solver_calls"] += counts["solver_calls"] - before[1]
            counts["chain_solver_steps"] += counts["solver_steps"] - before[2]
            counts["transitions"] += len(trace)
            if trace.segments is not None:
                counts["segment_points"] += sum(len(s.t) for s in trace.segments)
                if trace.approach is not None:
                    counts["segment_points"] += len(trace.approach.t)
            return trace
        return wrapper

    def _inverse(self, name: str, fn):
        counts = self.counts

        def after(args, kwargs, out):
            y = args[1] if len(args) > 1 else kwargs["y"]
            counts["inversions"] += int(getattr(y, "size", 1))
        return self._span(name, fn, after)

    def _sweep(self, fn):
        def after(args, kwargs, report):
            self.counts["sweep_samples"] += report.n_samples
        return self._span("dynamics.lyapunov_sweep", fn, after)

    def _counted(self, key: str, fn):
        counts = self.counts
        if key == "velocity":
            @functools.wraps(fn)
            def wrapper(self_, y):
                counts["rhs"] += 1
                return fn(self_, y)
        else:
            @functools.wraps(fn)
            def wrapper(self_, ys, eta=None):
                counts["batch_lanes"] += ys.size // 3
                return fn(self_, ys, eta)
        return wrapper

    def _wrap_function(self, fn):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name = fn.__module__.replace("lorenzlab.", "") + "." + fn.__name__
        if name == "section.sample_chain":
            w = self._sample_chain(fn)
        elif name == "dynamics.lyapunov_sweep":
            w = self._sweep(fn)
        else:
            w = self._span(name, fn)
        self._wrappers[id(fn)] = w
        return w

    # -- installation ----------------------------------------------------
    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"lorenzlab.{m}") for m in MODULES}
        pkg = importlib.import_module("lorenzlab")
        solver = None
        for space in (pkg, *mods.values()):
            for attr, obj in list(vars(space).items()):
                if attr == "solve_ivp":
                    if solver is None:
                        solver = self._span("scipy.solve_ivp", obj,
                                            self._after_solve_ivp)
                    self._patch(space, attr, solver)
                elif (isinstance(obj, types.FunctionType)
                      and not attr.startswith("_")
                      and obj.__module__.startswith("lorenzlab.")):
                    self._patch(space, attr, self._wrap_function(obj))
        for mname, mod in mods.items():
            for cname, cls in list(vars(mod).items()):
                if not (isinstance(cls, type) and not cname.startswith("_")
                        and cls.__module__ == mod.__name__):
                    continue
                for attr, fn in list(vars(cls).items()):
                    if not isinstance(fn, types.FunctionType):
                        continue
                    key = (mname, cname, attr)
                    name = f"{mname}.{cname}.{attr}"
                    if key in _COUNTED:
                        wrapped = self._counted(attr, fn)
                    elif attr in ("inverse_left", "inverse_right"):
                        wrapped = self._inverse(name, fn)
                    elif attr == "__init__" and (mname, cname) in _INIT_SPANS:
                        wrapped = self._span(f"{mname}.{cname}", fn)
                    elif not attr.startswith("_"):
                        wrapped = self._span(name, fn)
                    else:
                        continue
                    self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- results -----------------------------------------------------------
    def totals(self) -> tuple[dict, dict, dict]:
        """Inclusive time and call count per span name, self time per layer.

        A span's self time is its duration minus the durations of its
        direct children; the layer is the span name's first component.
        """
        incl: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child: dict[int, float] = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layer_self: dict[str, float] = defaultdict(float)
        for idx, (name, t0, t1, parent) in enumerate(self.spans):
            incl[name] += t1 - t0
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += t1 - t0 - child[idx]
        return incl, calls, layer_self

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0, t1, parent]) + "\n")
