"""Span tracer that times calls into each module of ``adapted_ot`` from outside.

Every public function of a layer module is wrapped at each place it is
looked up: the defining module, every other package module that imported
it by name (``adapted_ot.solvers.transport_lp``,
``adapted_ot.experiments.rw_bm_block_coupling_cost``, ...) and the package
namespace.  The cached tree views of ``FilteredTree`` are wrapped too, so
their first build counts as ``trees`` work.  ``restore()`` puts every
original object back.

Spans are recorded only while ``recording`` is set, i.e. inside timed
operations, and are aggregated as they close instead of being stored.
Time spent in the tracer's own bookkeeping is kept off the span clock.
The program is single-threaded, so spans nest strictly and no layer ever
waits on a queue or a lock; there is no wait time to report.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from collections import defaultdict
from functools import cached_property

import numpy as np

PACKAGE = "adapted_ot"
LAYERS = ("trees", "prediction", "coupling", "lp", "solvers", "stopping",
          "generators", "experiments", "cli")
TREE_VIEWS = ("children", "node_probs", "level_values", "ancestors",
              "leaf_probs", "leaf_paths")
COST_FACTORIES = ("cost_by_name", "state_cost", "running_max_cost",
                  "terminal_cost", "lipschitz_battery")
MC_ESTIMATORS = ("rw_bm_block_coupling_cost", "euler_pair_cost")


class Tracer:
    def __init__(self):
        self.recording = False
        self._patches = []        # (owner, attribute, original)
        self._stack = []          # open spans: [layer, start, child_time]
        self._book = 0.0          # bookkeeping time kept off the span clock
        self.calls = defaultdict(int)      # entries into a layer from outside
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)    # per-layer work counters
        self.peak = defaultdict(float)     # per-layer maxima
        self.kind_times = defaultdict(list)
        self._signatures = {}     # (layer, name) -> signature of the original

    # -- installation ----------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in LAYERS}
        namespaces = [importlib.import_module(PACKAGE)] + list(modules.values())
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(layer, name, obj))
                    self._signatures[(layer, name)] = inspect.signature(obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])
        tree_cls = modules["trees"].FilteredTree
        for view in TREE_VIEWS:
            original = tree_cls.__dict__[view]
            replacement = cached_property(
                self._wrap("trees", f"FilteredTree.{view}", original.func))
            replacement.__set_name__(tree_cls, view)
            self._patches.append((tree_cls, view, original))
            setattr(tree_cls, view, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- spans -----------------------------------------------------------

    def _clock(self) -> float:
        return time.perf_counter() - self._book

    def _wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            t_in = time.perf_counter()
            entry = not self._stack or self._stack[-1][0] != layer
            span = [layer, 0.0, 0.0]
            self._stack.append(span)
            self._book += time.perf_counter() - t_in
            span[1] = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._clock()
                t_out = time.perf_counter()
                self._stack.pop()
                duration = end - span[1]
                own = duration - span[2]
                self.self_s[layer] += own
                if self._stack:
                    self._stack[-1][2] += duration
                if entry:
                    self.calls[layer] += 1
                self._book += time.perf_counter() - t_out
            t_out = time.perf_counter()
            result = self._observe(layer, name, entry, duration, own, args,
                                   kwargs, result)
            self._book += time.perf_counter() - t_out
            return result
        return wrapper

    # -- per-layer counters ----------------------------------------------

    def _observe(self, layer, name, entry, duration, own, args, kwargs, result):
        if layer == "lp" and entry:
            self._observe_lp(name, args, kwargs, result)
        elif layer == "coupling" and entry and name == "causality_constraints":
            rows, cells = result.shape
            self.count["coupling.rows"] += rows
            self.count["coupling.cells"] += rows * cells
            self.count["coupling.nnz"] += int((result != 0).sum())
            self.peak["coupling.dense_bytes"] = max(
                self.peak["coupling.dense_bytes"], float(result.nbytes))
        elif layer == "solvers" and hasattr(result, "diagnostics"):
            diag = result.diagnostics
            if entry:
                self.kind_times[result.kind].append(duration)
            self.count["solvers.dp_states"] += diag.get("dp_states", 0)
            self.count["solvers.dp_fallbacks"] += "dp_fallback" in diag
            self.count["solvers.shifts_evaluated"] += len(
                diag.get("evaluated_shifts", ()))
        elif layer == "stopping" and entry and name in COST_FACTORIES:
            if isinstance(result, list):
                return [self._counting_cost(c) for c in result]
            return self._counting_cost(result)
        elif layer == "generators" and name in MC_ESTIMATORS:
            self.count["generators.mc_calls"] += 1
            self.count["generators.mc_self_s"] += own
            bound = self._bind(layer, name, args, kwargs)
            self.count["generators.mc_steps"] += bound["samples"] * bound["n"]
        return result

    def _bind(self, layer, name, args, kwargs) -> dict:
        bound = self._signatures[(layer, name)].bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def _observe_lp(self, name, args, kwargs, result):
        bound = self._bind("lp", name, args, kwargs)
        if name == "transport_lp":
            n_p, n_q = np.size(bound["p"]), np.size(bound["q"])
            cells = n_p * n_q
            # the one-sided shortcut builds no constraint matrix
            fast = n_p == 1 or n_q == 1
            extra = bound["extra_rows"]
            rows = 0 if fast else n_p + n_q + (0 if extra is None else extra.shape[0])
        elif name == "lp_solve":
            rows, cells = bound["lp"].A.shape
            fast = False
        else:
            return
        self.count["lp.transports"] += 1
        self.count["lp.cells"] += cells
        self.count["lp.rows"] += rows
        self.count["lp.iterations"] += result.iterations
        self.count["lp.fastpath"] += fast
        self.count["lp.nonoptimal"] += result.status != "optimal"
        self.peak["lp.max_cells"] = max(self.peak["lp.max_cells"], float(cells))
        self.peak["lp.dense_bytes"] = max(self.peak["lp.dense_bytes"],
                                          float(rows * cells * 8))

    def _counting_cost(self, cost):
        fn = cost.fn

        def counted(prefix, t):
            self.count["stopping.phi_evals"] += 1
            return fn(prefix, t)
        return dataclasses.replace(cost, fn=counted)

