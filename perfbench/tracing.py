"""Span tracing of the program's layers, installed from outside the program.

`Tracer.install` wraps every public function of the layer modules and
rebinds the wrapper under every name the package bound the original to
(`engine.coupling_unitary` as well as `jones.coupling_unitary`,
`cli.compare_schemes` as well as `engine.compare_schemes`), so calls between
modules are seen.  Each call records a span: name, start, end, parent span
and whether it raised.  Spans of one CLI command are kept in memory and
folded into totals when the command returns; a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "sagnac_wva"
LAYERS = ("config", "spectrum", "sagnac", "jones", "engine", "estimation", "output", "cli")
#: engine entry points that evaluate the forward model once
FORWARD_EVALS = {"engine.postselected_spectrum", "engine.mean_shift_analytic"}


def _count_spectrum(counters, args, kwargs, result):
    """Grid nodes evaluated and bytes of arrays the call computed."""
    inputs = set()
    for value in list(args) + list(kwargs.values()):
        for attr in getattr(value, "__dict__", {}).values():
            if isinstance(attr, np.ndarray):
                inputs.add(id(attr))
    computed = [
        v
        for v in getattr(result, "__dict__", {}).values()
        if isinstance(v, np.ndarray) and id(v) not in inputs
    ]
    counters["engine.grid_nodes"] += int(np.size(getattr(result, "intensity", ())))
    counters["engine.computed_bytes"] += sum(v.nbytes for v in computed)


def _count_file(counters, args, kwargs, result):
    counters["output.bytes"] += os.stat(args[0]).st_size


def _count_spectrum_csv(counters, args, kwargs, result):
    _count_file(counters, args, kwargs, result)
    counters["output.rows"] += int(np.size(args[1].p_grid))


def _count_table_csv(counters, args, kwargs, result):
    _count_file(counters, args, kwargs, result)
    counters["output.rows"] += int(np.size(args[2][0]))


HOOKS = {
    "engine.postselected_spectrum": _count_spectrum,
    "output.write_spectrum_csv": _count_spectrum_csv,
    "output.write_table_csv": _count_table_csv,
    "output.write_results_json": _count_file,
}


class Tracer:
    """Per-function calls and self times, and layer counters, over traced ops."""

    def __init__(self):
        self._names: list = []
        self._layer_of: list = []
        self._rebound: list = []
        self._stack: list = []
        self._estimation_depth = 0  # open estimation spans
        self._reset_spans()
        self.calls = Counter()
        self.self_s = defaultdict(float)  # reference-speed seconds, see commit()
        self.counters = Counter()
        self._pending = defaultdict(float)  # host seconds of the op in progress

    def _reset_spans(self):
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_raised = array("b")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, func in inspect.getmembers(module, inspect.isfunction):
                if attr.startswith("_") or func.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", layer, func)
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is func:
                            setattr(holder, name, wrapper)
                            self._rebound.append((holder, name, func))

    def uninstall(self) -> None:
        for holder, name, func in self._rebound:
            setattr(holder, name, func)
        self._rebound.clear()

    def _wrap(self, qualname: str, layer: str, func):
        name_id = len(self._names)
        self._names.append(qualname)
        self._layer_of.append(layer)
        hook = HOOKS.get(qualname)
        forward = qualname in FORWARD_EVALS
        estimation = int(layer == "estimation")
        tracer = self
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(tracer._span_start)
            tracer._span_name.append(name_id)
            tracer._span_parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer._span_start.append(0.0)
            tracer._span_end.append(0.0)
            tracer._span_raised.append(1)
            if forward and tracer._estimation_depth:
                tracer.counters["estimation.forward_evals"] += 1
            tracer._stack.append(index)
            tracer._estimation_depth += estimation
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                tracer._estimation_depth -= estimation
                tracer._span_start[index] = start
                tracer._span_end[index] = end
            tracer._span_raised[index] = 0
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return wrapper

    # -- folding spans into totals -----------------------------------------

    def fold(self) -> bool:
        """Add the buffered spans of one command to the op in progress.

        Returns True if an estimation span raised, i.e. the command refused.
        """
        names, parents = self._span_name, self._span_parent
        durations = [e - s for s, e in zip(self._span_start, self._span_end)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += durations[index]
        refused = False
        for index, name_id in enumerate(names):
            qualname = self._names[name_id]
            self.calls[qualname] += 1
            self._pending[qualname] += durations[index] - covered[index]
            if self._span_raised[index] and self._layer_of[name_id] == "estimation":
                refused = True
        self._reset_spans()
        return refused

    def commit(self, scale: float) -> None:
        """Add the op's self times to the totals, scaled to the reference speed."""
        for qualname, seconds in self._pending.items():
            self.self_s[qualname] += seconds * scale
        self._pending.clear()

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)
