"""Per-layer tracing of the macct library, from outside the library.

`Tracer.install` replaces every public function of each layer module with a
wrapper, in every `macct` module namespace that binds it (for example
`macct.optimize.gamma` and `macct.oracle.ct_contains_grid`), so a nested
call is attributed to the layer that defines the callee.  Constructors of
`macct.types` are not wrapped: their time is charged to the calling layer.

Each wrapped call is one span (name, start, end, parent span, op id),
kept in memory and written out at the end.  A span's self time is its
duration minus the time its child spans cover; child spans of one parent
never overlap because the benchmark is single threaded.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("capacity", "constrained", "ctregion", "optimize", "schedule", "oracle", "cli")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []   # span name id -> "module.function"
        self.spans: list[tuple] = []  # (id, name id, start ns, end ns, parent id, op, raised)
        self.stack: list[int] = []
        self.op: int | None = None    # spans are recorded only while an op is set
        self.gamma_args: list[tuple[int, float]] = []
        self.grid_points: list[tuple[int, int]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id of the original -> its wrapper
        self._next_id = 0

    def install(self) -> None:
        """Bind the wrappers; they are made on the first call and reused after."""
        wrappers = self._wrappers
        if not wrappers:
            for layer in LAYERS:
                module = sys.modules[f"macct.{layer}"]
                for name, fn in vars(module).items():
                    if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                            and not name.startswith("_")):
                        wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "macct" and not mod_name.startswith("macct."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        probe = _PROBES.get(name)
        spans, stack, perf_ns = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            if probe is not None:
                probe(self, op, args, kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            raised = False
            start = perf_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = perf_ns()
                stack.pop()
                spans.append((span_id, name_id, start, end, parent, op, raised))

        return wrapper

    def write(self, path: Path) -> None:
        """Spans as gzipped CSV, one row per span, in order of their end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op,raised\n")
            for span_id, name_id, start, end, parent, op, raised in self.spans:
                fh.write(f"{span_id},{self.names[name_id]},{start},{end},{parent},{op},"
                         f"{int(raised)}\n")

    def _child_ns(self) -> dict[int, int]:
        """Time covered by each span's children, by span id."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, start, end, parent, _, _ in self.spans:
            child_ns[parent] += end - start
        return child_ns

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer counts, self time and errors over `ops` traced ops."""
        layer_of = [name.split(".", 1)[0] for name in self.names]
        child_ns = self._child_ns()
        layer_by_span = {span[0]: layer_of[span[1]] for span in self.spans}
        calls = dict.fromkeys(LAYERS, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        errors = dict.fromkeys(LAYERS, 0)
        by_name: dict[str, int] = defaultdict(int)
        for span_id, name_id, start, end, parent, _, raised in self.spans:
            layer = layer_of[name_id]
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns.get(span_id, 0)
            by_name[self.names[name_id]] += 1
            # An exception counts once for each layer it leaves.
            if raised and layer_by_span.get(parent) != layer:
                errors[layer] += 1
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls_per_op"] = (calls[layer] / ops, "count")
            out[f"{layer}.self_us_per_op"] = (self_ns[layer] / ops / 1e3, "us")
            out[f"{layer}.errors"] = (errors[layer], "count")
        gamma_calls = len(self.gamma_args)
        distinct = len(set(self.gamma_args))  # distinct arguments within each op
        out["capacity.gamma.calls_per_op"] = (gamma_calls / ops, "count")
        out["capacity.gamma.distinct_ratio"] = (
            distinct / gamma_calls if gamma_calls else 1.0, "ratio")
        out["ctregion.ct_contains.calls_per_op"] = (by_name["ctregion.ct_contains"] / ops,
                                                    "count")
        out["ctregion.grid_points_per_op"] = (
            sum(points for _, points in self.grid_points) / ops, "count-computed")
        return out

    def function_table(self) -> dict[str, dict[str, float]]:
        """Calls, and mean inclusive and self microseconds per call, by function."""
        child_ns = self._child_ns()
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for span_id, name_id, start, end, _, _, _ in self.spans:
            name = self.names[name_id]
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_ns.get(span_id, 0)
        return {name: {"calls": n, "inclusive_us": total[name] / n / 1e3,
                       "self_us": own[name] / n / 1e3}
                for name, n in sorted(calls.items())}


def _probe_gamma(tracer: Tracer, op: int, args, kwargs) -> None:
    x = args[0] if args else kwargs["x"]
    tracer.gamma_args.append((op, float(x)))


def _probe_grid(tracer: Tracer, op: int, args, kwargs) -> None:
    """Elements `ct_contains_grid` evaluates, from the broadcast of d1 and d2."""
    import numpy as np

    d1 = args[2] if len(args) > 2 else kwargs["d1"]
    d2 = args[3] if len(args) > 3 else kwargs["d2"]
    shape = np.broadcast_shapes(np.shape(d1), np.shape(d2))
    tracer.grid_points.append((op, math.prod(shape)))


_PROBES = {
    "capacity.gamma": _probe_gamma,
    "ctregion.ct_contains_grid": _probe_grid,
}
