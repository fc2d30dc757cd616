"""Spans around annlogic's public functions, installed from outside the
package.

Every public function defined in an annlogic module is found at run time,
so a function added later is traced without editing this file.  Its
wrapper replaces it in every annlogic namespace that binds it, because
`cli` and `analysis` import functions by name.  Spans (name, layer, start,
end, parent) are kept in flat arrays in memory and written out
once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

LAYERS = ("encoding", "network", "partition", "logiccode", "qldt", "analysis", "cli")


def _rows(x):
    """Rows in a minterm input: one vector, or the first axis of a batch."""
    return x.shape[0] if getattr(x, "ndim", 1) > 1 else 1


def _qldt_nodes(t):
    children = (getattr(t, "low", None), getattr(t, "high", None))
    return 1 + sum(_qldt_nodes(c) for c in children if c is not None)


def _minterm_output(name, result):
    if type(result).__name__ == "MintermVector":
        return (("encoding.vectors", 1), ("encoding.values", len(result.values)))
    if "minterm" in name and isinstance(result, np.ndarray) and result.dtype.kind == "f":
        rows = result.size // result.shape[-1]
        return (("encoding.vectors", rows), ("encoding.values", result.size))
    return ()


# Counters recorded at a function's span: qualified name -> (argument the
# counter reads or None for the result, counter, value of that argument).
# A counter is summed over outermost spans only, so classify -> forward
# counts its rows once.
COUNTERS = {
    "network.forward": ("mt", "network.rows", _rows),
    "network.classify": ("mt", "network.rows", _rows),
    "network.relu_status": ("mt", "network.rows", _rows),
    "network.train": ("cfg", "network.epochs", lambda cfg: cfg.epochs),
    "partition.partition_dataset": ("samples", "partition.rows", len),
    "logiccode.level_accuracy": ("samples", "logiccode.accuracy_rows", len),
    "qldt.build_qldt": (None, "qldt.nodes", _qldt_nodes),
    "analysis.trend_grid": (None, "analysis.grid_points", lambda g: g.values.size),
}


class Tracer:
    """Finds and wraps the functions when created; `install()` puts the
    wrappers in place and `uninstall()` restores the originals, so traced
    and untraced passes can alternate."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("q")
        self.parent = array("q")
        self.marks: dict[str, tuple[array, array]] = {}
        self._stack: list[int] = []
        modules = [importlib.import_module(f"{package.__name__}.{m.name}")
                   for m in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and inspect.isfunction(obj)
                if not public or obj.__module__ != mod.__name__:
                    continue
                self.names.append(f"{layer}.{attr}")
                self.layer_of.append(layer)
                wrappers[id(obj)] = self._wrap(obj, len(self.names) - 1)
        # (namespace, attribute, original, wrapper) for every binding
        self._bindings = [(ns, attr, obj, wrappers[id(obj)])
                          for ns in [package] + modules
                          for attr, obj in vars(ns).items()
                          if inspect.isfunction(obj) and id(obj) in wrappers]

    def install(self):
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, original, _ in self._bindings:
            setattr(ns, attr, original)

    def _wrap(self, fn, nid):
        name = self.names[nid]
        start, end, name_id, parent, stack = (
            self.start, self.end, self.name_id, self.parent, self._stack)
        perf = time.perf_counter
        spec = COUNTERS.get(name)
        if spec is None and self.layer_of[nid] == "encoding":
            counted = lambda args, kwargs, result: _minterm_output(name, result)  # noqa: E731
        elif spec is not None:
            arg, counter, value = spec
            params = list(inspect.signature(fn).parameters.values())
            pos = [p.name for p in params].index(arg) if arg else None
            default = params[pos].default if arg else None

            def counted(args, kwargs, result):
                if arg is None:
                    x = result
                else:
                    x = args[pos] if len(args) > pos else kwargs.get(arg, default)
                return ((counter, value(x)),)
        else:
            counted = None
        marks = self.marks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counted is not None:
                for counter, value in counted(args, kwargs, result):
                    at, val = marks.setdefault(counter, (array("q"), array("d")))
                    at.append(idx)
                    val.append(value)
            return result

        return traced

    # ------------------------------------------------------------ results

    def arrays(self):
        """Copies of (name id, parent, start, end); a view would pin the
        arrays' buffers and stop further appends."""
        return (np.array(self.name_id, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def self_times(self):
        name_id, parent, start, end = self.arrays()
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur - child

    def counter(self, counter):
        """(total value, total inclusive seconds) over outermost spans."""
        if counter not in self.marks:
            return 0.0, 0.0
        at = np.array(self.marks[counter][0], dtype=np.int64)
        val = np.array(self.marks[counter][1], dtype=float)
        _, parent, start, end = self.arrays()
        marked = np.zeros(len(start), dtype=bool)
        marked[at] = True
        outer = ~((parent[at] >= 0) & marked[np.maximum(parent[at], 0)])
        return float(val[outer].sum()), float((end[at] - start[at])[outer].sum())

    def seconds_in(self, qualified):
        """Inclusive seconds in the outermost spans of one function."""
        name_id, parent, start, end = self.arrays()
        if qualified not in self.names:
            return 0.0
        hit = name_id == self.names.index(qualified)
        outer = hit & ~((parent >= 0) & hit[np.maximum(parent, 0)])
        return float((end - start)[outer].sum())

    def calls_of(self, qualified):
        if qualified not in self.names:
            return 0
        return int(np.count_nonzero(self.arrays()[0] == self.names.index(qualified)))

    def layer_totals(self):
        """{layer: (self seconds, calls)} over every recorded span."""
        name_id = self.arrays()[0]
        layer_idx = np.array([LAYERS.index(layer) if layer in LAYERS else len(LAYERS)
                              for layer in self.layer_of], dtype=np.int64)
        span_layer = layer_idx[name_id] if len(name_id) else np.zeros(0, np.int64)
        self_s = np.bincount(span_layer, weights=self.self_times(), minlength=len(LAYERS) + 1)
        calls = np.bincount(span_layer, minlength=len(LAYERS) + 1)
        return {layer: (float(self_s[i]), int(calls[i])) for i, layer in enumerate(LAYERS)}

    def calls_with_parent_layer(self, layer, parent_layer):
        name_id, parent, _, _ = self.arrays()
        layers = np.array(self.layer_of + [""])
        span_layer = layers[name_id]
        parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], len(self.layer_of))
        parent_layer_of = layers[parent_name]
        return int(np.count_nonzero((span_layer == layer) & (parent_layer_of == parent_layer)))

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.layer_of),
            name_id=name_id, parent=parent, start=start, end=end,
        )
