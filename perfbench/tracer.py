"""Layer tracing from outside the library.

``Tracer.install()`` replaces every public function of each ``orehopf``
module with a wrapper, wherever the function object is bound: in the
module that defines it and in every ``orehopf`` module that imported it by
name.  A few hot methods are wrapped on their classes (``METHODS``).  The
layer of a callable is the module that defines it.

Each wrapped call is counted.  A call that crosses from one layer into
another, or that is listed in ``INCLUSIVE``, also records a span: name,
start, end, parent span and op id.  Calls inside one layer are counted
only, so recursion and helper calls inside a layer cost no span.  A
layer's self time is the sum over its spans of the span's duration minus
the time its child spans cover.  Spans stay in memory until ``dump``.
"""

import array
import gzip
import json
import sys
import time
import types
from functools import _lru_cache_wrapper

LAYERS = ("cyclotomic", "abgroup", "hopfcore", "quotient", "linalg", "reps",
          "catalog", "exprparse", "cli")

# methods wrapped on their class, by defining module
METHODS = {
    "cyclotomic": {"Cyclotomic": ("__add__", "__radd__", "__sub__", "__rsub__",
                                  "__neg__", "__mul__", "__rmul__",
                                  "__truediv__", "__rtruediv__", "__pow__",
                                  "inverse")},
    "abgroup": {"Character": ("eval", "eval_pow"),
                "SubgroupCharacter": ("eval",),
                "GroupElement": ("__mul__", "inverse", "__pow__")},
    "hopfcore": {"TensorElem": ("__mul__",)},
    "linalg": {"SpanBasis": ("add",)},
}

# callables whose inclusive time is reported, so they always get a span
INCLUSIVE = {"reps.is_simple_burnside", "catalog.catalog_entry", "cli.main"}


class Tracer:
    """Counts, spans and per-layer self time of one process."""

    def __init__(self):
        self.labels = []          # "layer.qualname" per wrapped callable
        self.calls = []           # call count per label
        self.inclusive_s = []     # summed span duration per label
        self.self_s = [0.0] * len(LAYERS)
        self.rref_cells = 0
        self.span_add_useful = 0
        self.op = -1              # id of the op in progress, -1 in set-up
        self.span_name = array.array("i")
        self.span_parent = array.array("q")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack = [-1]        # open span ids
        self._layers = [-1]       # layer index of each open span
        self._child = [0.0]       # child time of each open span

    # -- wrapping --

    def _label(self, label):
        self.labels.append(label)
        self.calls.append(0)
        self.inclusive_s.append(0.0)
        return len(self.labels) - 1

    def _wrap(self, fn, layer, label):
        idx = self._label(label)
        layer_id = LAYERS.index(layer)
        always = label in INCLUSIVE
        calls, inclusive_s, self_s = self.calls, self.inclusive_s, self.self_s
        stack, layers, child = self._stack, self._layers, self._child
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self
        if label == "linalg.rref":
            def meter(args, result):
                tracer.rref_cells += len(args[0]) * len(args[0][0]) if args[0] else 0
        elif label == "linalg.SpanBasis.add":
            def meter(args, result):
                tracer.span_add_useful += bool(result)
        else:
            meter = None

        def wrapper(*args, **kwargs):
            calls[idx] += 1
            if layers[-1] == layer_id and not always:
                result = fn(*args, **kwargs)
            else:
                sid = len(starts)
                names.append(idx)
                parents.append(stack[-1])
                ops.append(tracer.op)
                ends.append(0.0)
                stack.append(sid)
                layers.append(layer_id)
                child.append(0.0)
                t0 = clock()
                starts.append(t0)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    ends[sid] = t1
                    stack.pop()
                    layers.pop()
                    dur = t1 - t0
                    self_s[layer_id] += dur - child.pop()
                    child[-1] += dur
                    inclusive_s[idx] += dur
            if meter is not None:
                meter(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__qualname__ = getattr(fn, "__qualname__", label)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap the library; import ``orehopf`` before calling this."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "orehopf"
                                           or name.startswith("orehopf."))}
        wrappers = {}
        for name, mod in sorted(modules.items()):
            layer = name.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if isinstance(obj, (types.FunctionType, _lru_cache_wrapper)):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, f"{layer}.{attr}"))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(fn, layer, f"{layer}.{cls_name}.{meth}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    # -- results --

    def summary(self) -> dict:
        """Counters and times that the parent process aggregates."""
        return {"calls": dict(zip(self.labels, self.calls)),
                "inclusive_s": dict(zip(self.labels, self.inclusive_s)),
                "self_s": dict(zip(LAYERS, self.self_s)),
                "rref_cells": self.rref_cells,
                "span_add_useful": self.span_add_useful,
                "spans": len(self.span_start)}

    def dump(self, path):
        """Write the spans, gzipped, as one JSON object of parallel columns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"labels": self.labels,
                       "columns": ["name", "parent", "op", "start", "end"],
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "op": self.span_op.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist()}, fh)


def merge_summaries(parts) -> dict:
    """Sum the summaries of several traced processes."""
    out = {"calls": {}, "inclusive_s": {}, "self_s": dict.fromkeys(LAYERS, 0.0),
           "rref_cells": 0, "span_add_useful": 0, "spans": 0}
    for part in parts:
        for key in ("calls", "inclusive_s", "self_s"):
            for k, v in part[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for key in ("rref_cells", "span_add_useful", "spans"):
            out[key] += part[key]
    return out
