"""Spans around the public functions of the cobeq layers, from outside.

`Tracer.install` replaces every public function of the layer modules by a
wrapper, everywhere the function is bound: in its own module and in every
cobeq module that imported it by name (``from .freegroup import mul``).
Each call records a span (function, parent span, start, end) in flat
arrays; a few wrappers also add to counters that are only visible at the
layer boundary.  `Tracer.restore` puts the originals back.  Spans stay in
memory until `Tracer.summary` reduces them at the end of a document.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("freegroup", "cobordism", "cobsum", "matcat", "syntax", "interp", "hilboracle")


def _count_mul(c, args, result):
    c["freegroup.mul_calls"] += 1
    c["freegroup.mul_letters"] += len(args[0].letters) + len(args[1].letters)


def _count_glue(c, args, result):
    f, g = args[0], args[1]
    c["cobordism.circles_closed"] += len(result.circles) - len(f.circles) - len(g.circles)


def _count_members(c, args, result):
    if len(result.terms) > c["cobsum.max_members"]:
        c["cobsum.max_members"] = len(result.terms)


def _count_pairs(c, args, result):
    c["cobsum.pairs"] += len(args[0].terms) * len(args[1].terms)
    c["cobsum.members_out"] += len(result.terms)


def _count_entries(c, args, result):
    c["matcat.entries_built"] += len(result.src) * len(result.tgt)
    c["matcat.nonzero"] += sum(1 for row in result.entries for x in row if x.terms)


def _count_chars(c, args, result):
    c["syntax.parse_chars"] += len(args[0])


COUNTERS = {
    "freegroup.mul": _count_mul,
    "cobordism.compose": _count_glue,
    "cobsum.cobsum": _count_members,  # every nonempty multiset is built here
    "cobsum.compose": _count_pairs,
    "cobsum.tensor": _count_pairs,
    "matcat.matarrow": _count_entries,
    "syntax.parse_document": _count_chars,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of = array("b")
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = dict.fromkeys(
            ("freegroup.mul_calls", "freegroup.mul_letters", "cobordism.circles_closed", "cobsum.pairs",
             "cobsum.members_out", "cobsum.max_members", "matcat.entries_built",
             "matcat.nonzero", "syntax.parse_chars"), 0)
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, index: int, count):
        func, parent, start, end = self.func, self.parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter
        get_limit, set_limit = sys.getrecursionlimit, sys.setrecursionlimit

        def traced(*args, **kwargs):
            # The wrapper's own frame does not count against the program's
            # recursion limit, so a traced check fails at the same depth.
            set_limit(get_limit() + 1)
            sid = len(func)
            func.append(index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counters, args, result)
                return result
            finally:
                end[sid] = clock()
                stack.pop()
                set_limit(get_limit() - 1)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for li, layer in enumerate(LAYERS):
            mod = importlib.import_module(f"cobeq.{layer}")
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qualified = f"{layer}.{name}"
                wrappers[obj] = self._wrap(obj, len(self.names), COUNTERS.get(qualified))
                self.names.append(qualified)
                self.layer_of.append(li)
        for modname, mod in list(sys.modules.items()):
            if modname != "cobeq" and not modname.startswith("cobeq."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._patched.append((mod, name, obj))

    def restore(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-layer self time and call counts, plus the counters."""
        layer_of = [self.layer_of[f] for f in self.func]
        out = {
            layer: {"self_s": s, "calls": 0}
            for layer, s in zip(LAYERS, self_times(layer_of, self.parent, self.start, self.end,
                                                   len(LAYERS)))
        }
        for li in layer_of:
            out[LAYERS[li]]["calls"] += 1
        has_child = bytearray(len(self.func))
        for p in self.parent:
            if p >= 0:
                has_child[p] = 1
        h = self.names.index("interp.H")
        parse = self.names.index("syntax.parse_document")
        out["counters"] = dict(self.counters)
        out["counters"]["interp.H_calls"] = sum(1 for f in self.func if f == h)
        out["counters"]["interp.H_hits"] = sum(
            1 for i, f in enumerate(self.func) if f == h and not has_child[i])
        out["counters"]["syntax.parse_s"] = sum(
            self.end[i] - self.start[i] for i, f in enumerate(self.func) if f == parse)
        return out


def self_times(layer_of, parent, start, end, n_layers: int) -> list[float]:
    """Self time per layer: each span's duration minus that of its direct
    children.  Children run inside their parent, one at a time, so their
    durations add up to the part of the parent they cover."""
    out = [0.0] * n_layers
    for i, layer in enumerate(layer_of):
        d = end[i] - start[i]
        out[layer] += d
        p = parent[i]
        if p >= 0:
            out[layer_of[p]] -= d
    return out
