"""Span tracing of cardpath's public functions, installed from outside.

``Tracer.install`` replaces every public module-level function of the
package's modules, at every module attribute that binds it (so the names
``cli`` and ``classical_limit`` import with ``from .propagator import ...``
are covered too), with a wrapper that records a span: id, name, start,
end, parent and thread.  Spans are kept in memory and handed out per
round with ``take``.

A call that starts on a thread with no open span of its own (a pool
worker) is parented to the innermost open span of the main thread, which
is the call that submitted the work.  Self time subtracts the union of
the child intervals, so overlapping pool work is not counted twice.

Nothing under ``src/`` is changed; ``uninstall`` restores the originals.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "thread", "counts")

# classes whose constructor is a layer of its own
TRACED_CLASSES = {"intermediate_set": ("MappingDistribution",)}


def _phase_free(args, kwargs):
    return bool(kwargs.get("phase_free", args[2] if len(args) > 2 else False))


# computed work counts, from the sizes of the arguments and results
COUNTERS = {
    "propagator.step_matrix": lambda args, kwargs, out: {
        "exp_evals": 0 if _phase_free(args, kwargs) else out.size,
        "bytes": out.nbytes},
    "propagator.apply_step": lambda args, kwargs, out: {
        "cmacs": args[0].shape[0] * args[0].shape[1],
        "bytes": args[0].nbytes + args[1].nbytes + out.nbytes},
    "propagator.propagate_enumerate": lambda args, kwargs, out: {
        "paths": args[0].space.sites ** (args[0].grid.k - 1)},
    "propagator.propagate_monte_carlo_euclidean": lambda args, kwargs, out: {
        "samples": kwargs["samples"] if "samples" in kwargs else args[1]},
    "intermediate_set.realize_population": lambda args, kwargs, out: {
        "points": len(out)},
}


class Tracer:
    def __init__(self):
        self._spans = []
        self._ids = itertools.count(1)
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._patched = []
        self.counter_errors = set()

    # -- recording -------------------------------------------------------
    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return ident, stack

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident, stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if ident != self._main and main else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            counts = None
            if counter is not None:
                try:
                    counts = counter(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.counter_errors.add(name)
            # list.append is atomic under the interpreter lock
            self._spans.append((sid, name, t0, t1, parent, ident, counts))
            return out

        return traced

    def take(self):
        """Spans recorded since the last call, as SPAN_FIELDS tuples."""
        spans, self._spans = self._spans, []
        return spans

    # -- patching --------------------------------------------------------
    def install(self, package):
        """Wrap the package's public functions; returns the span names."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        wrappers = {}
        names = []
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{short}.{obj.__qualname__}"
                    wrappers[id(obj)] = self._wrap(name, obj)
                    names.append(name)
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name, None)
                init = vars(cls).get("__init__") if isinstance(cls, type) else None
                if init is not None:
                    self._patched.append((cls, "__init__", init))
                    setattr(cls, "__init__", self._wrap(f"{short}.{cls_name}", init))
                    names.append(f"{short}.{cls_name}")
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return names

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


def _union_length(intervals):
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def reduce_spans(spans):
    """Per-name totals of one round: calls, s, self_s, child_s and counts.

    ``s`` sums the durations of the calls; ``self_s`` subtracts from each
    call the union of its direct children's intervals; ``child_s`` sums
    the children's durations (above the parent's duration when a pool
    overlaps them).
    """
    children = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, name, start, end, _, _, counts in spans:
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "child_s": 0.0})
        kids = children.get(sid, [])
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - _union_length(kids)
        agg["child_s"] += sum(hi - lo for lo, hi in kids)
        for key, val in (counts or {}).items():
            agg[key] = agg.get(key, 0) + val
    return out
