"""Per-layer tracing for the benchmark, installed from outside the package.

``install`` replaces public functions of the gridhit layers with wrappers
that record a span (name, parent, start, end) or bump a counter.  Module
functions are replaced in every loaded ``gridhit`` module that binds the
same function object, so names bound by ``from ... import`` are wrapped
too; methods and ``SqrtExt`` operators are replaced on their class.
Spans stay in memory until the run ends.

Only the traced child process calls ``install``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# (span name, owner, attribute): owner is a module or "module:Class".
TIMED = (
    ("geometry.grid_points_in", "gridhit.geometry", "grid_points_in"),
    ("geometry.has_grid_point", "gridhit.geometry", "has_grid_point"),
    ("geometry.object_level", "gridhit.geometry", "object_level"),
    ("geometry.points_of_level", "gridhit.geometry", "points_of_level"),
    # A SqrtExt ceil is computed as a floor, so one span covers both.
    ("exactnum.sqrt_floor", "gridhit.exactnum:SqrtExt", "__floor__"),
    ("engine.process", "gridhit.engine:EngineState", "process"),
    ("engine.is_hit", "gridhit.engine:EngineState", "is_hit"),
    ("oracle.reduce", "gridhit.oracle", "reduce_instance"),
    ("oracle.greedy", "gridhit.oracle", "greedy_hitting_set"),
    ("oracle.bb", "gridhit.oracle", "exact_min_hitting_set"),
    ("adversary.new_game", "gridhit.adversary", "new_game"),
    ("adversary.next_object", "gridhit.adversary", "next_object"),
    ("adversary.find_empty_subcube", "gridhit.adversary", "find_empty_subcube"),
    ("adversary.summarize", "gridhit.adversary", "summarize"),
    ("formats.read_instance", "gridhit.formats", "read_instance"),
    ("harness.gen_random", "gridhit.harness", "gen_random"),
)

# Hot calls that are counted only: a span each would dwarf their cost.
COUNTED = (
    ("geometry.contains", "gridhit.geometry", ("contains",)),
    ("exactnum.sqrt_ops", "gridhit.exactnum:SqrtExt", (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__truediv__", "__rtruediv__", "__neg__", "__abs__", "__pow__",
        "__eq__", "__lt__", "__le__", "__gt__", "__ge__")),
)


class Tracer:
    """Spans as parallel arrays (name id, parent index or -1, start_ns,
    end_ns), plus counters.  Arrays hold no Python objects, so the garbage
    collector, which each item runs, never has to walk the spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: array = array("q")
        self.parent: array = array("q")
        self.start: array = array("q")
        self.end: array = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def timed(self, name: str, fn, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if post is not None:
                post(self.counts, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __len__(self) -> int:
        return len(self.start)

    def totals(self, first: int, stop: int) -> dict:
        """Calls and self time per span name over spans first..stop-1,
        which must hold whole root spans.  Self time is a span's duration
        minus its children's, so the self times add up to ``root_ns``, the
        roots' total duration."""
        child_ns = [0] * (stop - first)
        root_ns = 0
        for k in range(first, stop):
            dur = self.end[k] - self.start[k]
            if self.parent[k] >= first:
                child_ns[self.parent[k] - first] += dur
            else:
                root_ns += dur
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for k in range(first, stop):
            name = self.names[self.name_id[k]]
            calls[name] += 1
            self_ns[name] += self.end[k] - self.start[k] - child_ns[k - first]
        return {"calls": dict(calls), "self_ns": dict(self_ns),
                "root_ns": root_ns}

    def write(self, path) -> None:
        """One JSON list per span: index, name, parent, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(len(self)):
                fh.write(json.dumps([k, self.names[self.name_id[k]],
                                     self.parent[k], self.start[k],
                                     self.end[k]]) + "\n")


def _count_points(counts, result):
    counts["geometry.points_enumerated"] += len(result)


def _count_candidates(counts, result):
    counts["oracle.candidates"] += len(result.candidates)


def _count_exact(counts, result):
    counts["oracle.bb.exact"] += bool(result.exact)


_POST = {
    "geometry.grid_points_in": _count_points,
    "oracle.reduce": _count_candidates,
    "oracle.bb": _count_exact,
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def _replace(owner, attr: str, wrap) -> None:
    orig = getattr(owner, attr)
    if isinstance(owner, type):
        setattr(owner, attr, wrap(orig))
        return
    new = wrap(orig)
    for name, mod in list(sys.modules.items()):
        if name == "gridhit" or name.startswith("gridhit."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points for the rest of this process."""
    for name, owner, attr in TIMED:
        _replace(_owner(owner), attr,
                 lambda fn, name=name: tracer.timed(name, fn, _POST.get(name)))
    for name, owner, attrs in COUNTED:
        for attr in attrs:
            _replace(_owner(owner), attr,
                     lambda fn, name=name: tracer.counted(name, fn))
