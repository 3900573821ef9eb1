"""Span tracing for the benchmark's traced run.

The tracer wraps the public functions of each ``biaxial`` layer module in
every module namespace that binds them (``compose`` as ``biaxial.synthesis``
imports it is wrapped as well as ``biaxial.core.compose``), so calls made
inside the library are seen too.  Nothing inside ``src/biaxial`` changes:
the wrapping is done and undone from here.

Each span records its name, its parent span, the instance it belongs to and
its start and end.  Self time, a span's duration minus the time its child
spans cover, is accumulated per function as spans close.  Raw spans are
kept in memory up to a cap and written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path
from types import ModuleType
from typing import Callable

import numpy as np

LAYERS = ("core", "counting", "synthesis", "oracle", "serialization", "cli")

# Public functions each layer module defines that are not in its ``__all__``.
EXTRA_PUBLIC = {
    "counting": ("analyze",),
    "cli": ("main", "build_parser"),
}

# Classmethods traced on their classes, as (module, class, method).
CLASSMETHODS = (("counting", "AxisPair", "from_axes"),)

ROOT = "bench.instance"

# Spans beyond this many are aggregated but not kept raw, which bounds the
# memory a long traced run can take (one span costs 44 bytes here).
MAX_KEPT_SPANS = 200_000


class Tracer:
    """Collects spans and per-function aggregates while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.total_spans = 0
        # Raw spans, one entry per closed span in closing order.
        self.span_name = array("i")
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_instance = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        # Open spans: [span id, nanoseconds covered by children].
        self._stack: list[list[int]] = [[-1, 0]]
        self._instance = -1
        self.observed: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._root = self.wrap(ROOT, lambda call: call())

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return nid

    def wrap(self, name: str, fn: Callable,
             observe: Callable[[object, dict], None] | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.total_spans
            self.total_spans = sid + 1
            parent = stack[-1]
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[1] += dur
                self.calls[nid] += 1
                self.self_ns[nid] += dur - frame[1]
                self.total_ns[nid] += dur
                if len(self.span_id) < MAX_KEPT_SPANS:
                    self.span_name.append(nid)
                    self.span_id.append(sid)
                    self.span_parent.append(parent[0])
                    self.span_instance.append(self._instance)
                    self.span_start.append(start)
                    self.span_end.append(end)
            if observe is not None:
                observe(result, self.observed)
            return result

        return traced

    def instance(self, index: int, call: Callable[[], object]) -> object:
        """Run one benchmark instance under a root span."""
        self._instance = index
        try:
            return self._root(call)
        finally:
            self._instance = -1

    def install(self, package: ModuleType,
                observers: dict[str, Callable[[object, dict], None]]) -> None:
        """Wrap every traced function in every ``biaxial`` namespace."""
        modules = {"": package}
        modules.update({layer: getattr(package, layer) for layer in LAYERS})
        targets: dict[int, tuple[str, Callable]] = {}
        for layer in LAYERS:
            mod = modules[layer]
            public = tuple(getattr(mod, "__all__", ())) + EXTRA_PUBLIC.get(layer, ())
            for attr in public:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) \
                        and getattr(fn, "__module__", "") == mod.__name__:
                    targets[id(fn)] = (f"{layer}.{attr}", fn)
        wrappers = {key: self.wrap(name, fn, observers.get(name))
                    for key, (name, fn) in targets.items()}
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for layer, cls_name, meth in CLASSMETHODS:
            cls = getattr(modules[layer], cls_name)
            raw = vars(cls)[meth]
            wrapped = self.wrap(f"{layer}.{cls_name}.{meth}", raw.__func__,
                                observers.get(f"{layer}.{cls_name}.{meth}"))
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, classmethod(wrapped))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_self_ns(self, layer: str) -> int:
        prefix = layer + "."
        return sum(ns for name, ns in zip(self.names, self.self_ns)
                   if name.startswith(prefix))

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.self_ns[nid]

    def root_ns(self) -> int:
        """Total duration of all root spans."""
        return self.total_ns[self._ids[ROOT]]

    def write(self, stem: Path, meta: dict) -> None:
        """Write the aggregates as JSON and the kept spans as ``.npz``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "meta": meta,
            "names": self.names,
            "calls": self.calls,
            "self_ns": self.self_ns,
            "total_ns": self.total_ns,
            "total_spans": self.total_spans,
            "kept_spans": len(self.span_id),
        }
        stem.with_suffix(".json").write_text(json.dumps(doc, indent=1) + "\n",
                                             encoding="utf-8")
        np.savez(stem.with_suffix(".npz"),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 id=np.frombuffer(self.span_id, dtype=np.int64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 instance=np.frombuffer(self.span_instance, dtype=np.int64),
                 start_ns=np.frombuffer(self.span_start, dtype=np.int64),
                 end_ns=np.frombuffer(self.span_end, dtype=np.int64))
