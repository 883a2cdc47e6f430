"""Spans recorded around calls into the program's layers.

A span is one call into a layer: its name, start, end, the span that
caused it and the operation it belongs to (one grid cell, or one
``/encode`` request).  Spans stay in memory and are written out when the
run ends.  A layer's self time is its span minus the part of it that the
span's children cover.

Wrappers are installed from this directory onto the program's public
functions and removed again after the traced pass, so the untraced pass
runs the program exactly as shipped.  Times come from
``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on Linux: spans taken
in the server process and the client process share one clock.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    """Thread-safe in-memory span and counter store."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()

    # ---------------------------------------------------------------- state
    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def new_op(self, prefix: str) -> str:
        return f"{prefix}{next(self._ops)}"

    def set_op(self, op: str | None) -> None:
        """Operation that root spans opened on this thread belong to."""
        self._local.op = op

    def current_op(self) -> str | None:
        stack = self._stack()
        return stack[-1]["op"] if stack else getattr(self._local, "op", None)

    def inside(self, name: str) -> bool:
        return any(span["name"] == name for span in self._stack())

    # ---------------------------------------------------------------- spans
    @contextmanager
    def span(self, name: str, *, op: str | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent["name"] == name and op is None:
            # An overriding method delegating to the spanned base method
            # (``super().fit``) is one call into the layer, not two.
            yield parent
            return
        if op is None:
            op = parent["op"] if parent is not None else getattr(self._local, "op", None)
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent is not None else None,
            "op": op,
            "start": clock(),
            "end": None,
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = clock()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(float(value))

    def dump(self) -> dict:
        with self._lock:
            return {
                "spans": sorted(self.spans, key=lambda span: span["id"]),
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }


def spanned(tracer: Tracer, name: str):
    """Decorator factory: run the wrapped callable inside a ``name`` span."""

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return original(*args, **kwargs)

        return wrapper

    return make


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(current value)``."""
        if isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------------ analysis
def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """``{span id: duration minus the time its children cover}``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered(children[span["id"]], span["start"], span["end"])
        for span in spans
    }


def layer_self_by_op(spans: list[dict]) -> dict[str, dict[str, float]]:
    """``{op: {layer name: summed self time}}`` over spans that have an op."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        if span["op"] is not None:
            table[span["op"]][span["name"]] += own[span["id"]]
    return {op: dict(layers) for op, layers in table.items()}


def op_walls(spans: list[dict]) -> dict[str, float]:
    """Wall time of each operation: the duration of its root span(s),
    less the time covered by nested spans of other operations (the grid
    span holds the cell operations).

    A root is a span whose parent is absent or belongs to another op.
    """
    by_id = {span["id"]: span for span in spans}
    foreign: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["op"] != span["op"]:
            foreign[parent["id"]].append((span["start"], span["end"]))
    walls: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["op"] is None:
            continue
        parent = by_id.get(span["parent"])
        if parent is None or parent["op"] != span["op"]:
            walls[span["op"]] += (span["end"] - span["start"]) - _covered(
                foreign[span["id"]], span["start"], span["end"]
            )
    return dict(walls)


def write_trace(path, tracer: Tracer) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
