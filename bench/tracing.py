"""Span tracing around the engine's functions, installed from outside.

A :class:`Tracer` replaces chosen functions by wrappers that record one
span per call: name, start, end, parent span and instance id.  A function
is replaced in every ``ordersep`` namespace that holds it, because the
modules import each other's names with ``from .x import y`` and callers
look a name up in their own module.  Spans stay in memory until the run
ends; :meth:`Tracer.restore` puts every original function back.
"""

from __future__ import annotations

import contextlib
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level
    instance: str | None
    info: object = None  # optional summary of the call, see Point.info

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Point:
    """One traced function: ``module.attr`` (``attr`` may be ``Class.method``),
    recorded under ``name``.  ``info(result, args)`` summarizes a call, for
    example by the vertex count of the graph it returns."""

    module: str
    attr: str
    name: str
    info: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.instance: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, 0.0, 0.0, parent, self.instance))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        # a deadline alarm may unwind between open() and its try block, so
        # pop through any span it left behind
        while self._stack and self._stack.pop() != idx:
            pass

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def abandon_open_spans(self) -> None:
        """End every span still open, as after an interrupted call."""
        now = time.perf_counter()
        for idx in self._stack:
            self.spans[idx].end = now
        self._stack.clear()

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if info is not None:
                tracer.spans[idx].info = info(result, args)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, points: list[Point]) -> None:
        """Wrap every point in its defining namespace and in each loaded
        ``ordersep`` module that imported it by name."""
        for point in points:
            owner = sys.modules[point.module]
            cls_name, _, attr = point.attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = self.wrap(point.name, original, point.info)
            self._patch(owner, attr, wrapper)
            if cls_name:
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is owner or not mod_name.startswith("ordersep"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, namespace: object, attr: str, value: object) -> None:
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def restore(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

class SpanIndex:
    """Per-name totals over a finished span list."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self.by_name.setdefault(span.name, []).append(i)
            if span.parent is not None:
                self.child_time[span.parent] += span.duration

    def _named(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def ancestors(self, idx: int):
        parent = self.spans[idx].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def under(self, idx: int, name: str) -> bool:
        return any(a.name == name for a in self.ancestors(idx))

    def calls(self, name: str, within: str | None = None, outside: str | None = None) -> int:
        return len(self.select(name, within, outside))

    def select(self, name: str, within: str | None = None, outside: str | None = None) -> list[int]:
        """Spans of ``name``, optionally only those under a ``within`` span
        and not under an ``outside`` span."""
        return [
            i for i in self._named(name)
            if (within is None or self.under(i, within))
            and (outside is None or not self.under(i, outside))
        ]

    def total_time(self, name: str) -> float:
        """Wall time inside calls of ``name``; a recursive call nested in
        another call of the same name is not counted twice."""
        return sum(
            self.spans[i].duration for i in self._named(name) if not self.under(i, name)
        )

    def self_time(self, name: str) -> float:
        """Time inside calls of ``name`` not covered by any child span."""
        return sum(self.spans[i].duration - self.child_time[i] for i in self._named(name))

    def infos(self, name: str, within: str | None = None, outside: str | None = None) -> list:
        return [self.spans[i].info for i in self.select(name, within, outside)]
