"""Spans recorded from outside the program, and their self-time arithmetic.

The benchmark never edits ``src/``: it wraps the public functions and
methods of each layer (on their classes, or at every module that imported
a function by name) so that each call records one span.  Spans stay in
memory as plain tuples and are written out once, at the end of the run.

A span is ``(span_id, name, start, end, parent_id, request_id, thread_id,
info)``.  Its *self time* is its duration minus the part of that interval
its child spans cover; a layer's figure is the sum of its spans' self time.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from typing import Any

ID, NAME, START, END, PARENT, REQUEST, THREAD, INFO = range(8)

#: The layers, named after the repro modules they measure.
LAYERS = ("experiments", "ml", "poi", "datasets", "geo", "attacks", "defense", "serve", "core")


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        info: "Callable[[tuple, dict, Any], dict] | None" = None,
        request: "Callable[[tuple, dict, Any], Any] | None" = None,
    ) -> Callable[..., Any]:
        """*fn* with one span per call.

        ``info`` turns ``(args, kwargs, result)`` into the span's counters;
        ``request`` names the request the span serves (children inherit it).
        """

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            span_id = next(self._ids)
            parent, req = stack[-1] if stack else (None, getattr(self._local, "request", None))
            stack.append((span_id, req))
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                stack.pop()
                if request is not None:
                    req = request(args, kwargs, result)
                self.spans.append((
                    span_id, name, start, end, parent, req,
                    threading.get_ident(),
                    info(args, kwargs, result) if info is not None else None,
                ))

        return traced

    def patch(self, owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by its traced form."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    def set_request(self, request_id: Any) -> None:
        """Tag the root spans this thread opens from now on, and their children."""
        self._local.request = request_id

    def export(self) -> list[list]:
        return [list(span) for span in self.spans]


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Sequence]) -> dict[int, float]:
    """``span_id -> self seconds``: duration minus the union of its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {span[ID]: span for span in spans}
    for span in spans:
        parent = span[PARENT]
        if parent is not None and parent in by_id:
            p = by_id[parent]
            children[parent].append((max(span[START], p[START]), min(span[END], p[END])))
    return {
        span[ID]: (span[END] - span[START]) - _union_length(children.get(span[ID], ()))
        for span in spans
    }


def covered_seconds(spans: Sequence[Sequence], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` during which some root span was running."""
    ids = {span[ID] for span in spans}
    roots = [
        (max(span[START], start), min(span[END], end))
        for span in spans
        if (span[PARENT] is None or span[PARENT] not in ids)
        and span[END] > start and span[START] < end
    ]
    return _union_length(roots)


def aggregate(spans: Sequence[Sequence]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and the summed ``info`` counters."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        entry = out[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += selfs[span[ID]]
        for key, value in (span[INFO] or {}).items():
            if isinstance(value, (int, float)):
                entry[key] += value
    return out


def layer_seconds(spans: Sequence[Sequence]) -> dict[str, float]:
    """Self seconds summed per layer (the span-name prefix before the dot)."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, entry in aggregate(spans).items():
        layer = name.split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + entry["self_s"]
    return totals


def ancestors_named(spans: Sequence[Sequence], name: str) -> set[int]:
    """Ids of spans that have an ancestor called *name*."""
    by_id = {span[ID]: span for span in spans}
    inside: set[int] = set()
    for span in spans:
        parent = span[PARENT]
        while parent is not None and parent in by_id:
            if by_id[parent][NAME] == name:
                inside.add(span[ID])
                break
            parent = by_id[parent][PARENT]
    return inside
