"""In-memory span tracing around calls into fcmreduce's public functions.

A span is one call into a wrapped function: name, layer, start, end, the
span that was open when it started, and the id of the traced run. Spans are
kept in a list and written out once the run ends. The arithmetic helpers
(interval union, self time, percentile rule) are pure functions so the
self-tests can check them on hand-built spans.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

#: Percentile ladder for tail timings; see tail_percentile().
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> its duration minus the part of it its children cover."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, ())
            if c.end > s.start and c.start < s.end
        )
        out[s.id] = s.duration - covered
    return out


def layer_self_times(spans) -> dict:
    """Layer name -> summed self time of its spans."""
    own = self_times(spans)
    out: dict = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out


def covered_time(spans, names) -> float:
    """Wall time during which at least one span with one of these names is
    open (nested or repeated spans are not double counted)."""
    return union_length((s.start, s.end) for s in spans if s.name in names)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it; the
    median when there are too few samples for any tail."""
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Tracer:
    """Records spans around wrapped module attributes, on the thread that
    created it; calls from other threads pass straight through."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._owner = threading.get_ident()
        self._patches: list = []

    @contextmanager
    def span(self, name: str, layer: str):
        span = Span(
            len(self.spans), self._stack[-1] if self._stack else None,
            name, layer, time.perf_counter(), math.nan, self.run_id,
        )
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def wrap(self, module, attr: str, on_result=None) -> None:
        """Replace module.attr by a traced wrapper. The span is named after
        the function and its layer is the module that defines it.
        on_result(args, kwargs, result, span) runs after the span has
        closed, so counting is not timed."""
        fn = getattr(module, attr)
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = attr

        def traced(*args, **kwargs):
            if threading.get_ident() != self._owner:
                return fn(*args, **kwargs)
            with self.span(name, layer) as span:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, kwargs, result, span)
            return result

        traced.__wrapped__ = fn
        self._patches.append((module, attr, fn))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
