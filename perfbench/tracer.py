"""In-memory spans recorded around calls into the library.

A span has a name, start and end (``perf_counter_ns``), its parent
span and the trace id shared by every span of one input.  Spans are
kept in a list and written out once, when the run ends.  Self time is a
span's duration minus the durations of its children (children run
sequentially inside their parent, so they never overlap).
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int | None, str, int, int]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.trace_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((self.trace_id, span_id, parent, name, start, end))

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def self_times(self) -> dict[str, list[int]]:
        """Self time in ns of every span, grouped by span name."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, list[int]] = defaultdict(list)
        for _, span_id, _, name, start, end in self.spans:
            out[name].append(end - start - child_ns[span_id])
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for trace_id, span_id, parent, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {"trace": trace_id, "span": span_id, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )


class NullTracer:
    """Untraced calls: the same interface, no spans."""

    trace_id = 0

    @contextmanager
    def span(self, name: str):
        yield

    @staticmethod
    def call(name: str, fn, *args):
        return fn(*args)


def layer_summary(self_ns: list[int]) -> tuple[float, float]:
    """(p50 in microseconds, total busy seconds) of one layer's self times."""
    return statistics.median(self_ns) / 1e3, sum(self_ns) / 1e9
