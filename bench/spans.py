"""Benchmark-side spans: the layer boundaries, seen from outside.

The program under test is not edited by the benchmark, so the layers
are measured where the benchmark calls into them: one span around each
call into a public function (``cdss.exchange``, ``serve.lineage`` ...),
nested under one top-level span per operation (``churn.cycle``,
``serve.read`` ...).  A span is *name, start, end, parent, op id*; the
spans of one operation share its op id.  Records stay in memory and
are written once, when the benchmark ends (:func:`write_trace`).

A :class:`SpanLog` belongs to one thread.  Disabled (the untraced run
that yields the end-to-end metrics) it still times the region — the
latency samples come from ``span.seconds`` either way — but records
nothing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Iterable

#: span ids of different threads' logs never collide: each log numbers
#: its spans from ``index * ID_STRIDE``.
ID_STRIDE = 1 << 32


class Span:
    """One timed region; a context manager handed out by
    :meth:`SpanLog.span`."""

    __slots__ = ("log", "name", "op", "span_id", "parent", "start", "seconds")

    def __init__(self, log: "SpanLog", name: str, op: "int | None") -> None:
        self.log = log
        self.name = name
        self.op = op
        self.span_id = 0
        self.parent: "int | None" = None
        self.start = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Span":
        log = self.log
        if log.enabled:
            stack = log._stack
            if stack:
                outer = stack[-1]
                self.parent = outer.span_id
                if self.op is None:
                    self.op = outer.op
            self.span_id = log._new_id()
            stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        self.seconds = end - self.start
        log = self.log
        if log.enabled:
            log._stack.pop()
            log.records.append(
                (self.span_id, self.parent, self.op, self.name, self.start, end)
            )


class SpanLog:
    """The spans one benchmark thread recorded."""

    def __init__(self, enabled: bool, thread: str = "main", index: int = 0):
        self.enabled = enabled
        self.thread = thread
        #: (span id, parent id, op id, name, start, end); clock is
        #: ``time.perf_counter`` (shared by every thread of the process).
        self.records: list[tuple] = []
        self._stack: list[Span] = []
        self._next = index * ID_STRIDE

    def _new_id(self) -> int:
        self._next += 1
        return self._next

    def span(self, name: str, op: "int | None" = None) -> Span:
        """A region to time; nests under the innermost open span and
        inherits its op id unless *op* starts a new operation."""
        return Span(self, name, op)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        op: int,
        parent: "int | None" = None,
    ) -> int:
        """Record an already-measured span (hot loops that cannot
        afford a context manager per operation); returns its id, for a
        child's *parent*.  Call only when :attr:`enabled`."""
        span_id = self._new_id()
        self.records.append((span_id, parent, op, name, start, end))
        return span_id

    def total(self, name: str) -> float:
        """Summed seconds of every span called *name*."""
        return sum(r[5] - r[4] for r in self.records if r[3] == name)

    def durations(self, name: str) -> list[float]:
        """Seconds of each span called *name*, in recording order."""
        return [r[5] - r[4] for r in self.records if r[3] == name]


def top_level_coverage(
    logs: Iterable[SpanLog], window_start: float, window_end: float
) -> float:
    """Share of the window the top-level spans cover, on the least
    covered thread (1.0 when nothing was recorded in an empty window)."""
    wall = window_end - window_start
    if wall <= 0:
        return 1.0
    shares = []
    for log in logs:
        covered = sum(
            min(r[5], window_end) - max(r[4], window_start)
            for r in log.records
            if r[1] is None and r[5] > window_start and r[4] < window_end
        )
        shares.append(covered / wall)
    return min(shares) if shares else 0.0


def write_trace(path: Path, logs: Iterable[SpanLog], epoch: float) -> int:
    """Write every log's records as JSONL (times in seconds since
    *epoch*); returns the number of spans written."""
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for log in logs:
            for span_id, parent, op, name, start, end in log.records:
                handle.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "thread": log.thread,
                            "start": start - epoch,
                            "end": end - epoch,
                        }
                    )
                    + "\n"
                )
                count += 1
    return count
