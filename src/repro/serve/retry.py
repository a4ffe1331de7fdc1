"""Bounded exponential-backoff retry for the serving tier.

Two things go transiently wrong while a writer and many readers share a
resident store file:

* a reader pins a snapshot whose reachability index is not current
  (``index_state != 'current'``: absent, or marked stale until a query
  rebuilds it; exchanges commit whole and never show one) — raised as
  :class:`repro.errors.StaleSnapshotError`;
* SQLite reports ``SQLITE_BUSY``/``SQLITE_LOCKED`` while opening the
  read-only connection (shm init races) or while the writer checkpoints
  against a pinned reader snapshot.

Both are *retry-then-succeed* conditions, never correctness hazards: the
policy here sleeps an exponentially growing, capped delay between
bounded attempts and re-raises (readers wrap the terminal stale case in
:class:`repro.errors.ServeUnavailable`) once the budget is exhausted.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar

from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exchange.sql_executor import ExchangeStore

T = TypeVar("T")

#: substrings of sqlite3.OperationalError messages that mean
#: SQLITE_BUSY / SQLITE_LOCKED (the dbapi does not expose result codes
#: on all supported Python versions).
_BUSY_MARKERS = ("database is locked", "database table is locked")


def is_busy_error(error: BaseException) -> bool:
    """True iff *error* is SQLite's BUSY/LOCKED contention signal."""
    return isinstance(error, sqlite3.OperationalError) and any(
        marker in str(error) for marker in _BUSY_MARKERS
    )


@dataclass(frozen=True)
class BackoffPolicy:
    """Bounded exponential backoff: ``attempts`` tries separated by
    ``base_delay * multiplier**i`` seconds, capped at ``max_delay``.

    The defaults budget roughly half a second of total sleep — enough
    to ride out an index maintenance pass on soak-sized stores while
    keeping a hard bound on reader latency.  Callers that must survive
    full exchanges pick more attempts with a finer cap.
    """

    attempts: int = 10
    base_delay: float = 0.002
    multiplier: float = 2.0
    max_delay: float = 0.1

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ServeError("BackoffPolicy needs at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier <= 0:
            raise ServeError("BackoffPolicy delays must be non-negative")

    def delays(self) -> Iterator[float]:
        """The sleep before each retry (``attempts - 1`` values)."""
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            yield min(delay, self.max_delay)
            delay *= self.multiplier


def run_with_retry(
    operation: Callable[[], T],
    policy: BackoffPolicy,
    *,
    retryable: Callable[[BaseException], bool],
    on_retry: Callable[[int, BaseException], None] | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Run *operation* under *policy*, retrying errors *retryable* accepts.

    Non-retryable errors propagate immediately; the last attempt's error
    propagates unchanged when the budget runs out.  ``on_retry(attempt,
    error)`` fires before each backoff sleep (attempt numbers start at
    1), which is where the serving tier counts its retry metrics.
    """
    for attempt, delay in enumerate(policy.delays(), start=1):
        try:
            return operation()
        except Exception as error:
            if not retryable(error):
                raise
            if on_retry is not None:
                on_retry(attempt, error)
            sleep(delay)
    return operation()


#: default writer checkpoint budget: short, fine-grained waits — a
#: reader snapshot only spans one query, so the window reopens fast.
CHECKPOINT_RETRY = BackoffPolicy(
    attempts=8, base_delay=0.005, multiplier=2.0, max_delay=0.05
)


def checkpoint_with_retry(
    store: "ExchangeStore",
    mode: str = "TRUNCATE",
    *,
    policy: BackoffPolicy = CHECKPOINT_RETRY,
    metrics: MetricsRegistry | None = None,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[int, int, int]:
    """Writer-side checkpoint discipline: retry while readers pin the WAL.

    ``PRAGMA wal_checkpoint`` never raises on reader contention — it
    reports ``busy`` in its result row — so this wraps
    :meth:`ExchangeStore.checkpoint` in the same bounded backoff and
    returns the *last* result.  A still-busy final result is not an
    error: PASSIVE progress was made and the caller retries at its next
    quiescent point (readers release their snapshot after every query,
    so starvation needs a permanently-pinned reader, which the serving
    tier never creates).
    """
    if metrics is not None:
        metrics.add("serve.checkpoints")
    attempts = 0
    result = store.checkpoint(mode)
    for delay in policy.delays():
        if result[0] == 0:
            break
        attempts += 1
        if metrics is not None:
            metrics.add("serve.checkpoint_retries")
        sleep(delay)
        result = store.checkpoint(mode)
    with tracer.span("serve.checkpoint") as span:
        span.set("mode", mode).set("busy", result[0])
        span.set("retries", attempts)
    return result
