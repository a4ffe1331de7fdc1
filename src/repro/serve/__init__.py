"""Concurrent serving tier: one writer, many read-only snapshots.

The sqlite engine's store (``CDSS.exchange(engine="sqlite")`` on an
on-disk path) is WAL-journaled and carries a persisted reachability
index, so any number of *read-only* connections can answer provenance
queries while the single writer keeps exchanging.  This package is
that read side plus the writer-facing discipline:

* :class:`ReaderSession` / :class:`ReaderPool` — ``mode=ro`` snapshot
  connections answering ``lineage`` / ``derivability`` / ``trusted``
  at the epoch they observe (stale index → bounded retry, never a
  wrong answer);
* :class:`StoreServer` — a thread-based dispatcher handing out
  futures over a pool;
* :class:`BackoffPolicy` / :func:`run_with_retry` /
  :func:`checkpoint_with_retry` — SQLITE_BUSY and stale-snapshot
  retry, and the writer's checkpoint discipline;
* :class:`StepGate` (``repro.serve.testing``) — the deterministic
  interleaving harness the concurrency tests are built on.

See docs/serving.md for the protocol and its soundness argument.
"""

from repro.errors import ServeError, ServeUnavailable, StaleSnapshotError
from repro.serve.reader import (
    ReaderPool,
    ReaderSession,
    ReadStats,
    SnapshotState,
)
from repro.serve.retry import (
    BackoffPolicy,
    checkpoint_with_retry,
    is_busy_error,
    run_with_retry,
)
from repro.serve.server import StoreServer
from repro.serve.testing import StepGate

__all__ = [
    "BackoffPolicy",
    "ReadStats",
    "ReaderPool",
    "ReaderSession",
    "ServeError",
    "ServeUnavailable",
    "SnapshotState",
    "StaleSnapshotError",
    "StepGate",
    "StoreServer",
    "checkpoint_with_retry",
    "is_busy_error",
    "run_with_retry",
]
