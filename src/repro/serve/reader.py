"""Read-only serving sessions over a resident store file.

A :class:`ReaderSession` opens its *own* SQLite connection to the store
path with ``mode=ro`` + ``PRAGMA query_only`` — it shares nothing with
the writer but the WAL file — and answers ``lineage`` /
``derivability`` / ``trusted`` from the persisted reachability index
(PR 9's ``__ridx_*`` tables) at the epoch its snapshot observes.

The consistency protocol (docs/serving.md spells out why it is sound):

1. ``BEGIN`` — the first read pins a WAL snapshot for the whole query.
2. Read ``index_state`` / ``index_epoch`` / ``dirty_run`` from
   ``__meta`` *inside* the snapshot.  Every writer commit that mutates
   relation content either bumps the epoch in the same transaction or
   happens while the state is ``stale``/dirty, so a snapshot showing
   ``current`` + clean is index-consistent at its epoch.
3. Not servable → release, back off, retry (bounded); the session
   *never* extrapolates — a reader answer is always exactly right for
   the epoch it reports.
4. Epoch drift → drop the per-epoch caches and rebuild them under the
   new snapshot.
5. Answer, then ``ROLLBACK`` so the snapshot never outlives the query
   (a held snapshot is what makes writer checkpoints report busy).

All index reads are pure SELECTs, computed by the one read core the
writer uses too (:class:`repro.exchange.index_reads.IndexReadCore`);
this module adds only what is serving-specific: the read-only
connection, the snapshot protocol above, retry/backoff, and the
``serve.*`` stats.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, TypeVar
from urllib.parse import quote

from repro.errors import (
    ServeError,
    ServeUnavailable,
    StaleSnapshotError,
)
from repro.exchange.index_reads import (
    IndexAnswer,
    IndexReadCore,
    PreparedSQL,
)
from repro.exchange.sql_executor import (
    check_store_format,
    normalize_store_path,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.provenance.graph import TupleNode
from repro.relational.instance import Catalog
from repro.serve.retry import BackoffPolicy, is_busy_error, run_with_retry
from repro.storage.encoding import ValueCodec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cdss.trust import TrustPolicy

T = TypeVar("T")

__all__ = [
    "ReadStats",
    "ReaderPool",
    "ReaderSession",
    "SnapshotState",
]

#: default retry budget for pinning a servable snapshot: ~40 attempts
#: with a 50 ms cap totals about two seconds of sleep — enough to ride
#: out an index rebuild on soak-sized stores.
DEFAULT_RETRY = BackoffPolicy(
    attempts=40, base_delay=0.001, multiplier=2.0, max_delay=0.05
)

_META_SQL = (
    'SELECT key, value FROM "__meta" WHERE key IN '
    "('index_state', 'index_epoch', 'dirty_run')"
)
_FORMAT_SQL = "SELECT value FROM \"__meta\" WHERE key = 'store_format'"


@dataclass(frozen=True)
class SnapshotState:
    """The ``__meta`` fields a pinned snapshot observed."""

    state: str
    epoch: int
    dirty: bool

    @property
    def servable(self) -> bool:
        """True iff the index is consistent at :attr:`epoch`."""
        return self.state == "current" and not self.dirty


@dataclass(frozen=True)
class ReadStats:
    """Bookkeeping for the last query a session answered."""

    kind: str
    epoch: int
    cache_hit: bool
    retries: int
    wall_seconds: float
    #: ``"cache"``, ``"cte"``, ``"fixpoint"`` or ``"miss"`` (a
    #: lineage probe on an unknown/unstored node).
    path: str


class ReaderSession:
    """One read-only connection serving index queries at its snapshot
    epoch.

    Sessions are cheap (the connection opens lazily) and single-user:
    share a store between threads with one session per thread or a
    :class:`ReaderPool`, never one session across threads concurrently.
    """

    def __init__(
        self,
        path: str,
        catalog: Catalog,
        *,
        retry: BackoffPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        on_pinned: Callable[[SnapshotState], None] | None = None,
    ) -> None:
        self.path = normalize_store_path(path)
        if self.path == ":memory:":
            raise ServeError(
                "reader sessions need an on-disk store path; an in-memory "
                "store is private to the writer's connection"
            )
        self.catalog = catalog
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        #: test hook: called with the observed state while the snapshot
        #: is still pinned (the deterministic harness parks readers
        #: here to schedule writer steps against a held snapshot).
        self.on_pinned = on_pinned
        self.last_read: ReadStats | None = None
        self.closed = False
        self._conn: sqlite3.Connection | None = None
        self._format_checked = False
        self._prepared = PreparedSQL()
        self._core = IndexReadCore(catalog, ValueCodec(), self._prepared)

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "ReaderSession":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        """Release the connection; the session cannot be reused."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        self.closed = True

    # -- connection / snapshot plumbing --------------------------------------

    def _open(self) -> sqlite3.Connection:
        uri = f"file:{quote(self.path, safe='/')}?mode=ro"
        conn = sqlite3.connect(
            uri,
            uri=True,
            timeout=0.5,
            isolation_level=None,
            check_same_thread=False,
            cached_statements=512,
        )
        conn.execute("PRAGMA query_only = ON")
        return conn

    def _connect(self) -> sqlite3.Connection:
        if self.closed:
            raise ServeError("reader session is closed")
        conn = self._conn
        if conn is None:

            def on_retry(attempt: int, error: BaseException) -> None:
                self.metrics.add("serve.busy_retries")

            conn = run_with_retry(
                self._open,
                self.retry,
                retryable=lambda e: isinstance(e, sqlite3.OperationalError),
                on_retry=on_retry,
            )
            self._conn = conn
        return conn

    @contextmanager
    def _pin(self) -> Iterator[sqlite3.Connection]:
        conn = self._connect()
        conn.execute("BEGIN")
        try:
            yield conn
        finally:
            conn.execute("ROLLBACK")

    def _read_state(self, conn: sqlite3.Connection) -> SnapshotState:
        try:
            meta = dict(conn.execute(_META_SQL))
        except sqlite3.OperationalError as error:
            if "no such table" in str(error):
                raise ServeError(
                    f"{self.path} is not a resident exchange store "
                    "(missing __meta table)"
                ) from error
            raise
        if not self._format_checked:
            # The layout version belongs to the file, so one check per
            # connection keeps it off the per-read path.
            (stored,) = conn.execute(_FORMAT_SQL).fetchone() or (None,)
            check_store_format(stored, self.path)
            self._format_checked = True
        return SnapshotState(
            state=str(meta.get("index_state") or ""),
            epoch=int(meta.get("index_epoch") or 0),
            dirty=bool(int(meta.get("dirty_run") or 0)),
        )

    @property
    def prepared_hits(self) -> int:
        """Query SQL texts reused from this session's cache."""
        return self._prepared.hits

    @property
    def prepared_misses(self) -> int:
        """Query SQL texts this session had to build."""
        return self._prepared.misses

    # -- query driver --------------------------------------------------------

    def _answer(
        self,
        kind: str,
        query: Callable[
            [sqlite3.Connection, SnapshotState], tuple[IndexAnswer[T], bool]
        ],
    ) -> T:
        """Pin a servable snapshot (with retry), run *query* on the
        read core at the observed epoch, and record :attr:`last_read`."""
        started = time.perf_counter()
        retries = 0

        def attempt() -> tuple[IndexAnswer[T], SnapshotState, bool]:
            with self._pin() as conn:
                state = self._read_state(conn)
                if self.on_pinned is not None:
                    self.on_pinned(state)
                if not state.servable:
                    raise StaleSnapshotError(
                        f"index {state.state or 'absent'!r}"
                        f"{' (dirty run)' if state.dirty else ''} "
                        f"at epoch {state.epoch}"
                    )
                if self._core.epoch not in (None, state.epoch):
                    self.metrics.add("serve.snapshot_refreshes")
                answer, hit = query(conn, state)
                return answer, state, hit

        def on_retry(attempt_no: int, error: BaseException) -> None:
            nonlocal retries
            retries = attempt_no
            name = (
                "serve.busy_retries"
                if is_busy_error(error)
                else "serve.stale_retries"
            )
            self.metrics.add(name)

        try:
            answer, state, hit = run_with_retry(
                attempt,
                self.retry,
                retryable=lambda e: (
                    isinstance(e, StaleSnapshotError) or is_busy_error(e)
                ),
                on_retry=on_retry,
            )
        except StaleSnapshotError as error:
            self.metrics.add("serve.unavailable")
            raise ServeUnavailable(
                f"no servable snapshot after {self.retry.attempts} "
                f"attempts: {error}"
            ) from error
        wall = time.perf_counter() - started
        path = "cache" if hit else answer.path
        self.metrics.add("serve.queries")
        if hit:
            self.metrics.add("serve.cache_hits")
        self.last_read = ReadStats(
            kind=kind,
            epoch=state.epoch,
            cache_hit=hit,
            retries=retries,
            wall_seconds=wall,
            path=path,
        )
        with self.tracer.span("serve.query") as span:
            span.set("kind", kind).set("epoch", state.epoch)
            span.set("cache_hit", hit).set("path", path)
        return answer.value

    # -- the three queries ---------------------------------------------------

    def lineage(self, node: TupleNode) -> frozenset[TupleNode]:
        """Set of local base tuples *node* derives from (Q6), at the
        session's observed epoch.

        Raises :class:`KeyError` when *node* is not a stored tuple —
        the same contract as :meth:`repro.cdss.system.CDSS.lineage`.
        A repeated miss is a cache hit that re-raises.
        """
        value = self._answer(
            "lineage",
            lambda conn, state: self._core.lineage(
                conn, state.epoch, node
            ),
        )
        if value is None:
            raise KeyError(node)
        return value

    def derivability(self) -> dict[TupleNode, bool]:
        """Derivability annotation of every stored tuple (Q5) at the
        session's observed epoch."""
        return dict(
            self._answer(
                "derivability",
                lambda conn, state: self._core.derivability(
                    conn, state.epoch
                ),
            )
        )

    def trusted(self, policy: "TrustPolicy") -> dict[TupleNode, bool]:
        """Trust annotation of every stored tuple under *policy* (Q7)
        at the session's observed epoch."""
        return dict(
            self._answer(
                "trusted",
                lambda conn, state: self._core.trusted(
                    conn, state.epoch, policy
                ),
            )
        )


class ReaderPool:
    """A bounded pool of :class:`ReaderSession` instances.

    Sessions are created lazily up to *size* and handed out one per
    :meth:`session` context; a checkout blocks (up to *timeout*
    seconds) when all sessions are busy.  All sessions share one
    metrics registry, whose counters are therefore approximate under
    concurrency (increments may race); exact assertions belong on
    single-threaded sessions.
    """

    def __init__(
        self,
        path: str,
        catalog: Catalog,
        *,
        size: int = 4,
        retry: BackoffPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        timeout: float = 30.0,
    ) -> None:
        if size < 1:
            raise ServeError("reader pool needs at least one session")
        self.path = normalize_store_path(path)
        self.catalog = catalog
        self.size = size
        self.retry = retry
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.timeout = timeout
        self.closed = False
        self._lock = threading.Condition()
        self._idle: list[ReaderSession] = []
        self._created = 0

    def __enter__(self) -> "ReaderPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _checkout(self) -> ReaderSession:
        with self._lock:
            deadline = time.monotonic() + self.timeout
            while True:
                if self.closed:
                    raise ServeError("reader pool is closed")
                if self._idle:
                    return self._idle.pop()
                if self._created < self.size:
                    self._created += 1
                    return ReaderSession(
                        self.path,
                        self.catalog,
                        retry=self.retry,
                        metrics=self.metrics,
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServeUnavailable(
                        f"no reader session free within {self.timeout:g}s "
                        f"(pool size {self.size})"
                    )
                self._lock.wait(remaining)

    def _checkin(self, session: ReaderSession) -> None:
        with self._lock:
            if self.closed:
                session.close()
                self._created -= 1
            else:
                self._idle.append(session)
            self._lock.notify()

    @contextmanager
    def session(self) -> Iterator[ReaderSession]:
        """Check a session out for the duration of the ``with`` block."""
        session = self._checkout()
        try:
            yield session
        finally:
            self._checkin(session)

    def close(self) -> None:
        """Close idle sessions and refuse further checkouts.

        Sessions currently checked out are closed as they come back.
        """
        with self._lock:
            self.closed = True
            for session in self._idle:
                session.close()
                self._created -= 1
            self._idle.clear()
            self._lock.notify_all()
