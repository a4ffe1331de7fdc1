"""Set-oriented semi-naive fixpoints inside SQLite.

This is the out-of-core counterpart of
:func:`repro.datalog.evaluation.evaluate`: every semi-naive round runs
*whole delta batches* as one SQL statement per compiled plan, instead
of enumerating candidate rows in Python.  :func:`run_fixpoint` is the
one round driver; it runs all three lowerings of
:mod:`repro.exchange.sql_plans` — update exchange, the liveness test
of deletion propagation and the unindexed graph queries, and the
backward lineage walk.  One round (inside the caller's transaction):

1. every trigger whose relation has a non-empty delta fires as one
   ``INSERT INTO <firing table> SELECT DISTINCT ...`` join;
2. the fresh firings of each rule that fired drive its follow-ups:
   candidate rows per relation and, for exchange, the ``P_m``
   provenance-relation maintenance (Section 4.1);
3. at round end, each relation that received candidates stages the
   distinct ones its instance keeps; they become the next delta and
   join the target set — insertions never join within the round that
   produced them (snapshot semantics).

For exchange the round structure mirrors the in-memory engine exactly,
so both engines derive identical instances and provenance graphs.  The
store is authoritative: derived tuples stay in their relation tables
and firings in ``P_m`` and the reachability index — nothing is written
back into a Python instance or graph.

:class:`ExchangeStore` owns the SQLite database (``:memory:`` or an
on-disk path), keeps one
:class:`~repro.storage.encoding.ValueCodec` so labeled nulls intern
consistently, registers the ``repro_skolem`` SQL function that builds
Skolem values inside queries, and creates and empties every
instance's work tables.
"""

from __future__ import annotations

import os
import sqlite3
from contextlib import contextmanager
from typing import Iterator, Mapping as TMapping, Sequence

from repro.cdss.mapping import SchemaMapping
from repro.datalog.evaluation import EvaluationResult
from repro.datalog.terms import SkolemValue
from repro.errors import EvaluationError, ExchangeError, StorageError
from repro.exchange.cache import CompiledExchangeProgram
from repro.exchange.index_reads import (
    PreparedSQL,
    liveness_over_edges,
    load_cone,
)
from repro.exchange.reach_index import (
    PM_CANDIDATES,
    REL_SHIFT,
    ROOT_TABLE,
    ROOTS_COMPLETE,
    ReachabilityIndex,
    create_prune_temps,
    create_root_table,
    load_relnos,
    lower_cone_program,
    lower_reach_program,
)
from repro.exchange.sql_plans import (
    EXCHANGE,
    LIVENESS,
    Fixpoint,
    FixpointRule,
    FixpointSQL,
    lower_derivability_program,
    lower_program,
)
from repro.obs.sqlite_hook import StatementTrace, statement_fingerprint
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.provenance.graph import ProvenanceGraph
from repro.relational.instance import Catalog, Instance, Row
from repro.relational.schema import RelationSchema
from repro.storage.encoding import ValueCodec, quote_identifier as _q


#: writer-side SQLITE_BUSY grace period for durable (WAL) stores, in
#: milliseconds.  Readers in repro.serve never hold write locks, so the
#: timeout only matters for rare shm/recovery contention; bounded
#: exponential-backoff retries on top of it live in repro.serve.retry.
BUSY_TIMEOUT_MS = 5_000

#: layout version of a store file, persisted in ``__meta`` as
#: ``store_format``.  Format 2 added the pending cone's root table
#: (``__ridx_root``) and dropped the dirty-run flag; the writer
#: migrates a format-1 (or unstamped) file on open, and any other
#: number is refused.
STORE_FORMAT = 2


def check_store_format(value: object, path: str) -> None:
    """Refuse a store whose ``__meta`` ``store_format`` is not
    :data:`STORE_FORMAT` (readers; the writer migrates a format-1 file
    before it checks)."""
    if value != STORE_FORMAT:
        raise StorageError(
            f"{path} has store format {value!r}; this version reads "
            f"format {STORE_FORMAT} only"
        )


def normalize_store_path(path: "str | os.PathLike[str]") -> str:
    """Canonical identity of a store file.

    Two spellings of the same file (relative vs. absolute, ``..``
    segments) must compare equal wherever a store is pinned or reopened
    by path — and a relative spelling must not silently start naming a
    *different* file after an ``os.chdir``.  ``":memory:"`` is its own
    identity.
    """
    path = os.fspath(path)
    return path if path == ":memory:" else os.path.abspath(path)


def _skolem_function(codec: ValueCodec):
    """The ``repro_skolem(name, types_csv, *args)`` SQL function.

    Decodes each argument by its declared type tag, builds the
    :class:`SkolemValue`, and returns its interned string encoding so
    equal labeled nulls compare equal inside SQL joins.
    """

    def repro_skolem(function: str, types_csv: str, *args: object) -> object:
        types = types_csv.split(",") if types_csv else []
        values = tuple(
            codec.decode(value, type_) for value, type_ in zip(args, types)
        )
        return codec.encode(SkolemValue(function, values))

    return repro_skolem


class ExchangeStore:
    """The SQLite database holding a CDSS's relational encoding.

    A sqlite-engine system's store is *authoritative*: its relation
    tables hold the derived instance and its ``P_m`` tables and
    reachability index the firing history — on disk, or in RAM with
    ``path=":memory:"``.  Only local contributions reach it from
    Python: each exchange ships the system's pending local rows
    (:meth:`ship_local_rows`), so a repeat exchange with nothing
    pending transfers zero rows.

    Dedicate a store to one CDSS for its lifetime: ``P_m`` rows
    accumulate across incremental calls, so pointing a second system at
    the same store would leave the first system's rows behind.  ``P_m``
    is the *firing history*; deletion propagation keeps it honest: the
    relational DERIVABILITY fixpoint
    (:meth:`SQLiteExchangeEngine.propagate_deletions`) garbage-collects
    the rows whose firing lost a supporting antecedent.

    The file's layout version, :data:`STORE_FORMAT`, is stamped into
    ``__meta`` on first open; a file with another number is refused
    with :class:`~repro.errors.StorageError`.  The store is a context
    manager.
    """

    def __init__(self, path: str = ":memory:"):
        self.path = normalize_store_path(path)
        self.codec = ValueCodec()
        # A large statement cache: the maintained-index query paths
        # re-execute a small set of SQL strings on every call, and
        # sqlite3 skips re-preparing a statement whose exact text is
        # cached — the "prepared statement reuse" half of the index's
        # warm-query latency (see :attr:`prepared`).
        self.connection = sqlite3.connect(self.path, cached_statements=512)
        self.connection.execute("PRAGMA synchronous = OFF")
        self.connection.execute("PRAGMA journal_mode = MEMORY")
        self.connection.create_function(
            "repro_skolem", -1, _skolem_function(self.codec), deterministic=True
        )
        create_prune_temps(self.connection)
        self.closed = False
        self._durable = False
        self._known_tables: set[str] = set()
        #: per-relation row counts, maintained by ship/publish so
        #: resident-mode exchanges never rescan whole tables with
        #: COUNT(*) (see :meth:`cached_count`).
        self._row_counts: dict[str, int] = {}
        #: program fingerprints, and (fingerprint, instance) pairs,
        #: whose :meth:`ensure_schema` DDL already ran on this
        #: connection (tables are never dropped, so one pass per
        #: program suffices — warm calls skip the whole CREATE ... IF
        #: NOT EXISTS sweep).
        self._schema_ready: set[object] = set()
        #: ``prepared(key, builder)``: the built-SQL cache of the hot
        #: index-read statements on this connection.
        self.prepared = PreparedSQL()
        self._reach_index: ReachabilityIndex | None = None
        try:
            self._open_layout()
        except BaseException:
            self.connection.close()
            raise

    def _open_layout(self) -> None:
        """Stamp a fresh file, migrate a format-1 (or unstamped) one,
        and refuse any other format.

        A fresh file gets the root table and the roots marker: it holds
        nothing, so no deletion is pending.  A migrated file gets the
        root table without the marker — the deletions made before it
        recorded no roots — so its first propagation runs the full
        fixpoint.  A format-1 file whose dirty-run flag is set holds
        the committed rounds of an aborted run, which format 2 has no
        recovery for: it is refused."""
        conn = self.connection
        fresh = conn.execute("SELECT 1 FROM sqlite_master LIMIT 1").fetchone() is None
        with conn:
            conn.execute(
                'CREATE TABLE IF NOT EXISTS "__meta" '
                "(key TEXT PRIMARY KEY, value)"
            )
            store_format = self.meta_get("store_format")
            if fresh or store_format in (None, 1):
                if self.meta_get("dirty_run"):
                    raise StorageError(
                        f"{self.path} has store format 1 and an aborted "
                        "exchange run (dirty_run is set); this version "
                        "cannot recover it"
                    )
                create_root_table(conn)
                self.meta_delete("dirty_run")
                self.meta_set("store_format", STORE_FORMAT)
                if fresh:
                    self.meta_set(ROOTS_COMPLETE, 1)
            else:
                check_store_format(store_format, self.path)

    def ensure_durable(self) -> None:
        """Trade write speed for crash safety before an exchange run.

        A fresh store keeps the fast defaults (``synchronous = OFF``,
        in-memory rollback journal), which suffice for a store ProQL
        loads from a memory-engine system.  An exchange store is the
        only copy of the derived data, so an on-disk one is switched to
        WAL with ``synchronous = NORMAL`` — a killed process can then
        never corrupt the file, and each exchange, targeted deletion
        and propagation is one transaction that lands whole or not at
        all.  In-memory stores die with the process regardless; they
        keep the fast settings.
        """
        if self._durable or self.path == ":memory:":
            return
        self.connection.execute("PRAGMA journal_mode = WAL")
        self.connection.execute("PRAGMA synchronous = NORMAL")
        # Read-only serving sessions (repro.serve) may share the file;
        # give writer statements a grace period instead of failing the
        # first SQLITE_BUSY (bounded retries on top live in repro.serve).
        self.connection.execute(f"PRAGMA busy_timeout = {BUSY_TIMEOUT_MS}")
        self._durable = True

    def checkpoint(self, mode: str = "PASSIVE") -> tuple[int, int, int]:
        """Run ``PRAGMA wal_checkpoint`` and report SQLite's result.

        Returns ``(busy, wal_pages, moved_pages)``: ``busy`` is 1 when a
        concurrent reader's pinned snapshot prevented the checkpoint
        from completing (SQLite reports this in the result row rather
        than raising).  Writers serving concurrent readers should
        checkpoint ``PASSIVE`` during traffic and reserve blocking modes
        (``TRUNCATE``/``RESTART``) for quiescent points, retrying with
        backoff while ``busy`` is set — see docs/serving.md.
        """
        if mode not in ("PASSIVE", "FULL", "RESTART", "TRUNCATE"):
            raise ExchangeError(f"unknown checkpoint mode: {mode!r}")
        if self.connection.in_transaction:
            # A checkpoint on a connection with an open transaction
            # raises "database table is locked" instead of reporting
            # busy.  Index reads are pure SELECTs and open none, but
            # the oracle queries and deletion pruning still stage rows
            # in work tables, and a stray DML statement on those leaves
            # an implicit transaction the dbapi never closes.  All
            # real mutations commit at their own boundaries, so ending
            # a dangling transaction here is safe.
            self.connection.commit()
        row = self.connection.execute(
            f"PRAGMA wal_checkpoint({mode})"
        ).fetchone()
        return (int(row[0]), int(row[1]), int(row[2]))

    def meta_get(self, key: str) -> object:
        """One value from the store's persisted ``__meta`` table (None
        when absent).  This is durable, per-store-file state: a store
        reopened by path (resident mode's recovery story) reads the
        same values, which is how the reachability index's epoch and
        current/stale flag survive a process restart."""
        row = self.connection.execute(
            'SELECT value FROM "__meta" WHERE key = ?', (key,)
        ).fetchone()
        return row[0] if row else None

    def meta_set(self, key: str, value: object) -> None:
        """Persist one ``__meta`` value.  Transaction-aware: inside an
        open transaction the write rides it (so e.g. an index-epoch
        bump commits or rolls back atomically with the maintenance that
        caused it); outside one it commits immediately."""
        self._meta_write(
            'INSERT OR REPLACE INTO "__meta" (key, value) VALUES (?, ?)',
            (key, value),
        )

    def meta_delete(self, key: str) -> None:
        """Remove one ``__meta`` value (transaction-aware, as
        :meth:`meta_set`)."""
        self._meta_write('DELETE FROM "__meta" WHERE key = ?', (key,))

    def _meta_write(self, sql: str, params: tuple[object, ...]) -> None:
        if self.connection.in_transaction:
            self.connection.execute(sql, params)
        else:
            with self.connection:
                self.connection.execute(sql, params)

    @property
    def reach_index(self) -> ReachabilityIndex:
        """The store's maintained reachability index handle
        (:mod:`repro.exchange.reach_index`), created lazily.  Creating
        the handle touches nothing: all index state lives in the store
        file, so on a reopened store the handle simply adopts whatever
        epoch/state the file recorded (``docs/graph-index.md``)."""
        if self._reach_index is None:
            self._reach_index = ReachabilityIndex(self)
        return self._reach_index

    @property
    def prepared_hits(self) -> int:
        """Query SQL texts reused from :attr:`prepared`."""
        return self.prepared.hits

    @property
    def prepared_misses(self) -> int:
        """Query SQL texts :attr:`prepared` had to build."""
        return self.prepared.misses

    # -- schema ------------------------------------------------------------

    def _create_table(self, name: str, columns: tuple[str, ...]) -> None:
        # Columns are intentionally typeless (BLOB affinity): the store
        # must preserve encoded values exactly as bound, with no column
        # affinity coercion (e.g. TEXT affinity turning ints into text).
        cols = ", ".join(_q(c) for c in columns)
        self.connection.execute(
            f"CREATE TABLE IF NOT EXISTS {_q(name)} ({cols})"
        )
        self._known_tables.add(name)

    def ensure_stored_schema(
        self,
        catalog: Catalog,
        mappings: TMapping[str, SchemaMapping],
        token: str | None = None,
    ) -> None:
        """Create (idempotently) the stored encoding of Section 4.1:
        one typeless table per relation and one ``P_m`` table per
        non-superfluous mapping, indexed on every column.  This is the
        only relational encoding of the provenance graph — exchange,
        deletion, the index and ProQL (through
        :class:`~repro.storage.sqlite_backend.SQLiteStorage`) all read
        it.  *token* memoizes the DDL once per program on this
        connection."""
        if token is not None and token in self._schema_ready:
            return
        for schema in catalog:
            self._create_table(schema.name, schema.attribute_names)
        for mapping in mappings.values():
            if not mapping.stores_provenance:
                continue
            schema = mapping.provenance_schema()
            self._create_table(schema.name, schema.attribute_names)
            # Indexed on every column (as in the paper's storage
            # layer): the per-round dedup probe and path traversals
            # may enter a provenance relation from either side.
            for attribute in schema.attribute_names:
                self._create_index(
                    f"__ix_{schema.name}__{attribute}",
                    schema.name,
                    (attribute,),
                )
        self.connection.commit()
        if token is not None:
            self._schema_ready.add(token)

    def ensure_schema(
        self,
        catalog: Catalog,
        mappings: TMapping[str, SchemaMapping],
        fsql: FixpointSQL,
        token: str | None = None,
    ) -> None:
        """Create (idempotently) the stored schema
        (:meth:`ensure_stored_schema`) and *fsql*'s work tables and
        indexes.

        *token* (the compiled program's fingerprint, which covers the
        catalog via the per-relation local rules) memoizes both parts:
        the stored schema once per program, the work tables once per
        program and instance — warm calls issue no DDL at all.  The
        work tables with an instance's ``indexed`` prefixes get an
        index on all their columns (the probes of the round-end stage,
        the exchange guards and the lineage dedup)."""
        work = (token, fsql.kind.fired)
        if token is not None and work in self._schema_ready:
            return
        self.ensure_stored_schema(catalog, mappings, token)
        for name, columns, _filled in fsql.work_tables(catalog):
            self._create_table(name, columns)
            if columns and name.startswith(fsql.kind.indexed):
                self._create_index("__ix_" + name, name, columns)
        for relation, positions in fsql.indexes:
            if relation in catalog:
                names = catalog[relation].attribute_names
                self._create_index(
                    f"__ix_{relation}__{'_'.join(str(p) for p in positions)}",
                    relation,
                    tuple(names[p] for p in positions),
                )
        self.connection.commit()
        if token is not None:
            self._schema_ready.add(work)

    def _create_index(
        self, name: str, table: str, columns: tuple[str, ...]
    ) -> None:
        cols = ", ".join(_q(c) for c in columns)
        self.connection.execute(
            f"CREATE INDEX IF NOT EXISTS {_q(name)} ON {_q(table)} ({cols})"
        )

    def reset_work_tables(self, catalog: Catalog, fsql: FixpointSQL) -> None:
        """Empty every work table a run of *fsql* may fill (the
        candidate stages of relations no follow-up fills stay empty
        by construction and are skipped); the caller owns the
        transaction."""
        for name, _columns, filled in fsql.work_tables(catalog):
            if filled:
                self.connection.execute(f"DELETE FROM {_q(name)}")

    @contextmanager
    def work_tables(
        self,
        catalog: Catalog,
        mappings: TMapping[str, SchemaMapping],
        fsql: FixpointSQL,
        token: str,
    ) -> Iterator[None]:
        """Ensure and empty *fsql*'s work tables around one run, and
        empty them again afterwards, win or lose: live sets and
        ancestor closures can rival the instance in size and must not
        linger on disk."""
        self.ensure_schema(catalog, mappings, fsql, token)
        with self.connection:
            self.reset_work_tables(catalog, fsql)
        try:
            yield
        finally:
            with self.connection:
                self.reset_work_tables(catalog, fsql)

    def ship_local_rows(
        self, catalog: Catalog, pending: TMapping[str, set[Row]]
    ) -> dict[str, list[tuple[object, ...]]]:
        """Insert the *pending* local rows into their ``R_l`` tables,
        inside the caller's run transaction: the rows become the
        store's only when the whole run commits, so the caller empties
        *pending* (and moves the count cache) after the commit.
        Relations go in catalog order, rows sorted by ``repr``
        (deterministic even for rows mixing value types that do not
        compare).  Returns the encoded rows per relation, for the
        caller's delta seed."""
        shipped: dict[str, list[tuple[object, ...]]] = {}
        for name in catalog.names():
            rows = pending.get(name)
            if not rows:
                continue
            encoded = [
                self.codec.encode_row(row) for row in sorted(rows, key=repr)
            ]
            placeholders = ", ".join("?" for _ in encoded[0])
            self.connection.executemany(
                f"INSERT INTO {_q(name)} VALUES ({placeholders})", encoded
            )
            shipped[name] = encoded
        return shipped

    def cached_count(self, relation: str) -> int:
        """Rows in *relation*, from the count cache kept current by
        :meth:`note_rows_added` and :meth:`note_rows_removed` — one
        COUNT(*) scan per relation per store lifetime, after which
        incremental exchanges never rescan (resident mode's tables may
        hold working sets far larger than memory)."""
        count = self._row_counts.get(relation)
        if count is None:
            count = self._row_counts[relation] = self.count(relation)
        return count

    def note_rows_added(self, relation: str, added: int) -> None:
        """Advance the count cache for rows the engine just published
        into *relation* (no-op for relations never counted)."""
        if relation in self._row_counts:
            self._row_counts[relation] += added

    def note_rows_removed(self, relation: str, removed: int) -> None:
        """Rewind the count cache for rows deletion propagation just
        killed in *relation* (no-op for relations never counted)."""
        if relation in self._row_counts:
            self._row_counts[relation] = max(
                0, self._row_counts[relation] - removed
            )

    def delete_relation_rows(
        self, schema: RelationSchema, rows: Sequence[Row]
    ) -> list[bool]:
        """Delete *rows* from *schema*'s table (deletion-victim
        marking) in one transaction, keeping the count cache current;
        returns, per row, whether the store held it.

        When the maintained reachability index is current and covers
        the relation, the victims' incident fires are removed in the
        same transaction and their heads recorded as roots of the
        pending cone (``docs/graph-index.md``), with one epoch bump for
        the batch — so the index stays *current* across targeted
        resident deletions: queries issued before
        ``propagate_deletions`` answer from it without a rebuild, over
        exactly the store the unindexed paths would see.  A deletion
        the index cannot follow removes the roots marker instead, so
        the next propagation runs the full fixpoint.
        """
        condition = " AND ".join(
            f"{_q(c)} IS ?" for c in schema.attribute_names
        )
        sql = f"DELETE FROM {_q(schema.name)} WHERE {condition} RETURNING rowid"
        found: list[bool] = []
        rowids: list[int] = []
        with self.connection:
            for row in rows:
                deleted = [
                    int(rowid)
                    for (rowid,) in self.connection.execute(
                        sql, self.codec.encode_row(row)
                    )
                ]
                found.append(bool(deleted))
                rowids += deleted
            if rowids:
                index = self.reach_index
                if index.maintains(schema.name):
                    index.on_rows_deleted(schema.name, rowids)
                else:
                    index.set_roots_complete(False)
        if rowids:
            self.note_rows_removed(schema.name, len(rowids))
        return found

    def delete_relation_row(self, schema: RelationSchema, row: Row) -> bool:
        """:meth:`delete_relation_rows` for one row."""
        return self.delete_relation_rows(schema, [row])[0]

    def relation_rows(self, schema: RelationSchema) -> set[Row]:
        """Decode the store's extension of one relation (tests and
        resident-mode readers).  Works on a store reopened by path:
        labeled nulls are rebuilt from their self-describing
        encodings."""
        cursor = self.connection.execute(f"SELECT * FROM {_q(schema.name)}")
        return {self.codec.decode_row(row, schema) for row in cursor}

    def has_table(self, name: str) -> bool:
        if name in self._known_tables:
            return True
        # A store reopened by path holds tables this connection never
        # created; consult the catalog so e.g. P_m garbage collection
        # still finds them.
        row = self.connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = ?",
            (name,),
        ).fetchone()
        if row:
            self._known_tables.add(name)
        return row is not None

    # -- small helpers ------------------------------------------------------

    def max_rowid(self, table: str) -> int:
        (value,) = self.connection.execute(
            f"SELECT COALESCE(MAX(rowid), 0) FROM {_q(table)}"
        ).fetchone()
        return int(value)

    def count(self, table: str) -> int:
        (value,) = self.connection.execute(
            f"SELECT COUNT(*) FROM {_q(table)}"
        ).fetchone()
        return int(value)

    def close(self) -> None:
        if not self.closed:
            self.connection.close()
            self.closed = True

    def __enter__(self) -> "ExchangeStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return f"<ExchangeStore path={self.path!r} {state}>"


def seed_rows(
    store: ExchangeStore,
    kind: Fixpoint,
    relation: str,
    rows: "Sequence[Sequence[object]] | None" = None,
) -> int:
    """Stage seed rows of *relation* for a run of *kind*: into its
    delta, and into its target set when that is a work table.  ``rows``
    are encoded rows; None seeds the relation's whole stored extension
    in SQL (no decode round-trip).  Returns the number of rows seeded;
    the caller supplies the transaction."""
    conn = store.connection
    tables = [kind.delta + relation]
    if kind.target:
        tables.insert(0, kind.target + relation)
    if rows is None:
        for table in tables:
            seeded = conn.execute(
                f"INSERT INTO {_q(table)} SELECT * FROM {_q(relation)}"
            ).rowcount
        return max(seeded, 0)
    if rows:
        placeholders = ", ".join("?" for _ in rows[0])
        for table in tables:
            conn.executemany(
                f"INSERT INTO {_q(table)} VALUES ({placeholders})", rows
            )
    return len(rows)


def _span(tracer: "Tracer | NullTracer", name: str | None):
    """*tracer*'s span *name*, or the no-op span where the instance
    emits none."""
    return tracer.span(name) if name else NULL_TRACER.span("")


def run_fixpoint(
    store: ExchangeStore,
    fsql: FixpointSQL,
    deltas: dict[str, int],
    rules: Sequence[FixpointRule] | None = None,
    sizes: dict[str, int] | None = None,
    max_iterations: int | None = None,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
) -> tuple[int, int, dict[str, int]]:
    """Run semi-naive rounds of *fsql* to its fixpoint — the one SQL
    round loop behind exchange, deletion liveness and the unindexed
    graph queries.

    The caller has emptied the work tables and seeded them
    (:func:`seed_rows`); *deltas* counts the seed rows per relation.
    ``rules`` restricts the run to a subset of the program (trust
    leaves distrusted mappings out).  ``sizes`` holds the target
    relations' row counts — only the exchange guards read it, and it is
    kept current; by default the targets hold exactly the seeds.

    Bookkeeping follows what fired: a rule takes its watermark and runs
    its follow-ups only in rounds where one of its triggers ran, only
    relations that received candidates are staged, and only non-empty
    deltas are cleared; row counts come from the statements' own
    ``rowcount``.  Each round runs under the instance's round span; the
    caller owns the transaction (an exchange commits once, with its
    index maintenance).

    Returns ``(rounds, firings, rows added per target relation)``.
    """
    kind = fsql.kind
    conn = store.connection
    rules = fsql.rules if rules is None else rules
    sizes = dict(deltas) if sizes is None else sizes
    iteration = firings = 0
    added: dict[str, int] = {}
    while any(deltas.get(t.relation) for rule in rules for t in rule.triggers):
        iteration += 1
        if max_iterations is not None and iteration > max_iterations:
            raise EvaluationError(
                f"{kind.label} did not converge within {max_iterations} "
                "iterations"
            )
        with tracer.span(kind.round_span) as round_span:
            fresh: list[tuple[FixpointRule, int]] = []
            round_firings = 0
            for rule in rules:
                triggers = [
                    t
                    for t in rule.triggers
                    if deltas.get(t.relation)
                    and not any(
                        0 < deltas.get(r, 0) == sizes.get(r, 0)
                        for r in t.guarded
                    )
                ]
                if not triggers:
                    continue
                watermark = store.max_rowid(rule.fired)
                fired = 0
                for trigger in triggers:
                    sql = trigger.statement.sql
                    with _span(tracer, kind.statement_span) as sspan:
                        cursor = conn.execute(sql, trigger.statement.params)
                        if sspan.open:
                            sspan.set("rule", rule.name).set(
                                "phase", "firing"
                            ).set("fingerprint", statement_fingerprint(sql))
                    fired += max(cursor.rowcount, 0)
                if fired:
                    fresh.append((rule, watermark))
                    round_firings += fired
            with _span(tracer, kind.publish_span) as pspan:
                filled: set[str] = set()
                for rule, watermark in fresh:
                    for relation, statement in rule.follow_ups:
                        cursor = conn.execute(
                            statement.sql, {**statement.params, "wm": watermark}
                        )
                        if relation is not None and cursor.rowcount > 0:
                            filled.add(relation)
                # Stages are independent per relation.  Running them all
                # before any delta is cleared or row moved fixes the
                # order in which a round allocates and frees pages,
                # which the store file's size depends on.
                staged = {
                    relation: conn.execute(fsql.stages[relation]).rowcount
                    for relation in fsql.relations
                    if relation in filled
                }
                for relation in fsql.relations:
                    if deltas.get(relation):
                        conn.execute(f"DELETE FROM {_q(kind.delta + relation)}")
                new_deltas: dict[str, int] = {}
                for relation, count in staged.items():
                    if count > 0:
                        new = _q(kind.new + relation)
                        conn.execute(
                            f"INSERT INTO {_q(kind.target + relation)} "
                            f"SELECT * FROM {new}"
                        )
                        conn.execute(
                            f"INSERT INTO {_q(kind.delta + relation)} "
                            f"SELECT * FROM {new}"
                        )
                        conn.execute(f"DELETE FROM {new}")
                        new_deltas[relation] = count
                        sizes[relation] = sizes.get(relation, 0) + count
                        added[relation] = added.get(relation, 0) + count
                    conn.execute(f"DELETE FROM {_q(kind.cand + relation)}")
                pspan.set("inserted", sum(new_deltas.values()))
            round_span.set("round", iteration).set("firings", round_firings)
        firings += round_firings
        deltas = new_deltas
    return iteration, firings, added


class SQLiteExchangeEngine:
    """Runs compiled exchange programs set-at-a-time over a store."""

    def __init__(
        self,
        store: ExchangeStore,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ):
        if store.closed:
            raise ExchangeError("exchange store is closed")
        self.store = store
        #: lifecycle tracer (:mod:`repro.obs`); the default no-op
        #: tracer keeps every round statement-hook-free.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def run(
        self,
        program: CompiledExchangeProgram,
        catalog: Catalog,
        mappings: TMapping[str, SchemaMapping],
        instance: Instance,
        pending: TMapping[str, set[Row]],
        incremental: bool = False,
        max_iterations: int | None = None,
    ) -> EvaluationResult:
        """Semi-naive SQL fixpoint over the store, in one transaction.

        Ships the *pending* local rows — the ones the store has not
        seen — into their ``R_l`` tables
        (:meth:`ExchangeStore.ship_local_rows`).  An *incremental* run
        then seeds its delta with exactly those rows, as
        :func:`repro.datalog.evaluation.evaluate` seeds its
        ``initial_delta``; otherwise the run seeds from the whole
        store.  The rounds and the reachability index's maintenance
        follow, and everything commits together: a run that raises
        leaves the store exactly as it was, its index current at the
        old epoch, and *pending* untouched — the caller empties it
        after this returns.

        The store is the authoritative home of every derived relation:
        neither derived tuples nor provenance derivations are
        materialized in Python (firings and ``P_m`` rows stay
        relational), so the working set never has to fit in memory.
        *instance* only labels the returned result.
        """
        store = self.store
        if program.sql is None:
            program.sql = lower_program(
                program.compiled, catalog, mappings, store.codec
            )
        sql = program.sql
        if program.reach is None:
            program.reach = lower_reach_program(
                program.compiled, catalog, store.codec
            )
        store.ensure_durable()
        store.ensure_schema(catalog, mappings, sql, program.fingerprint)
        index = store.reach_index
        index.ensure_schema(program.reach)
        # Whether the index matched the store before this run: the
        # incremental logs are then exactly the new firings.
        was_current = index.current
        with StatementTrace(store.connection, self.tracer) as stmt_trace:
            with store.connection:
                store.reset_work_tables(catalog, sql)
                result, shipped, added = self._ship_and_run(
                    sql, catalog, instance, pending, incremental,
                    max_iterations, stmt_trace,
                )
                index.on_run_complete(
                    program.reach,
                    full_log=not incremental,
                    was_current=was_current,
                    tracer=self.tracer,
                )
        # Committed: only now does the count cache move.
        for relation, rows in shipped.items():
            store.note_rows_added(relation, len(rows))
        for relation, count in added.items():
            store.note_rows_added(relation, count)
        return result

    def _ship_and_run(
        self,
        sql: FixpointSQL,
        catalog: Catalog,
        instance: Instance,
        pending: TMapping[str, set[Row]],
        incremental: bool,
        max_iterations: int | None,
        stmt_trace: StatementTrace,
    ) -> tuple[
        EvaluationResult, dict[str, list[tuple[object, ...]]], dict[str, int]
    ]:
        tracer = self.tracer
        store = self.store
        result = EvaluationResult(instance, ProvenanceGraph(), engine="sqlite")
        # Derived relations live in the store alone, so their sizes
        # come from its count cache, never a rescan — read before the
        # shipping, which the cache learns of only at the commit.
        rel_counts = {
            relation: store.cached_count(relation)
            for relation in sql.relations
        }
        with tracer.span("exchange.mirror") as mspan:
            shipped = store.ship_local_rows(catalog, pending)
            result.rows_mirrored = sum(len(rows) for rows in shipped.values())
            result.relations_synced = len(shipped)
            mspan.set("rows", result.rows_mirrored).set(
                "relations", result.relations_synced
            )
        for relation, rows in shipped.items():
            if relation in rel_counts:
                rel_counts[relation] += len(rows)
        result.iterations, result.firings, added = run_fixpoint(
            store,
            sql,
            self._seed_deltas(sql, shipped if incremental else None),
            sizes=rel_counts,
            max_iterations=max_iterations,
            tracer=tracer,
        )
        stmt_trace.add_rows(result.firings)
        result.inserted = sum(added.values())
        return result, shipped, added

    def propagate_deletions(
        self,
        program: CompiledExchangeProgram,
        catalog: Catalog,
        mappings: TMapping[str, SchemaMapping],
        instance: Instance,
        reinserted: TMapping[str, set[Row]],
        max_iterations: int | None = None,
    ) -> EvaluationResult:
        """Relational deletion propagation (Q5) inside the store.

        Runs after deletion victims were removed from the ``R_l``
        tables (:meth:`ExchangeStore.delete_relation_rows`, which also
        recorded the heads of their pruned fires as roots) and writes
        no ``R_l`` row itself.  Two paths compute the same dead set,
        chosen by what the store shows:

        * **cone** — when the roots marker is set, the index is current,
          *reinserted* is empty and the program's ``P_m`` collection
          can match dead tuples (:class:`~repro.exchange.reach_index.ConeSQL`).
          Before the deletions every stored tuple was derivable, so a
          tuple outside the roots' forward cone keeps a derivation that
          avoids every victim.  One recursive CTE loads the cone and
          the fires heading its nodes; the liveness worklist
          (:func:`~repro.exchange.index_reads.liveness_over_edges`)
          runs over them with every body node outside the cone as a
          seed, and the dead set is the cone minus the live set.  The
          cost follows the cone, not the store.
        * **full** — otherwise: the DERIVABILITY test re-runs over the
          whole firing history as the ``LIVENESS`` instance of
          :func:`run_fixpoint`.  The live set starts from the stored
          ``R_l`` rows plus *reinserted*: pending local rows that were
          exchanged, deleted from the store and inserted again, with no
          propagation in between at which they were absent.  The
          memory engine's graph still holds them as live leaves; other
          pending rows seed nothing, since the memory engine never
          recorded their firings either.  Because liveness is the
          *least* fixpoint, cyclically self-supporting derivations
          with no surviving base die too, matching the graph engine's
          Kleene iteration.

        Either way unsupported rows are deleted set-at-a-time, the dead
        ``P_m`` rows garbage-collected, the index pruned and the roots
        cleared, in one transaction.  The roots marker is set
        afterwards — unless *reinserted* was non-empty: the store then
        keeps tuples that only a pending row supports, and the next
        propagation must run the full fixpoint again.

        Returns an :class:`EvaluationResult` with ``rows_deleted`` /
        ``pm_rows_collected`` / ``iterations`` filled in.  Nothing is
        materialized in Python beyond the cone — the working set stays
        out-of-core.
        """
        store = self.store
        index = store.reach_index
        if program.cone is None:
            program.cone = lower_cone_program(mappings, catalog, store.codec)
        cone_path = (
            not any(reinserted.values())
            and program.cone.exact
            and index.current
            and index.roots_complete
        )
        result = EvaluationResult(instance, ProvenanceGraph(), engine="sqlite")
        if cone_path:
            removed_counts = self._propagate_cone(program, catalog, result)
        else:
            removed_counts = self._propagate_full(
                program, catalog, mappings, reinserted, max_iterations, result
            )
        # The count cache moves only after the kill transaction commits
        # (a rollback must leave it describing the uncut tables).
        for relation, removed in removed_counts.items():
            store.note_rows_removed(relation, removed)
        result.rows_deleted = sum(removed_counts.values())
        return result

    def _propagate_cone(
        self,
        program: CompiledExchangeProgram,
        catalog: Catalog,
        result: EvaluationResult,
    ) -> dict[str, int]:
        """The cone path of :meth:`propagate_deletions`."""
        store = self.store
        conn = store.connection
        index = store.reach_index
        with self.tracer.span("deletion.fixpoint") as fspan:
            cone, edges = load_cone(conn)
            live, result.pm_rows_scanned = liveness_over_edges(
                edges, [node for node in edges.incident if node not in cone]
            )
            dead = sorted(cone - live)
            result.iterations = 1
            fspan.set("path", "cone").set("cone", len(cone)).set(
                "rounds", 1
            ).set("firings", result.pm_rows_scanned)
        removed_counts: dict[str, int] = {}
        if not cone:
            return removed_counts
        names = {relno: name for name, relno in load_relnos(conn).items()}
        dead_relations: dict[str, int] = {}
        for node in dead:
            relno = node // REL_SHIFT
            dead_relations.setdefault(names[relno], relno * REL_SHIFT)
        with self.tracer.span("deletion.kill") as kspan, conn:
            if dead:
                conn.execute('DELETE FROM "__rq_dead"')
                conn.executemany(
                    'INSERT INTO "__rq_dead" VALUES (?)',
                    [(node,) for node in dead],
                )
                # P_m candidates first: matching needs the dead rows.
                collects = program.cone.collects
                for collect in collects:
                    for relation, statement in collect.candidates:
                        base = dead_relations.get(relation)
                        if base is not None:
                            conn.execute(
                                statement.sql,
                                {
                                    **statement.params,
                                    "base": base,
                                    "top": base + REL_SHIFT,
                                },
                            )
                for relation, base in dead_relations.items():
                    removed = conn.execute(
                        f"DELETE FROM {_q(relation)} WHERE rowid IN "
                        '(SELECT id - :base FROM "__rq_dead" '
                        "WHERE id >= :base AND id < :top)",
                        {"base": base, "top": base + REL_SHIFT},
                    ).rowcount
                    if removed > 0:
                        removed_counts[relation] = removed
                for collect in collects:
                    result.pm_rows_collected += max(
                        conn.execute(
                            collect.collect.sql, collect.collect.params
                        ).rowcount,
                        0,
                    )
                conn.execute(f"DELETE FROM {_q(PM_CANDIDATES)}")
                index.finish_prune()
            self._settle_roots(complete=True)
            kspan.set("rows_deleted", sum(removed_counts.values())).set(
                "pm_rows_collected", result.pm_rows_collected
            )
        return removed_counts

    def _propagate_full(
        self,
        program: CompiledExchangeProgram,
        catalog: Catalog,
        mappings: TMapping[str, SchemaMapping],
        reinserted: TMapping[str, set[Row]],
        max_iterations: int | None,
        result: EvaluationResult,
    ) -> dict[str, int]:
        """The full path of :meth:`propagate_deletions`: the liveness
        fixpoint and the kill sweeps, in one transaction."""
        if program.derivability is None:
            program.derivability = lower_derivability_program(
                program.compiled, catalog, mappings, self.store.codec
            )
        fsql = program.derivability
        store = self.store
        conn = store.connection
        tracer = self.tracer
        index = store.reach_index
        prune = index.current
        removed_counts: dict[str, int] = {}
        with store.work_tables(catalog, mappings, fsql, program.fingerprint), conn:
            with tracer.span("deletion.fixpoint") as fspan:
                seeds = {
                    relation: seed_rows(store, LIVENESS, relation)
                    for relation in fsql.edb_relations
                }
                for relation, rows in reinserted.items():
                    seeds[relation] += seed_rows(
                        store,
                        LIVENESS,
                        relation,
                        [
                            store.codec.encode_row(row)
                            for row in sorted(rows, key=repr)
                        ],
                    )
                result.iterations, result.pm_rows_scanned, _ = run_fixpoint(
                    store, fsql, seeds, max_iterations=max_iterations,
                    tracer=tracer,
                )
                fspan.set("path", "full").set(
                    "rounds", result.iterations
                ).set("firings", result.pm_rows_scanned)
            # Kill phase: unsupported rows die, dead P_m firing-history
            # rows are garbage-collected alongside.
            with tracer.span("deletion.kill") as kspan:
                if prune:
                    # Capture the dying derived rows (by node id) while
                    # they are still present; the index prunes exactly
                    # their incident fires after the sweeps.  Leaf
                    # victims were already cleaned per-delete.
                    index.begin_prune([r for r, _sql in fsql.kills], catalog)
                for relation, kill in fsql.kills:
                    removed = max(conn.execute(kill).rowcount, 0)
                    if removed:
                        removed_counts[relation] = removed
                for _table, _columns, collect in fsql.projections:
                    result.pm_rows_collected += max(
                        conn.execute(collect).rowcount, 0
                    )
                if prune:
                    index.finish_prune()
                self._settle_roots(complete=not any(reinserted.values()))
                kspan.set(
                    "rows_deleted", sum(removed_counts.values())
                ).set("pm_rows_collected", result.pm_rows_collected)
        return removed_counts

    def _settle_roots(self, complete: bool) -> None:
        """End of a propagation, inside its kill transaction: no
        deletion is pending any more, and the marker says whether every
        stored tuple is derivable again."""
        self.store.connection.execute(f"DELETE FROM {_q(ROOT_TABLE)}")
        self.store.reach_index.set_roots_complete(complete)

    # -- internals ---------------------------------------------------------

    def _seed_deltas(
        self,
        sql: FixpointSQL,
        rows: TMapping[str, Sequence[Sequence[object]]] | None,
    ) -> dict[str, int]:
        """Seed the exchange delta: with the encoded *rows* per
        relation, or — None — with the whole store (inside the run's
        transaction)."""
        store = self.store
        if rows is None:
            return {
                relation: seed_rows(store, EXCHANGE, relation)
                for relation in sql.relations
            }
        return {
            relation: seed_rows(store, EXCHANGE, relation, encoded)
            for relation, encoded in rows.items()
            if relation in sql.relations
        }
