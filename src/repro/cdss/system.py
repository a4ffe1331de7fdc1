"""The CDSS itself: peers + mappings + update exchange (Section 2).

:class:`CDSS` assembles the full data-exchange substrate the paper's
storage and query layers sit on:

* a catalog of every public relation and its local-contribution table;
* auto-generated local rules ``L_R: R(x̄) :- R_l(x̄)`` (Example 2.1's
  L1–L4), so base data appears in the provenance graph as leaf tuples;
* **update exchange**: (incremental) semi-naive materialization of all
  peers' instances, recording the provenance graph;
* **deletion propagation** (use case Q5): after local deletions,
  re-derive derivability from the remaining leaves and garbage-collect
  tuples (and derivations) that are no longer supported — provenance
  makes this a graph computation instead of a view recomputation.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.cdss.mapping import SchemaMapping
from repro.cdss.peer import Peer
from repro.cdss.trust import TrustPolicy
from repro.datalog.evaluation import EvaluationResult, evaluate
from repro.datalog.parser import parse_rule
from repro.datalog.rules import Program, Rule
from repro.errors import ExchangeError, SchemaError, StorageError
from repro.exchange.cache import ProgramCache
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import as_tracer
from repro.provenance.annotate import annotate, derivability_partition
from repro.provenance.graph import ProvenanceGraph, TupleNode
from repro.relational.instance import Catalog, Instance, Row
from repro.relational.schema import RelationSchema, is_local_name, local_name
from repro.semirings.registry import get_semiring

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import Callable

    from repro.analysis import Report
    from repro.exchange.cache import CompiledExchangeProgram
    from repro.exchange.graph_queries import StoreGraphQueries
    from repro.exchange.sql_executor import ExchangeStore
    from repro.obs.trace import NullTracer, Tracer
    from repro.proql.graph_engine import ProQLResult
    from repro.proql.pruning import UnfoldCache
    from repro.serve import ReaderSession, StoreServer

#: EvaluationResult fields mirrored into the metrics registry after
#: every lifecycle call (prefixed with the call kind: ``exchange.*``,
#: ``deletion.*``, ``graph_query.*``).
_METRIC_FIELDS = (
    "iterations",
    "firings",
    "inserted",
    "plans_compiled",
    "index_hits",
    "dedup_skipped",
    "rows_mirrored",
    "relations_synced",
    "rows_deleted",
    "pm_rows_collected",
    "pm_rows_scanned",
    "index_hit",
    "index_miss",
)


def local_rule_name(relation: str) -> str:
    """Name of the auto-generated local-contribution rule for *relation*."""
    return f"L_{relation}"


class CDSS:
    """A collaborative data sharing system instance."""

    def __init__(
        self,
        peers: Iterable[Peer] = (),
        trace: "Tracer | NullTracer | str | os.PathLike | None" = None,
    ):
        #: lifecycle tracer (:mod:`repro.obs`): ``None`` disables
        #: tracing (the zero-overhead default); pass a
        #: :class:`~repro.obs.trace.Tracer` or a JSONL path to opt in.
        self.tracer = as_tracer(trace)
        #: cumulative counters every lifecycle call reports into — the
        #: single source behind :attr:`exchange_seconds` and friends
        #: (``cdss.metrics.snapshot()`` for the full picture).
        self.metrics = MetricsRegistry()
        self.peers: dict[str, Peer] = {}
        self.mappings: dict[str, SchemaMapping] = {}
        self.catalog = Catalog()
        self._local_rules: dict[str, Rule] = {}
        self.instance = Instance(self.catalog)
        self.graph = ProvenanceGraph()
        #: local rows the next exchange must process: on the sqlite
        #: engine, exactly the local rows its store has not seen.
        self._pending: dict[str, set[Row]] = {}
        #: sqlite engine: local rows :meth:`delete_local` removed from
        #: the store whose leaves the memory engine's graph would still
        #: hold — removed since the last :meth:`propagate_deletions`,
        #: or pending again at every propagation since.  Such a row,
        #: once inserted again, is a live leaf there although the store
        #: lacks it.
        self._removed_leaves: dict[str, set[Row]] = {}
        self._exchanged_once = False
        #: engine statistics of the most recent :meth:`exchange`.
        self.last_exchange: EvaluationResult | None = None
        #: statistics of the most recent :meth:`propagate_deletions`
        #: (``rows_deleted`` / ``pm_rows_collected`` / ``engine``).
        self.last_deletion: EvaluationResult | None = None
        #: statistics of the most recent graph query (:meth:`lineage`,
        #: :meth:`derivability`, :meth:`trusted`): which engine
        #: answered it, and — for the store engine — ``iterations`` and
        #: ``pm_rows_scanned`` of the relational walk.
        self.last_graph_query: EvaluationResult | None = None
        #: report of the most recent ``exchange(validate=...)``
        #: pre-flight (None until one runs).
        self.last_validation: "Report | None" = None
        #: compiled-program cache shared by both exchange engines;
        #: invalidated whenever the mapping program can change.
        self.plan_cache = ProgramCache()
        #: (invalidation counter, entry) memo over
        #: :meth:`_fetch_program`, so warm graph queries skip both the
        #: program rebuild and its fingerprint hash.
        self._program_memo: "tuple[int, CompiledExchangeProgram] | None" = None
        #: lazily created unfolded-ProQL-program cache (see
        #: :attr:`unfold_cache`); None until the first query needs it.
        self._unfold_cache: "UnfoldCache | None" = None
        #: the authoritative store of a sqlite-engine system, pinned by
        #: its first exchange (None for a memory-engine system).
        self.exchange_store: "ExchangeStore | None" = None
        for peer in peers:
            self.add_peer(peer)

    @property
    def resident(self) -> bool:
        """True once this system exchanges on the sqlite engine: its
        pinned :attr:`exchange_store` holds the only copy of the derived
        relations and the firing history."""
        return self.exchange_store is not None

    @property
    def exchange_seconds(self) -> float:
        """Cumulative wall-clock seconds spent in update exchange.

        Reads the ``exchange.seconds`` metrics counter — the per-call
        complement is ``last_exchange.wall_seconds``.
        """
        return self.metrics.value("exchange.seconds")

    def _record_result(self, kind: str, result: EvaluationResult) -> None:
        """Mirror one lifecycle result into the metrics registry.

        Every non-zero stat field lands as a ``<kind>.<field>``
        counter, plus ``<kind>.calls`` and ``<kind>.seconds`` — the
        cumulative views (:attr:`exchange_seconds` included) all read
        from here.
        """
        metrics = self.metrics
        metrics.add(f"{kind}.calls")
        metrics.add(f"{kind}.seconds", result.wall_seconds)
        for field in _METRIC_FIELDS:
            value = getattr(result, field)
            if value:
                metrics.add(f"{kind}.{field}", value)

    # -- construction ------------------------------------------------------------

    def add_peer(self, peer: Peer) -> Peer:
        """Register a peer and its relations (plus their
        local-contribution twins and ``L_R`` rules).

        Engine-independent: works identically on the sqlite engine —
        the new relations' tables are created in the store by the next
        exchange.  Invalidates the compiled-program cache.
        """
        if peer.name in self.peers:
            raise SchemaError(f"duplicate peer {peer.name}")
        self.peers[peer.name] = peer
        for schema in peer.relations:
            self._register_relation(schema)
        self.plan_cache.invalidate()
        if self._unfold_cache is not None:
            self._unfold_cache.invalidate()
        return peer

    def _register_relation(self, schema: RelationSchema) -> None:
        self.catalog.add(schema)
        self.catalog.add(schema.local_contribution())
        terms = ", ".join(schema.attribute_names)
        rule = parse_rule(
            f"{local_rule_name(schema.name)}: "
            f"{schema.name}({terms}) :- {local_name(schema.name)}({terms})"
        )
        self._local_rules[schema.name] = rule
        # The instance tracks catalog growth lazily; rebuild its view.
        self.instance.catalog = self.catalog

    def add_mapping(self, text_or_mapping: str | SchemaMapping, name: str | None = None) -> SchemaMapping:
        """Register a mapping given as rule text or a SchemaMapping.

        Engine-independent (works identically on the sqlite engine);
        the mapping's ``P_m`` provenance relation is created by the
        next exchange.  Invalidates the compiled-program cache.
        """
        if isinstance(text_or_mapping, SchemaMapping):
            mapping = text_or_mapping
        else:
            default = name or f"m{len(self.mappings) + 1}"
            mapping = SchemaMapping.parse(text_or_mapping, self.catalog, default)
        if mapping.name in self.mappings:
            raise SchemaError(f"duplicate mapping name {mapping.name}")
        for atom in mapping.body + mapping.head:
            if atom.relation not in self.catalog:
                raise SchemaError(
                    f"mapping {mapping.name}: unknown relation "
                    f"{atom.relation}"
                )
            if atom.arity != self.catalog[atom.relation].arity:
                raise SchemaError(
                    f"mapping {mapping.name}: atom {atom} does not match the "
                    f"arity of {atom.relation}"
                )
        self.mappings[mapping.name] = mapping
        self.plan_cache.invalidate()
        if self._unfold_cache is not None:
            self._unfold_cache.invalidate()
        return mapping

    def add_mappings(self, texts: Iterable[str]) -> list[SchemaMapping]:
        """Register several mappings (see :meth:`add_mapping`;
        engine-independent, sqlite engine included)."""
        return [self.add_mapping(text) for text in texts]

    # -- programs ------------------------------------------------------------

    def local_rules(self) -> list[Rule]:
        """The auto-generated local-contribution rules ``L_R``
        (engine-independent metadata; safe in any mode)."""
        return list(self._local_rules.values())

    def program(self) -> Program:
        """Local-contribution rules + all schema mappings
        (engine-independent metadata; safe in any mode)."""
        return Program(self.local_rules() + [m.rule for m in self.mappings.values()])

    def _fetch_program(self) -> "CompiledExchangeProgram":
        """The compiled exchange program, memoized against the plan
        cache's invalidation counter: warm graph queries (the indexed
        sub-millisecond path) must not rebuild and re-hash the rule
        list on every call."""
        memo = self._program_memo
        if memo is not None and memo[0] == self.plan_cache.invalidations:
            return memo[1]
        entry, _ = self.plan_cache.fetch(self.program())
        self._program_memo = (self.plan_cache.invalidations, entry)
        return entry

    # -- data ------------------------------------------------------------

    def insert_local(self, relation: str, row: Sequence[object]) -> bool:
        """Queue a local insertion into *relation*'s contribution table.

        Works on both engines.  The row is *pending* until the next
        exchange.  On the sqlite engine the store does not hold it
        until that exchange ships it, so until then it is invisible to
        graph queries, exactly as it is absent from a memory-engine
        system's graph.

        Float NaNs in *row* are canonicalized to the system's single
        NaN object (:data:`~repro.storage.encoding.CANONICAL_NAN`), so
        NaN joins identically on both engines — by value, not IEEE
        ``nan != nan`` (see ``docs/architecture.md``).
        """
        # Local import: repro.storage's package init imports CDSS back.
        from repro.storage.encoding import canonical_row

        if relation not in self.catalog:
            raise SchemaError(f"unknown relation {relation}")
        target = relation if is_local_name(relation) else local_name(relation)
        row = canonical_row(row)
        if self.instance.insert(target, row):
            self._pending.setdefault(target, set()).add(row)
            return True
        return False

    def insert_local_many(
        self, relation: str, rows: Iterable[Sequence[object]]
    ) -> int:
        """Queue a batch of local insertions (see :meth:`insert_local`;
        works in every mode, resident included)."""
        return sum(self.insert_local(relation, row) for row in rows)

    def exchange(
        self,
        engine: str | None = None,
        storage: "ExchangeStore | str | os.PathLike | None" = None,
        resident: bool | None = None,
        validate: str = "off",
    ) -> EvaluationResult:
        """Run (incremental) update exchange.

        The first call materializes everything; later calls seed the
        semi-naive evaluation with only the pending local insertions,
        so unchanged derivations are not re-fired.

        ``engine`` selects where the exchanged instance lives, for the
        system's whole life: ``"memory"`` (the default of a fresh
        system) runs compiled join plans over in-memory hash indexes
        and keeps the instance and provenance graph in Python;
        ``"sqlite"`` runs whole delta batches as set-oriented SQL
        statements (:mod:`repro.exchange.sql_executor`) inside an
        :class:`~repro.exchange.sql_executor.ExchangeStore`, which is
        the *authoritative* instance.  ``storage`` (sqlite engine only)
        names that store — an object, a filesystem path for instances
        larger than memory, or None for a ``:memory:`` store.  Both
        engines share the compiled-program cache (:attr:`plan_cache`):
        repeated exchanges over an unchanged program compile zero plans
        (``plans_compiled == 0``).  ``resident`` selects nothing: None
        follows ``engine``, and a value contradicting it raises
        :class:`ExchangeError`.

        **The sqlite engine.** Derived tuples and provenance
        derivations are never materialized in Python — the instance
        holds only local contributions, so working sets may exceed
        memory.  Each exchange ships exactly the pending local rows into
        the store (``rows_mirrored``/``relations_synced``; a repeat
        exchange with nothing pending reports ``rows_mirrored == 0``).
        The first exchange onto a store that already holds local rows
        ships only the rows the store lacks; if the store holds a local
        row this system does not have, it raises
        :class:`~repro.errors.StorageError` naming the relation, and
        neither the store nor the system changes.  The store is pinned
        by the first exchange: a later call that leaves
        ``engine``/``storage`` unspecified continues on it, another
        engine or another store raises :class:`ExchangeError`, and so
        does a memory-engine system asking for the sqlite engine — and
        :meth:`instance_size` counts store rows.  A closed on-disk store is reopened by
        naming its path.  The full paper lifecycle runs relationally:
        :meth:`delete_local` marks victims in SQL,
        :meth:`propagate_deletions` runs the DERIVABILITY test as an
        iterative SQL fixpoint over the stored firing history, and the
        graph queries (:meth:`lineage`, :meth:`derivability`,
        :meth:`trusted`) are answered by joins over that same history
        (:mod:`repro.exchange.graph_queries`).  Every successful run
        also maintains the store's reachability index (under an
        ``index.maintain`` span): a full run replaces it, an incremental
        run over a *current* index extends it with just the new
        firings, and any other combination rebuilds it from the stored
        history — so the next graph query starts from a current index
        (``docs/graph-index.md``).  A run that dies mid-flight leaves
        the index marked stale; nothing is lost, the next graph query
        or run rebuilds it.

        **Pre-flight** (``validate=``): ``"warn"`` or ``"error"`` runs
        the static analyzer (:func:`repro.analysis.analyze`) over the
        mapping program before any engine work — reporting the result
        in :attr:`last_validation`, warning or raising
        :class:`~repro.errors.AnalysisError` on error diagnostics.
        The default ``"off"`` adds zero overhead.

        **Observability**: with a tracer installed (``CDSS(trace=...)``)
        the call emits an ``exchange`` span with validate/compile/round
        children (see ``docs/observability.md``).  The call's own
        duration lands on ``result.wall_seconds``; the cumulative
        :attr:`exchange_seconds` and the other ``exchange.*`` counters
        accumulate in :attr:`metrics`.
        """
        started = time.perf_counter()
        # An unspecified engine follows the one the system is pinned to.
        if engine is None:
            engine = "sqlite" if self.resident else "memory"
        on_store = engine == "sqlite"
        with self.tracer.span("exchange") as span:
            span.set("engine", engine).set("resident", on_store)
            if validate != "off":
                with self.tracer.span("exchange.validate") as vspan:
                    vspan.set("mode", validate)
                    self._validate_program(validate)
            if resident is not None and resident != on_store:
                raise ExchangeError(
                    f"resident={resident} contradicts engine={engine!r}: "
                    'the sqlite engine always keeps the authoritative '
                    "instance in its store, the memory engine never does"
                )
            if on_store != self.resident and (
                self._exchanged_once or self.resident
            ):
                raise ExchangeError(
                    "cannot switch engines mid-life: the "
                    f"{'store' if self.resident else 'Python instance'} "
                    "already holds the derived tuples; build a fresh CDSS"
                )
            with self.tracer.span("exchange.compile") as cspan:
                rules = self.program()
                program, cache_hit = self.plan_cache.fetch(rules)
                cspan.set("cache_hit", cache_hit)
            span.set("incremental", self._exchanged_once)
            if engine == "memory":
                if storage is not None:
                    raise ExchangeError(
                        'storage= applies only to engine="sqlite"; the '
                        "memory engine has no store"
                    )
                result = evaluate(
                    rules,
                    self.instance,
                    graph=self.graph,
                    initial_delta=(
                        dict(self._pending) if self._exchanged_once else None
                    ),
                    compiled_program=program,
                    tracer=self.tracer,
                )
            elif engine == "sqlite":
                from repro.exchange.sql_executor import SQLiteExchangeEngine

                store = self._resolve_store(storage)
                result = SQLiteExchangeEngine(store, tracer=self.tracer).run(
                    program,
                    self.catalog,
                    self.mappings,
                    self.instance,
                    self._pending,
                    incremental=self._exchanged_once,
                )
            else:
                raise ExchangeError(
                    f"unknown exchange engine {engine!r}; "
                    'expected "memory" or "sqlite"'
                )
            result.engine = engine
            result.plan_cache_hit = cache_hit
            result.plans_compiled = 0 if cache_hit else program.plan_count
            span.set("rounds", result.iterations).set("firings", result.firings)
        result.wall_seconds = time.perf_counter() - started
        self._record_result("exchange", result)
        self.last_exchange = result
        self._pending.clear()
        self._exchanged_once = True
        return result

    def _validate_program(self, mode: str) -> None:
        """The ``validate=`` pre-flight: run the static analyzer over
        the mapping program before the exchange fires anything."""
        if mode == "off":
            return
        if mode not in ("warn", "error"):
            raise ExchangeError(
                f"unknown validate mode {mode!r}; "
                'expected "off", "warn", or "error"'
            )
        from repro.analysis import analyze

        report = analyze(self)
        self.last_validation = report
        if mode == "error":
            report.raise_for_errors()
        elif report.diagnostics:
            warnings.warn(
                f"exchange pre-flight:\n{report}", stacklevel=3
            )

    def _resolve_store(
        self, storage: "ExchangeStore | str | os.PathLike | None"
    ) -> "ExchangeStore":
        """The ``storage=`` hook: pin the store on the first exchange
        (an explicit store, a path, or ``:memory:`` by default), then
        keep resolving to it — it holds the only copy of the derived
        tuples.  A *closed on-disk* store is reopened when its path is
        named and its file still exists."""
        from repro.exchange.sql_executor import ExchangeStore, normalize_store_path

        store = self.exchange_store
        if store is None:
            opened = not isinstance(storage, ExchangeStore)
            if opened:
                storage = ExchangeStore(":memory:" if storage is None else storage)
            try:
                self._adopt_local_rows(storage)
            except StorageError:
                if opened:
                    storage.close()
                raise
            self.exchange_store = storage
            return storage
        if storage is not None and (
            storage is not store
            if isinstance(storage, ExchangeStore)
            else normalize_store_path(storage) != store.path
        ):
            raise ExchangeError(
                f"this system is pinned to its store ({store.path!r}): it "
                "holds the only copy of the derived instance, so storage= "
                "cannot name a different store; build a fresh CDSS to "
                "start over"
            )
        if store.closed:
            if (
                isinstance(storage, (str, os.PathLike))
                and store.path != ":memory:"
                and os.path.exists(store.path)
            ):
                store = self.exchange_store = ExchangeStore(store.path)
                return store
            raise ExchangeError(
                "the store is closed and it held the only copy of the "
                "derived instance; reopen it by passing its original "
                "on-disk path as storage=, or build a fresh CDSS"
            )
        return store

    def _adopt_local_rows(self, store: "ExchangeStore") -> None:
        """Before the first exchange onto *store*: drop from the pending
        set every local row the store already holds, or raise
        :class:`StorageError` — changing nothing — when the store holds
        a local row this system does not have."""
        stored: dict[str, set[Row]] = {}
        for schema in self.catalog:
            name = schema.name
            if not is_local_name(name) or not store.has_table(name):
                continue
            rows = store.relation_rows(schema)
            foreign = next(
                (row for row in rows if not self.instance.contains(name, row)),
                None,
            )
            if foreign is not None:
                raise StorageError(
                    f"{store.path}: the stored {name} holds {foreign!r}, a "
                    "local row this system does not have; insert the "
                    "store's local rows before exchanging onto it"
                )
            stored[name] = rows
        for name, rows in stored.items():
            self._pending.get(name, set()).difference_update(rows)

    # -- deletion propagation (Q5) --------------------------------------------

    def delete_local(self, relation: str, row: Sequence[object]) -> bool:
        """Delete a local contribution (no propagation until
        :meth:`propagate_deletions`).

        On the sqlite engine a pending row is simply dropped; any other
        victim is additionally marked in SQL: the row is removed from
        the authoritative store's local-contribution table.  When the
        maintained reachability index is current, the store-side
        victim marking (one ``DELETE … RETURNING rowid``) also removes
        the victim's incident firings from the index in the same
        transaction, keeping it *current* — see
        ``docs/graph-index.md``.

        Float NaNs in *row* are canonicalized exactly as in
        :meth:`insert_local`, so a NaN-carrying row deletes the row it
        inserted.
        """
        # Local import: repro.storage's package init imports CDSS back.
        from repro.storage.encoding import canonical_row

        if relation not in self.catalog:
            raise SchemaError(f"unknown relation {relation}")
        target = relation if is_local_name(relation) else local_name(relation)
        row = canonical_row(row)
        if self.resident:
            return self._resident_delete(target, row)
        self._pending.get(target, set()).discard(row)
        return self.instance.delete(target, row)

    def _resident_delete(self, target: str, row: Row) -> bool:
        """Victim marking in the authoritative store: delete the row
        from its stored ``R_l`` table too, unless it is still
        pending."""
        store = self._open_resident_store("local deletion")
        self._pending.get(target, set()).discard(row)
        present = self.instance.delete(target, row)
        if (
            present
            and store.has_table(target)
            and store.delete_relation_row(self.catalog[target], row)
        ):
            self._removed_leaves.setdefault(target, set()).add(row)
        return present

    def delete_local_many(
        self, relation: str, rows: Iterable[Sequence[object]]
    ) -> int:
        """Delete a batch of local contributions (see
        :meth:`delete_local`; on the sqlite engine each victim is
        marked in SQL, and the call raises if the resident store is
        closed)."""
        return sum(self.delete_local(relation, row) for row in rows)

    def propagate_deletions(self) -> int:
        """Garbage-collect underivable tuples after local deletions.

        Runs the DERIVABILITY test (the paper's Q5: "provenance can
        speed up this test"): a leaf is derivable iff its local tuple
        still exists, and a derived tuple survives only while some
        firing with all-derivable antecedents still produces it.  The
        two engines share this semantics
        (:func:`~repro.provenance.annotate.derivability_partition`)
        over different substrates — the in-memory provenance graph, or,
        on the sqlite engine, an iterative SQL fixpoint over the
        ``P_m`` firing history that never materializes anything in
        Python.  Dead ``P_m`` rows are garbage-collected alongside, so
        the stored firing history tracks the surviving derivations.

        On the sqlite engine a *current* reachability index survives the
        sweep: the kill transaction prunes exactly the dead firings
        from the index (the fixpoint already computed the live set),
        whatever the size of the dead cone, so the next graph query
        answers without a rebuild.  See ``docs/graph-index.md``.

        Returns the number of removed tuples; the full statistics
        (``rows_deleted``, ``pm_rows_collected``, ``iterations``,
        ``engine``) land in :attr:`last_deletion`.  With a tracer
        installed the call emits a ``deletion`` span (annotate children
        on the graph path, fixpoint/kill children on the store path).
        """
        started = time.perf_counter()
        with self.tracer.span("deletion") as span:
            if self.resident:
                result = self._propagate_deletions_resident()
            else:
                result = self._propagate_deletions_graph()
            span.set("engine", result.engine).set(
                "rows_deleted", result.rows_deleted
            )
        result.wall_seconds = time.perf_counter() - started
        self._record_result("deletion", result)
        self.last_deletion = result
        return result.rows_deleted

    def _propagate_deletions_graph(self) -> EvaluationResult:
        """Graph-path propagation (memory-engine systems)."""
        with self.tracer.span("deletion.annotate"):
            dead_tuples, dead_derivations = derivability_partition(
                self.graph,
                leaf_assignment=lambda node: self.instance.contains(
                    node.relation, node.values
                ),
            )
        result = EvaluationResult(self.instance, self.graph, engine="memory")
        if not dead_tuples:
            return result
        collected = self._collected_provenance_rows(dead_derivations)
        for node in dead_tuples:
            if self.instance.delete(node.relation, node.values):
                result.rows_deleted += 1
        self.graph.remove_nodes(dead_tuples, dead_derivations)
        result.pm_rows_collected = sum(
            len(rows) for rows in collected.values()
        )
        return result

    def _collected_provenance_rows(
        self, dead_derivations: "set"
    ) -> dict[str, set[tuple]]:
        """P_m rows to garbage-collect, per mapping: the projections of
        dead derivations not kept alive by a surviving firing (distinct
        firings may share a P_m row when they agree on every key
        variable)."""
        from repro.storage.provrel import binding_of

        dead_by_mapping: dict[str, list] = {}
        for deriv in dead_derivations:
            dead_by_mapping.setdefault(deriv.mapping, []).append(deriv)
        tracked = {
            name: mapping
            for name in dead_by_mapping
            if (mapping := self.mappings.get(name)) is not None
            and mapping.stores_provenance
        }
        dead_keys = {
            name: {
                mapping.derivation_key(binding_of(mapping, d))
                for d in dead_by_mapping[name]
            }
            for name, mapping in tracked.items()
        }
        # One pass over the graph retracts every key a surviving firing
        # still supports (distinct firings share a key when they agree
        # on all key variables).
        for deriv in self.graph.derivations:
            mapping = tracked.get(deriv.mapping)
            if mapping is None or deriv in dead_derivations:
                continue
            keys = dead_keys[deriv.mapping]
            if keys:
                keys.discard(
                    mapping.derivation_key(binding_of(mapping, deriv))
                )
        return {name: keys for name, keys in dead_keys.items() if keys}

    def _propagate_deletions_resident(self) -> EvaluationResult:
        """Store-path propagation: the SQL derivability fixpoint."""
        from repro.exchange.sql_executor import SQLiteExchangeEngine

        store = self._open_resident_store("deletion propagation")
        program = self._fetch_program()
        reinserted = {
            name: rows & self._pending.get(name, set())
            for name, rows in self._removed_leaves.items()
        }
        result = SQLiteExchangeEngine(
            store, tracer=self.tracer
        ).propagate_deletions(
            program, self.catalog, self.mappings, self.instance, reinserted
        )
        # A removed row that is not pending has lost its leaf now.
        self._removed_leaves = {
            name: rows for name, rows in reinserted.items() if rows
        }
        return result

    def _open_resident_store(self, operation: str) -> "ExchangeStore":
        """The pinned resident store, required open: it holds the only
        copy of the derived instance this operation must consult."""
        store = self.exchange_store
        if store is None or store.closed:
            raise ExchangeError(
                f"{operation} needs the resident store (it holds the "
                "only copy of the derived relations), but the store is "
                "closed; reopen it via exchange(storage=<path>)"
            )
        return store

    # -- queries over the graph ---------------------------------------------------

    def _store_graph_queries(self, operation: str) -> "StoreGraphQueries":
        """The relational query engine over the pinned resident store
        (every graph query of a sqlite-engine system dispatches here)."""
        from repro.exchange.graph_queries import StoreGraphQueries

        store = self._open_resident_store(operation)
        program = self._fetch_program()
        return StoreGraphQueries(
            store, program, self.catalog, self.mappings, tracer=self.tracer
        )

    def _run_graph_query(
        self,
        query: str,
        operation: str,
        resident_call: "Callable[[StoreGraphQueries], tuple[object, EvaluationResult]]",
        memory_call: "Callable[[], object]",
    ) -> object:
        """One graph query, either substrate — the shared tail of
        :meth:`derivability`/:meth:`lineage`/:meth:`trusted`.

        Dispatches to the resident store engine or the in-memory graph,
        wraps the call in a ``graph_query`` span, stamps the per-call
        duration on the stats, records them into :attr:`metrics`, and
        publishes :attr:`last_graph_query`.
        """
        started = time.perf_counter()
        with self.tracer.span("graph_query") as span:
            span.set("query", query)
            if self.resident:
                value, stats = resident_call(
                    self._store_graph_queries(operation)
                )
            else:
                stats = EvaluationResult(
                    self.instance, self.graph, engine="memory"
                )
                # Published before the call so a raising query (e.g.
                # lineage of an underived node) still reports its
                # engine, as the pre-helper code did.
                self.last_graph_query = stats
                value = memory_call()
            span.set("engine", stats.engine)
        stats.wall_seconds = time.perf_counter() - started
        self._record_result("graph_query", stats)
        self.last_graph_query = stats
        return value

    def derivability(self) -> dict[TupleNode, bool]:
        """Derivability annotation of every tuple (Q5).

        **sqlite engine**: answered relationally — the stored firing
        history is annotated by the same SQL liveness fixpoint that
        drives :meth:`propagate_deletions`, with every stored tuple's
        verdict read off its membership in the live set; no
        :class:`ProvenanceGraph` is materialized.  That walk is the
        oracle; by default the answer comes from the store's maintained
        reachability index through the shared pure-SELECT read core
        (:mod:`repro.exchange.index_reads`, the code serving sessions
        run too): a worklist fixpoint over the compact integer edge
        tables, with repeat calls answered from the per-epoch cache
        (``index_hit == 1`` on the stats); a stale index is
        rebuilt once at query time (``index_miss == 1``), after which
        it stays current until the next mutation.  Memory-engine
        systems annotate the in-memory graph.  Both engines answer over the
        state of the last exchange/propagation.
        """
        return self._run_graph_query(  # type: ignore[return-value]
            "derivability",
            "derivability annotation",
            lambda queries: queries.derivability(),
            lambda: annotate(self.graph, get_semiring("DERIVABILITY")),
        )

    def lineage(self, node: TupleNode) -> frozenset:
        """Set of local base tuples *node* derives from (Q6).

        **sqlite engine**: answered relationally — an iterative
        backward transitive-closure walk over the stored firing
        history's join columns
        (:meth:`repro.exchange.graph_queries.StoreGraphQueries.lineage`);
        no :class:`ProvenanceGraph` is materialized.  That walk is the
        oracle; by default the shared pure-SELECT read core
        (:mod:`repro.exchange.index_reads`) answers from the maintained
        reachability index with one ancestor-closure probe — one
        recursive CTE over the integer edge set — reported as
        ``index_hit == 1`` on the stats; a stale index is rebuilt once
        at query time first (``index_miss == 1``).  Memory-engine
        systems annotate *node*'s ancestor closure of the in-memory
        graph in the LINEAGE semiring.  Both raise :class:`KeyError`
        for a node the last exchange never derived.
        """
        from repro.provenance.annotate import lineage_of

        return self._run_graph_query(  # type: ignore[return-value]
            "lineage",
            "lineage",
            lambda queries: queries.lineage(node),
            lambda: lineage_of(self.graph, node),
        )

    def _validate_trust_policy(self, policy: TrustPolicy) -> None:
        """Reference check shared with the static analyzer's trust
        lint: a policy naming an unknown relation or mapping would be
        silently ignored at annotation time — fail loudly instead, with
        the same :class:`SchemaError` message shape as
        :meth:`insert_local`/:meth:`add_mapping`."""
        for relation in policy.leaf_conditions:
            if relation not in self.catalog:
                raise SchemaError(
                    f"trust policy: unknown relation {relation}"
                )
        known = set(self.mappings) | {r.name for r in self.local_rules()}
        for mapping in policy.distrusted_mappings:
            if mapping not in known:
                raise SchemaError(f"trust policy: unknown mapping {mapping}")

    def trusted(self, policy: TrustPolicy) -> dict[TupleNode, bool]:
        """Trust annotation of every tuple under *policy* (Q7).

        **sqlite engine**: answered relationally — the policy is
        pushed into the liveness fixpoint semiring-style (leaf
        conditions select which local rows seed the live set,
        distrusted mappings are excluded from the firing joins), so
        trust never materializes a :class:`ProvenanceGraph` either.
        By default the shared read core
        (:mod:`repro.exchange.index_reads`) runs that fixpoint as a
        worklist over the maintained reachability index's edge tables,
        and repeat calls under the same policy (same default, same
        distrusted mappings, the same condition objects) answer from
        the per-epoch cache (``index_hit == 1`` on the
        stats); a stale index is rebuilt once at query time
        (``index_miss == 1``).  Memory-engine systems annotate the
        in-memory graph in the TRUST semiring.
        """
        if isinstance(policy, TrustPolicy):
            self._validate_trust_policy(policy)
        return self._run_graph_query(  # type: ignore[return-value]
            "trusted",
            "trust annotation",
            lambda queries: queries.trusted(policy),
            lambda: annotate(
                self.graph,
                get_semiring("TRUST"),
                leaf_assignment=policy.leaf_assignment(),
                mapping_functions=policy.mapping_functions(),
            ),
        )

    # -- concurrent serving ------------------------------------------------

    def _serving_path(self, operation: str) -> str:
        """The on-disk path read-only serving connections attach to."""
        store = self.exchange_store
        if store is None:
            raise ExchangeError(
                f"{operation} needs a sqlite-engine system "
                '(exchange(engine="sqlite") on an on-disk path); a '
                "memory-engine system has no store to serve from"
            )
        if store.path == ":memory:":
            raise ExchangeError(
                f"{operation} needs an on-disk resident store; an "
                "in-memory store is private to the writer's connection"
            )
        return store.path

    def serving_session(self) -> "ReaderSession":
        """A read-only query session over the resident store's file.

        The session opens its own ``mode=ro`` WAL connection to the
        store path and answers :meth:`lineage` / :meth:`derivability` /
        :meth:`trusted` from the persisted reachability index at the
        epoch its snapshot observes — concurrently with this system's
        writer connection, which keeps exchanging and propagating
        deletions undisturbed (see docs/serving.md).  The session
        shares this system's :attr:`metrics` registry and tracer; for
        many concurrent clients use :meth:`serve`, which hands out one
        session per worker instead.  Requires a completed
        ``exchange(engine="sqlite")`` on an on-disk path; close the
        session when done (it is a context manager).
        """
        from repro.serve import ReaderSession

        path = self._serving_path("serving_session")
        return ReaderSession(
            path, self.catalog, metrics=self.metrics, tracer=self.tracer
        )

    def serve(self, readers: int = 4) -> "StoreServer":
        """A started :class:`~repro.serve.StoreServer` over this store.

        Builds a :class:`~repro.serve.ReaderPool` of *readers*
        read-only sessions against the resident store's path and
        returns the server handle, already started: submit queries
        from any thread and receive futures; the single writer (this
        system) keeps running exchanges concurrently.  The caller owns
        the handle — close it (or use it as a context manager) to
        drain in-flight queries and release the connections.  Pool
        counters land in this system's :attr:`metrics` registry
        (approximate under concurrency; see ``serve.*`` in
        docs/serving.md).
        """
        from repro.serve import ReaderPool, StoreServer

        path = self._serving_path("serve")
        pool = ReaderPool(
            path, self.catalog, size=readers, metrics=self.metrics
        )
        server = StoreServer(pool)
        server.start()
        return server

    # -- ProQL ------------------------------------------------------------

    @property
    def unfold_cache(self) -> "UnfoldCache":
        """Memoized unfolded ProQL programs (created on first use).

        Shared by every :class:`~repro.proql.sql_engine.SQLEngine` over
        this system, keyed per (query fingerprint, order-normalized
        mapping fingerprint, data-bearing relations) the same way
        :attr:`plan_cache` keys compiled exchange plans; invalidated
        whenever the mapping program can change.  Hit/miss totals also
        land in :attr:`metrics` as ``unfold.cache_hits`` /
        ``unfold.cache_misses``.
        """
        cache = self._unfold_cache
        if cache is None:
            from repro.proql.pruning import UnfoldCache

            cache = self._unfold_cache = UnfoldCache()
        return cache

    def query(
        self,
        query: str,
        engine: str = "memory",
        storage: "object | None" = None,
        validate: str = "off",
    ) -> "ProQLResult":
        """Run one ProQL query over the exchanged instance.

        ``engine="memory"`` evaluates against the in-memory provenance
        graph; ``engine="sqlite"`` runs the SQL pipeline (unfold +
        joins) over *storage* — an already-loaded
        :class:`~repro.storage.sqlite_backend.SQLiteStorage` — or over
        a temporary one loaded from this system when omitted.

        A sqlite-engine system keeps no Python graph, so it answers
        ``engine="sqlite"`` only, over its pinned store itself: nothing
        is copied, and a *storage* bound to any other store raises
        :class:`~repro.errors.ExchangeError`, as :meth:`exchange` does.
        Between :meth:`delete_local` and :meth:`propagate_deletions`
        the query sees the store as the graph queries do: victims are
        gone from ``R_l``, their consequences not yet.

        ``validate`` pre-flights the query through the static analyzer
        (:func:`repro.analysis.analyze_query`): ``"warn"`` reports
        RA5xx findings as a warning, ``"error"`` raises
        :class:`~repro.errors.AnalysisError` on errors (e.g. RA502
        unsatisfiable condition); the report lands in
        :attr:`last_validation` either way.
        """
        if validate != "off":
            if validate not in ("warn", "error"):
                raise ExchangeError(
                    f"unknown validate mode {validate!r}; "
                    'expected "off", "warn", or "error"'
                )
            from repro.analysis import analyze_query

            report = analyze_query(self, query)
            self.last_validation = report
            if validate == "error":
                report.raise_for_errors()
            elif report.diagnostics:
                warnings.warn(
                    f"query pre-flight:\n{report}", stacklevel=2
                )
        if engine == "memory":
            if self.resident:
                raise ExchangeError(
                    'engine="memory" needs the provenance graph, which '
                    "a sqlite-engine system does not keep in Python; "
                    'use engine="sqlite", which reads the store'
                )
            from repro.proql.graph_engine import GraphEngine

            return GraphEngine(self.graph, self.catalog).run(query)
        if engine != "sqlite":
            raise ExchangeError(
                f"unknown query engine {engine!r}; "
                'expected "memory" or "sqlite"'
            )
        from repro.proql.sql_engine import SQLEngine
        from repro.storage.sqlite_backend import SQLiteStorage

        owned = storage is None
        if owned:
            storage = SQLiteStorage(self)
            storage.load()
        assert isinstance(storage, SQLiteStorage)
        if self.resident:
            # Raises unless *storage* is bound to the pinned store.
            self._resolve_store(storage.store)
        try:
            return SQLEngine(storage).run(query)
        finally:
            if owned:
                storage.close()

    # -- stats ------------------------------------------------------------

    def instance_size(self, public_only: bool = True) -> int:
        """Total number of materialized tuples.

        On the sqlite engine derived relations live only in the
        exchange store, so their rows are counted there — from the
        store's maintained count cache, never a COUNT(*) rescan —
        while local contributions still count from the Python
        instance, which may run ahead of the store by the pending
        batch.  With the store closed there is nothing truthful to
        report (the Python side is deliberately empty), so the call
        fails loudly rather than answering ~0.
        """
        store = self.exchange_store
        if store is not None and store.closed:
            raise ExchangeError(
                "instance_size needs the resident store (it holds the "
                "only copy of the derived relations), but the store is "
                "closed; reopen it via exchange(storage=<path>)"
            )
        total = 0
        for relation in self.catalog.names():
            if public_only and is_local_name(relation):
                continue
            if (
                store is not None
                and not is_local_name(relation)
                and store.has_table(relation)
            ):
                total += store.cached_count(relation)
            else:
                total += self.instance.size(relation)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        try:
            size: object = self.instance_size()
        except ExchangeError:
            # Store closed: a diagnostic aid must not raise.
            size = "?"
        return (
            f"<CDSS peers={len(self.peers)} mappings={len(self.mappings)} "
            f"tuples={size}>"
        )
