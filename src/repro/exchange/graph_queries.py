"""Relational provenance-graph queries over the stored firing history.

The paper's central storage claim (Section 4.1) is that the provenance
graph need not exist as a graph at all: the ``P_m`` firing history *is*
the graph, stored relationally, and the graph-shaped use cases can be
answered by recursive joins over it.  This module closes store-resident
mode's last gap by answering the three :class:`~repro.cdss.system.CDSS`
graph queries entirely in SQL — no
:class:`~repro.provenance.graph.ProvenanceGraph` is ever materialized:

* **derivability** (Q5) — the liveness fixpoint of deletion
  propagation, verbatim: every stored local-contribution row seeds the
  ``__live_*`` tables and the lowered rule bodies grow them
  semi-naively; a tuple's annotation is its membership in the
  resulting live set (the least fixpoint of the DERIVABILITY semiring,
  so cyclically self-supporting derivations annotate ``False`` exactly
  as under the graph engine's Kleene iteration);
* **trust** (Q7) — the same fixpoint with the trust policy pushed
  *into* it, semiring-style: leaf conditions filter which
  local-contribution rows seed the live set (the TRUST semiring's leaf
  assignment), and distrusted mappings are excluded from the firing
  joins wholesale (the paper's ``Dm`` function annotates every firing
  of the mapping ``false``, which is the same as never enumerating it);
* **lineage** (Q6) — the backward transitive-closure walk lowered by
  :func:`~repro.exchange.sql_plans.lower_lineage_program`:
  per-relation ``__anc_*`` ancestor closures grow from the query row,
  each round enumerating exactly the firings whose head row entered
  the closure last round and inserting their body rows back into it;
  the answer is the closure's intersection with the EDB
  (local-contribution) relations, i.e. the leaf set of the LINEAGE
  semiring annotation.

Both run on the one round driver,
:func:`~repro.exchange.sql_executor.run_fixpoint`, that also runs
update exchange and deletion propagation.  Because the store holds an
exchange fixpoint, joining stored rows through a rule body enumerates
exactly the recorded historical firings (each one a ``P_m`` row,
widened to all variable slots), so these walks traverse the same
derivation structure the graph engine would — the Gottlob–Orsi–Pieris
move of rewriting a graph/ontological query into plain SQL over the
underlying relations.

**Index first.**  The walks above are the ``use_index=False`` oracle.
By default :class:`StoreGraphQueries` answers from the store's
maintained reachability index instead: it makes the index current
(rebuilding a stale one) and hands the store connection to the one
pure-SELECT read core, :class:`repro.exchange.index_reads.IndexReadCore`
— the same code the serving tier's read-only sessions run, so there is
exactly one implementation of each indexed query.

**Consistency window.**  The store answers as of the last
``exchange``/``propagate_deletions``: local insertions not yet
exchanged are invisible (exactly like the graph engine, whose graph
also only grows at exchange time).  Local *deletions* differ during
the in-between state: resident ``delete_local`` removes the victim row
from the store immediately, so queries issued before
``propagate_deletions`` already exclude it, while the graph engine
keeps the leaf node until propagation runs.  After propagation the two
engines agree node-for-node again (property-tested).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping as TMapping, Sequence

from repro.cdss.mapping import SchemaMapping
from repro.datalog.evaluation import EvaluationResult
from repro.errors import ExchangeError
from repro.exchange.cache import CompiledExchangeProgram
from repro.exchange.index_reads import IndexReadCore
from repro.exchange.reach_index import ReachabilityIndex, lower_reach_program
from repro.exchange.sql_executor import ExchangeStore, run_fixpoint, seed_rows
from repro.exchange.sql_plans import (
    LINEAGE,
    LIVENESS,
    FixpointRule,
    FixpointSQL,
    lower_derivability_program,
    lower_lineage_program,
    lower_program,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.provenance.graph import ProvenanceGraph, TupleNode
from repro.relational.instance import Catalog, Instance, Row
from repro.storage.encoding import quote_identifier as _q

#: seed spec: this relation contributes no seed rows at all (e.g. its
#: leaves default to distrusted).
SEED_NOTHING = object()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cdss.trust import TrustPolicy


class StoreGraphQueries:
    """Answers the CDSS graph queries over a (resident) exchange store.

    One instance is built per query from the compiled program cache
    entry; the lowered SQL (``program.derivability`` /
    ``program.lineage`` / ``program.reach``) is attached to that entry,
    so repeated queries over an unchanged program lower nothing.

    With ``use_index=True`` (the default) queries answer from the
    store's maintained reachability index
    (:mod:`repro.exchange.reach_index`) through its read core
    (:mod:`repro.exchange.index_reads`, one instance kept on
    ``store.reach_index`` so its per-epoch cache outlives this
    object): a current index is used directly (``index_hit``), a stale
    or absent one is rebuilt first under an ``index.rebuild`` span
    (``index_miss``) — either way the answers equal the unindexed
    paths', which ``use_index=False`` keeps available verbatim as the
    testing oracle (and which alone honour ``max_iterations``: the
    index reads are single-pass and terminate by construction).
    """

    def __init__(
        self,
        store: ExchangeStore,
        program: CompiledExchangeProgram,
        catalog: Catalog,
        mappings: TMapping[str, SchemaMapping],
        tracer: "Tracer | NullTracer" = NULL_TRACER,
        use_index: bool = True,
    ):
        if store.closed:
            raise ExchangeError("exchange store is closed")
        self.store = store
        self.program = program
        self.catalog = catalog
        self.mappings = mappings
        self.use_index = use_index
        #: lifecycle tracer (:mod:`repro.obs`): the fixpoint and walk
        #: loops emit per-round spans through it.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if program.sql is None:
            program.sql = lower_program(
                program.compiled, catalog, mappings, store.codec
            )
        # Peers/mappings may have been added since the last exchange;
        # their (empty) tables must exist before the walks join them —
        # the same idempotent guarantee propagate_deletions relies on.
        store.ensure_schema(catalog, mappings, program.sql, program.fingerprint)

    # -- shared plumbing ----------------------------------------------------

    def _result(
        self, iterations: int, scanned: int, hit: int = 0, miss: int = 0
    ) -> EvaluationResult:
        result = EvaluationResult(
            Instance(self.catalog), ProvenanceGraph(), engine="sqlite"
        )
        result.iterations = iterations
        result.pm_rows_scanned = scanned
        result.index_hit = hit
        result.index_miss = miss
        return result

    def _index_result(self, scanned: int, miss: int) -> EvaluationResult:
        """Stats of one index-answered query: a single pass over the
        index, a hit unless the index had to be rebuilt first."""
        return self._result(1, scanned, hit=1 - miss, miss=miss)

    def _ready_index(
        self,
    ) -> "tuple[IndexReadCore, ReachabilityIndex, int] | None":
        """The (read core, index, miss-flag) triple for an indexed
        query, rebuilding a stale/absent index first; None when this
        instance runs unindexed."""
        if not self.use_index:
            return None
        program = self.program
        if program.reach is None:
            program.reach = lower_reach_program(
                program.compiled, self.catalog, self.store.codec
            )
        index = self.store.reach_index
        index.ensure_schema(program.reach)
        miss = 0
        if not index.current:
            index.rebuild(program.reach, self.tracer)
            miss = 1
        core = index.read_core
        if core is None or core.catalog is not self.catalog:
            core = index.read_core = IndexReadCore(
                self.catalog, self.store.codec, self.store.prepared
            )
        return core, index, miss

    def _liveness_sql(self) -> FixpointSQL:
        program = self.program
        if program.derivability is None:
            program.derivability = lower_derivability_program(
                program.compiled, self.catalog, self.mappings, self.store.codec
            )
        return program.derivability

    def _lineage_sql(self) -> FixpointSQL:
        program = self.program
        if program.lineage is None:
            program.lineage = lower_lineage_program(
                program.compiled, self.catalog, self.store.codec
            )
        return program.lineage

    #: batch size of the streamed (leaf-condition-filtered) seeding.
    SEED_BATCH = 10_000

    def _seed_live(self, relation: str, spec: object = None) -> int:
        """Stage seed rows into a relation's live + live-delta tables.

        ``spec`` selects the rows: ``None`` seeds the full stored
        extension in SQL (no decode round-trip), :data:`SEED_NOTHING`
        seeds none, and a callable is a predicate over *decoded* rows
        — applied streaming, in :attr:`SEED_BATCH`-row insert batches,
        so a conditioned relation never materializes its extension in
        Python (resident working sets may exceed memory).
        """
        store = self.store
        if spec is None:
            return seed_rows(store, LIVENESS, relation)
        if spec is SEED_NOTHING:
            return 0
        schema = self.catalog[relation]
        count = 0
        batch: list[Row] = []
        for raw in store.connection.execute(f"SELECT * FROM {_q(relation)}"):
            if spec(store.codec.decode_row(raw, schema)):
                batch.append(raw)
                if len(batch) >= self.SEED_BATCH:
                    count += seed_rows(store, LIVENESS, relation, batch)
                    batch = []
        return count + seed_rows(store, LIVENESS, relation, batch)

    def _membership(self, relation: str) -> "list[tuple[Row, bool]]":
        """Every stored row of *relation*, decoded, with its membership
        in the relation's live set."""
        schema = self.catalog[relation]
        cols = schema.attribute_names
        match = " AND ".join(f'l.{_q(c)} IS r.{_q(c)}' for c in cols)
        select = ", ".join(f'r.{_q(c)}' for c in cols)
        cursor = self.store.connection.execute(
            f"SELECT {select}, EXISTS(SELECT 1 FROM "
            f"{_q(LIVENESS.target + relation)} AS l WHERE {match}) "
            f"FROM {_q(relation)} AS r"
        )
        codec = self.store.codec
        return [
            (codec.decode_row(raw[:-1], schema), bool(raw[-1]))
            for raw in cursor
        ]

    def _annotate_by_liveness(
        self,
        seeds: dict[str, object],
        rules: Sequence[FixpointRule] | None,
        max_iterations: int | None,
    ) -> tuple[dict[TupleNode, bool], EvaluationResult]:
        """Shared derivability/trust body: seed (per-relation spec, see
        :meth:`_seed_live`; absent = full extension), run the liveness
        fixpoint, and read every stored row's verdict."""
        fsql = self._liveness_sql()
        store = self.store
        with store.work_tables(
            self.catalog, self.mappings, fsql, self.program.fingerprint
        ):
            with store.connection:
                deltas = {
                    relation: self._seed_live(relation, seeds.get(relation))
                    for relation in fsql.edb_relations
                }
            iterations, scanned, _ = run_fixpoint(
                store, fsql, deltas, rules=rules,
                max_iterations=max_iterations, tracer=self.tracer,
            )
            values = {
                TupleNode(relation, row): live
                for relation in fsql.relations
                for row, live in self._membership(relation)
            }
        return values, self._result(iterations, scanned)

    # -- the three queries --------------------------------------------------

    def derivability(
        self, max_iterations: int | None = None
    ) -> tuple[dict[TupleNode, bool], EvaluationResult]:
        """Derivability annotation of every stored tuple (Q5).

        Leaves follow the graph engine's default assignment (every
        stored local-contribution row is derivable), so the answer is
        the DERIVABILITY-semiring annotation of the firing history as
        it stands — on a consistent store every tuple annotates
        ``True``, and after un-propagated deletions the verdicts
        reflect the already-shrunk leaf tables.
        """
        ready = self._ready_index()
        if ready is None:
            return self._annotate_by_liveness({}, None, max_iterations)
        core, index, miss = ready
        answer, _cached = core.derivability(
            self.store.connection, index.epoch
        )
        return dict(answer.value), self._index_result(answer.scanned, miss)

    def trusted(
        self, policy: "TrustPolicy", max_iterations: int | None = None
    ) -> tuple[dict[TupleNode, bool], EvaluationResult]:
        """Trust annotation of every stored tuple under *policy* (Q7).

        The policy is pushed into the fixpoint rather than applied to
        an annotated graph: leaf conditions select the seed rows
        (decoding only the relations that actually carry a condition)
        and distrusted mappings' rules never join at all.
        """
        ready = self._ready_index()
        if ready is not None:
            core, index, miss = ready
            answer, _cached = core.trusted(
                self.store.connection, index.epoch, policy
            )
            return dict(answer.value), self._index_result(
                answer.scanned, miss
            )
        fsql = self._liveness_sql()
        seeds: dict[str, object] = {}
        for relation in fsql.edb_relations:
            condition = policy.condition_for(relation)
            if condition is None:
                if not policy.default_trust:
                    seeds[relation] = SEED_NOTHING
                continue  # no condition + default trust: full extension
            seeds[relation] = condition
        rules = tuple(
            rule
            for rule in fsql.rules
            if rule.name not in policy.distrusted_mappings
        )
        return self._annotate_by_liveness(seeds, rules, max_iterations)

    def lineage(
        self, node: TupleNode, max_iterations: int | None = None
    ) -> tuple[frozenset[TupleNode], EvaluationResult]:
        """Set of local base tuples *node* derives from (Q6).

        Raises :class:`KeyError` when *node* is not a stored tuple,
        matching the graph engine's behavior on a node absent from the
        graph.
        """
        catalog = self.catalog
        if node.relation not in catalog:
            raise KeyError(node)
        ready = self._ready_index()
        if ready is not None:
            core, index, miss = ready
            answer, _cached = core.lineage(
                self.store.connection, index.epoch, node
            )
            if answer.value is None:
                raise KeyError(node)
            return answer.value, self._index_result(answer.scanned, miss)
        fsql = self._lineage_sql()
        if node.relation not in fsql.relations:
            raise KeyError(node)
        store = self.store
        encoded = store.codec.encode_row(tuple(node.values))
        condition = " AND ".join(
            f"{_q(c)} IS ?" for c in catalog[node.relation].attribute_names
        )
        stored = store.connection.execute(
            f"SELECT 1 FROM {_q(node.relation)} WHERE {condition}", encoded
        ).fetchone()
        if stored is None:
            raise KeyError(node)
        with store.work_tables(
            catalog, self.mappings, fsql, self.program.fingerprint
        ):
            with store.connection:
                seed_rows(store, LINEAGE, node.relation, [encoded])
            iterations, scanned, _ = run_fixpoint(
                store, fsql, {node.relation: 1},
                max_iterations=max_iterations, tracer=self.tracer,
            )
            leaves = frozenset(
                TupleNode(relation, row)
                for relation in fsql.edb_relations
                for row in self._closure_rows(relation)
            )
        return leaves, self._result(iterations, scanned)

    def _closure_rows(self, relation: str) -> "list[Row]":
        schema = self.catalog[relation]
        codec = self.store.codec
        cursor = self.store.connection.execute(
            f"SELECT * FROM {_q(LINEAGE.target + relation)}"
        )
        return [codec.decode_row(raw, schema) for raw in cursor]
