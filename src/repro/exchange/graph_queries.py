"""Relational provenance-graph queries over the stored firing history.

The paper's central storage claim (Section 4.1) is that the provenance
graph need not exist as a graph at all: the ``P_m`` firing history *is*
the graph, stored relationally, and the graph-shaped use cases can be
answered by recursive joins over it.  This module closes store-resident
mode's last gap by answering the three :class:`~repro.cdss.system.CDSS`
graph queries entirely in SQL — no
:class:`~repro.provenance.graph.ProvenanceGraph` is ever materialized:

* **derivability** (Q5) — the forward liveness fixpoint of PR 4's
  deletion propagation, re-used verbatim: every stored
  local-contribution row seeds the ``__live_*`` tables and the lowered
  rule bodies grow them semi-naively; a tuple's annotation is its
  membership in the resulting live set (the least fixpoint of the
  DERIVABILITY semiring, so cyclically self-supporting derivations
  annotate ``False`` exactly as under the graph engine's Kleene
  iteration);
* **trust** (Q7) — the same fixpoint with the trust policy pushed
  *into* it, semiring-style: leaf conditions filter which
  local-contribution rows seed the live set (the TRUST semiring's leaf
  assignment), and distrusted mappings are excluded from the firing
  joins wholesale (the paper's ``Dm`` function annotates every firing
  of the mapping ``false``, which is the same as never enumerating it);
* **lineage** (Q6) — an iterative *backward* transitive-closure walk:
  per-relation ``__anc_*`` ancestor closures grow from the query row,
  and each round enumerates — via the shared
  :func:`~repro.exchange.sql_plans._plan_firing_sql` lowering with a
  :class:`~repro.exchange.sql_plans.HeadProbe` — exactly the firings
  whose head row entered the closure last round, inserting their body
  rows back into the closure; the answer is the closure's intersection
  with the EDB (local-contribution) relations, i.e. the leaf set of
  the LINEAGE semiring annotation.

Because the store holds an exchange fixpoint, joining stored rows
through a rule body enumerates exactly the recorded historical firings
(each one a ``P_m`` row, widened to all variable slots), so these
walks traverse the same derivation structure the graph engine would —
the Gottlob–Orsi–Pieris move of rewriting a graph/ontological query
into plain SQL over the underlying relations.

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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping as TMapping, Sequence

from repro.cdss.mapping import SchemaMapping
from repro.datalog.evaluation import EvaluationResult
from repro.datalog.planner import CompiledRule
from repro.errors import EvaluationError, ExchangeError
from repro.exchange.cache import CompiledExchangeProgram
from repro.exchange.index_reads import IndexReadCore
from repro.exchange.reach_index import ReachabilityIndex, lower_reach_program
from repro.exchange.sql_plans import (
    DerivabilityRuleSQL,
    DerivabilitySQL,
    HeadProbe,
    Statement,
    _ParamAllocator,
    _assign_slots,
    _compile_term,
    _lower_head_insert,
    _plan_firing_sql,
    _slot_types,
    anc_cand_table,
    anc_delta_table,
    anc_new_table,
    anc_table,
    live_cand_table,
    live_delta_table,
    live_new_table,
    live_table,
    lower_derivability_program,
    lower_program,
    query_fired_table,
    stage_ancestor_sql,
    stage_live_sql,
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
    from repro.exchange.sql_executor import ExchangeStore


@dataclass(frozen=True)
class LineageRuleSQL:
    """One rule of the backward lineage walk."""

    rule_name: str
    num_slots: int
    #: ``__qfired_<rule>``: every firing the walk has visited.
    firing_table: str
    #: per head atom: (head relation, backward firing enumeration
    #: seeded from that relation's ancestor delta).
    head_probes: tuple[tuple[str, Statement], ...]
    #: per body atom: fresh visited firings -> ``__acand_<relation>``.
    body_inserts: tuple[Statement, ...]


@dataclass(frozen=True)
class LineageSQL:
    """SQL lowering of the backward lineage walk over a program."""

    rules: tuple[LineageRuleSQL, ...]
    #: every relation the walk may place in an ancestor closure.
    relations: tuple[str, ...]
    #: the leaf relations (local contributions): the closure's
    #: intersection with these is the lineage answer.
    edb_relations: tuple[str, ...]


def lower_lineage_program(
    compiled: Sequence[CompiledRule],
    catalog: Catalog,
    codec,
) -> LineageSQL:
    """Lower the whole program's backward lineage walk.

    Shares the leaf model of the derivability lowering: every
    local-contribution relation must be a pure EDB leaf (a mapping
    deriving *into* one is rejected loudly there, and this lowering is
    only reachable after that one succeeded at exchange time).
    """
    relations: dict[str, None] = {}
    heads: set[str] = set()
    for crule in compiled:
        for rel in crule.body_relations:
            relations.setdefault(rel, None)
        for rel, _extractors in crule.head:
            relations.setdefault(rel, None)
            heads.add(rel)
    rules = []
    for crule in compiled:
        if not crule.plans:
            raise ExchangeError(
                f"rule {crule.rule.name} cannot run on the sqlite engine "
                "(its body contains terms the planner does not compile); "
                'use exchange(engine="memory")'
            )
        name = crule.rule.name
        fired = query_fired_table(name)
        slot_types = _slot_types(crule, catalog)
        # Any one plan gives a valid join order for the body — the walk
        # enumerates *all* firings matching the head probe, not firings
        # seeded from a particular delta atom — so take the first.
        plan = crule.plans[0]
        head_probes = []
        for relation, extractors in crule.head:
            alloc = _ParamAllocator(codec)
            sql = _plan_firing_sql(
                crule,
                plan,
                catalog,
                alloc,
                seed_from=plan.seed.relation,
                join_of=lambda rel: rel,
                guards=False,
                target=fired,
                probe=HeadProbe(
                    anc_delta_table(relation),
                    catalog[relation].attribute_names,
                    tuple(extractors),
                    slot_types,
                ),
                dedup=True,
            )
            head_probes.append((relation, Statement(sql, alloc.params)))
        slot_of = _assign_slots(crule.rule)
        body_inserts = tuple(
            _lower_head_insert(
                crule,
                atom.relation,
                tuple(_compile_term(term, slot_of) for term in atom.terms),
                slot_types,
                codec,
                target=anc_cand_table(atom.relation),
                fired=fired,
            )
            for atom in crule.rule.body
        )
        rules.append(
            LineageRuleSQL(
                name, crule.num_slots, fired, tuple(head_probes), body_inserts
            )
        )
    return LineageSQL(
        tuple(rules),
        tuple(relations),
        tuple(r for r in relations if r not in heads),
    )


def run_liveness_fixpoint(
    store: "ExchangeStore",
    dsql: DerivabilitySQL,
    catalog: Catalog,
    delta_counts: dict[str, int],
    max_iterations: int | None = None,
    rules: Sequence[DerivabilityRuleSQL] | None = None,
    record_pm: bool = True,
    tracer: "Tracer | NullTracer" = NULL_TRACER,
) -> tuple[int, int]:
    """Grow the seeded ``__live_*`` sets to their least fixpoint.

    The caller has already staged the seed rows into the live and
    live-delta tables and passes their per-relation counts.  ``rules``
    optionally restricts the fixpoint to a subset of the program (trust
    excludes distrusted mappings); ``record_pm`` controls whether the
    surviving-``P_m`` projections are maintained (deletion propagation
    needs them for garbage collection, queries do not).

    Returns ``(iterations, firing_rows)`` where ``firing_rows`` counts
    every live firing enumerated — the relational analogue of the
    derivation nodes a graph walk would visit.

    This single loop is the substrate under deletion propagation
    (:meth:`~repro.exchange.sql_executor.SQLiteExchangeEngine.propagate_deletions`)
    and the ``derivability``/``trusted`` queries, which is what keeps
    the two semantics mechanically identical.

    ``tracer`` emits one ``fixpoint.round`` span per iteration (round
    number + live firings enumerated); the default no-op tracer costs
    one no-op context entry per round.
    """
    conn = store.connection
    if rules is None:
        rules = dsql.rules
    stage_sql = {
        relation: stage_live_sql(catalog, relation)
        for relation in dsql.derived_relations
    }
    iteration = 0
    firing_rows = 0
    while any(
        delta_counts.get(plan.seed_relation)
        for rule in rules
        for plan in rule.plans
    ):
        iteration += 1
        if max_iterations is not None and iteration > max_iterations:
            raise EvaluationError(
                f"derivability fixpoint did not converge within "
                f"{max_iterations} iterations"
            )
        with tracer.span("fixpoint.round") as round_span, conn:
            fired_before = firing_rows
            watermarks = {
                rule.rule_name: store.max_rowid(rule.firing_table)
                for rule in rules
            }
            for rule in rules:
                for plan in rule.plans:
                    if delta_counts.get(plan.seed_relation):
                        conn.execute(
                            plan.statement.sql, dict(plan.statement.params)
                        )
            for rule in rules:
                watermark = watermarks[rule.rule_name]
                fired = store.max_rowid(rule.firing_table) - watermark
                if fired <= 0:
                    continue
                firing_rows += fired
                runtime = {"wm": watermark}
                for statement in rule.head_inserts:
                    conn.execute(statement.sql, {**statement.params, **runtime})
                if record_pm and rule.pm_insert is not None:
                    conn.execute(
                        rule.pm_insert.sql,
                        {**rule.pm_insert.params, **runtime},
                    )
            for relation in dsql.derived_relations:
                conn.execute(stage_sql[relation])
            for relation in dsql.relations:
                conn.execute(f"DELETE FROM {_q(live_delta_table(relation))}")
            new_counts: dict[str, int] = {}
            for relation in dsql.derived_relations:
                fresh = store.count(live_new_table(relation))
                if fresh:
                    conn.execute(
                        f"INSERT INTO {_q(live_table(relation))} "
                        f"SELECT * FROM {_q(live_new_table(relation))}"
                    )
                    conn.execute(
                        f"INSERT INTO {_q(live_delta_table(relation))} "
                        f"SELECT * FROM {_q(live_new_table(relation))}"
                    )
                    conn.execute(
                        f"DELETE FROM {_q(live_new_table(relation))}"
                    )
                    new_counts[relation] = fresh
                conn.execute(f"DELETE FROM {_q(live_cand_table(relation))}")
            round_span.set("round", iteration).set(
                "firings", firing_rows - fired_before
            )
        delta_counts.clear()
        delta_counts.update(new_counts)
    return iteration, firing_rows


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
        store: "ExchangeStore",
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

    def _derivability_sql(self) -> DerivabilitySQL:
        program = self.program
        if program.derivability is None:
            program.derivability = lower_derivability_program(
                program.compiled, self.catalog, self.mappings, self.store.codec
            )
        dsql = program.derivability
        self.store.ensure_derivability_schema(self.catalog, dsql)
        return dsql

    def _lineage_sql(self) -> LineageSQL:
        program = self.program
        if program.lineage is None:
            program.lineage = lower_lineage_program(
                program.compiled, self.catalog, self.store.codec
            )
        lsql = program.lineage
        self.store.ensure_graph_query_schema(self.catalog, lsql)
        return lsql

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
        conn = self.store.connection
        if spec is None:
            for table in (live_table(relation), live_delta_table(relation)):
                conn.execute(
                    f"INSERT INTO {_q(table)} SELECT * FROM {_q(relation)}"
                )
            return self.store.cached_count(relation)
        if spec is SEED_NOTHING:
            return 0
        schema = self.catalog[relation]
        codec = self.store.codec
        placeholders = ", ".join("?" for _ in schema.attribute_names)
        inserts = [
            f"INSERT INTO {_q(table)} VALUES ({placeholders})"
            for table in (live_table(relation), live_delta_table(relation))
        ]
        count = 0
        batch: list[Row] = []

        def flush() -> None:
            for insert in inserts:
                conn.executemany(insert, batch)
            batch.clear()

        for raw in conn.execute(f"SELECT * FROM {_q(relation)}"):
            if spec(codec.decode_row(raw, schema)):
                batch.append(raw)
                count += 1
                if len(batch) >= self.SEED_BATCH:
                    flush()
        if batch:
            flush()
        return count

    def _membership(self, relation: str) -> "list[tuple[Row, bool]]":
        """Every stored row of *relation*, decoded, with its membership
        in the relation's live set."""
        schema = self.catalog[relation]
        cols = schema.attribute_names
        match = " AND ".join(f'l.{_q(c)} IS r.{_q(c)}' for c in cols)
        select = ", ".join(f'r.{_q(c)}' for c in cols)
        cursor = self.store.connection.execute(
            f"SELECT {select}, EXISTS(SELECT 1 FROM "
            f"{_q(live_table(relation))} AS l WHERE {match}) "
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
        rules: Sequence[DerivabilityRuleSQL] | None,
        max_iterations: int | None,
    ) -> tuple[dict[TupleNode, bool], EvaluationResult]:
        """Shared derivability/trust body: seed (per-relation spec, see
        :meth:`_seed_live`; absent = full extension), run the liveness
        fixpoint, and read every stored row's verdict."""
        dsql = self._derivability_sql()
        store = self.store
        store.reset_derivability(dsql)
        try:
            delta_counts: dict[str, int] = {}
            with store.connection:
                for relation in dsql.edb_relations:
                    count = self._seed_live(relation, seeds.get(relation))
                    if count:
                        delta_counts[relation] = count
            iterations, scanned = run_liveness_fixpoint(
                store,
                dsql,
                self.catalog,
                delta_counts,
                max_iterations,
                rules=rules,
                record_pm=False,
                tracer=self.tracer,
            )
            values = {
                TupleNode(relation, row): live
                for relation in dsql.relations
                for row, live in self._membership(relation)
            }
        finally:
            store.reset_derivability(dsql)
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
        dsql = self._derivability_sql()
        seeds: dict[str, object] = {}
        for relation in dsql.edb_relations:
            condition = policy.condition_for(relation)
            if condition is None:
                if not policy.default_trust:
                    seeds[relation] = SEED_NOTHING
                continue  # no condition + default trust: full extension
            seeds[relation] = condition
        rules = tuple(
            rule
            for rule in dsql.rules
            if rule.rule_name not in policy.distrusted_mappings
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
        lsql = self._lineage_sql()
        if node.relation not in lsql.relations:
            raise KeyError(node)
        store = self.store
        schema = catalog[node.relation]
        encoded = store.codec.encode_row(tuple(node.values))
        condition = " AND ".join(
            f"{_q(c)} IS ?" for c in schema.attribute_names
        )
        stored = store.connection.execute(
            f"SELECT 1 FROM {_q(node.relation)} WHERE {condition}", encoded
        ).fetchone()
        if stored is None:
            raise KeyError(node)

        store.reset_graph_query(lsql)
        try:
            iterations, scanned = self._walk_lineage(
                lsql, node.relation, encoded, max_iterations
            )
            leaves = frozenset(
                TupleNode(relation, row)
                for relation in lsql.edb_relations
                for row in self._closure_rows(relation)
            )
        finally:
            store.reset_graph_query(lsql)
        return leaves, self._result(iterations, scanned)

    def _walk_lineage(
        self,
        lsql: LineageSQL,
        seed_relation: str,
        encoded_seed: Row,
        max_iterations: int | None,
    ) -> tuple[int, int]:
        """The backward transitive-closure loop."""
        store = self.store
        conn = store.connection
        placeholders = ", ".join("?" for _ in encoded_seed)
        with conn:
            for table in (anc_table, anc_delta_table):
                conn.execute(
                    f"INSERT INTO {_q(table(seed_relation))} "
                    f"VALUES ({placeholders})",
                    encoded_seed,
                )
        delta_counts: dict[str, int] = {seed_relation: 1}
        stage_sql = {
            relation: stage_ancestor_sql(self.catalog, relation)
            for relation in lsql.relations
        }
        iteration = 0
        firing_rows = 0
        while any(
            delta_counts.get(head_relation)
            for rule in lsql.rules
            for head_relation, _stmt in rule.head_probes
        ):
            iteration += 1
            if max_iterations is not None and iteration > max_iterations:
                raise EvaluationError(
                    f"lineage walk did not converge within "
                    f"{max_iterations} iterations"
                )
            with self.tracer.span("walk.round") as round_span, conn:
                fired_before = firing_rows
                watermarks = {
                    rule.rule_name: store.max_rowid(rule.firing_table)
                    for rule in lsql.rules
                }
                for rule in lsql.rules:
                    for head_relation, statement in rule.head_probes:
                        if delta_counts.get(head_relation):
                            conn.execute(
                                statement.sql, dict(statement.params)
                            )
                for rule in lsql.rules:
                    watermark = watermarks[rule.rule_name]
                    fired = (
                        store.max_rowid(rule.firing_table) - watermark
                    )
                    if fired <= 0:
                        continue
                    firing_rows += fired
                    runtime = {"wm": watermark}
                    for statement in rule.body_inserts:
                        conn.execute(
                            statement.sql, {**statement.params, **runtime}
                        )
                for relation in lsql.relations:
                    conn.execute(stage_sql[relation])
                    conn.execute(
                        f"DELETE FROM {_q(anc_delta_table(relation))}"
                    )
                new_counts: dict[str, int] = {}
                for relation in lsql.relations:
                    fresh = store.count(anc_new_table(relation))
                    if fresh:
                        conn.execute(
                            f"INSERT INTO {_q(anc_table(relation))} "
                            f"SELECT * FROM {_q(anc_new_table(relation))}"
                        )
                        conn.execute(
                            f"INSERT INTO {_q(anc_delta_table(relation))} "
                            f"SELECT * FROM {_q(anc_new_table(relation))}"
                        )
                        conn.execute(
                            f"DELETE FROM {_q(anc_new_table(relation))}"
                        )
                        new_counts[relation] = fresh
                    conn.execute(
                        f"DELETE FROM {_q(anc_cand_table(relation))}"
                    )
                round_span.set("round", iteration).set(
                    "firings", firing_rows - fired_before
                )
                delta_counts = new_counts
        return iteration, firing_rows

    def _closure_rows(self, relation: str) -> "list[Row]":
        schema = self.catalog[relation]
        codec = self.store.codec
        cursor = self.store.connection.execute(
            f"SELECT * FROM {_q(anc_table(relation))}"
        )
        return [codec.decode_row(raw, schema) for raw in cursor]
