"""The maintained reachability index over the stored provenance graph.

The per-call graph queries of :mod:`repro.exchange.graph_queries`
recompute an ancestor (lineage) or liveness (derivability/trust)
closure from scratch on every call — correct, but a fixed ~tens-of-ms
cost per resident query that dwarfs the memory engine.  This module
maintains the closure *substrate* instead: a compact, integer-keyed
copy of the firing hypergraph that is kept current across
``exchange``/``propagate_deletions`` and answered from directly.

Design (documented in full in ``docs/graph-index.md``):

* every stored tuple gets a stable integer **node id**
  ``relno * REL_SHIFT + rowid`` (``relno`` is a small per-relation
  number persisted in ``__ridx_rel``; ``rowid`` is the row's SQLite
  rowid in its relation table);
* every recorded firing becomes one ``__ridx_fire`` row
  ``(fid, rule, head)`` plus one ``__ridx_body`` row per distinct body
  tuple — the hypergraph edge set, one integer row per endpoint
  instead of one wide slot-row join per traversal step;
* **maintenance** is incremental: after a resident exchange the fresh
  ``__fired_*`` log rows are translated into new fire/body rows, in the
  exchange's own transaction; a targeted deletion removes exactly the
  incident fires and records their heads as the **roots** of the
  pending cone (``__ridx_root``); deletion propagation prunes exactly
  the dead set it computed, whatever its size, set-at-a-time;
* the index **epoch** and state live in the store's ``__meta`` table,
  so a store reopened by path knows whether its index is current;
* the ancestor test is one recursive-CTE closure over the integer
  edge set, on every DAG shape — orders of magnitude cheaper than the
  slot-row walk.

This module is the index's **write** side: the lowering, the schema,
and every maintenance event.  Reads live in
:mod:`repro.exchange.index_reads` — one pure-SELECT core that answers
``lineage``/``derivability``/``trusted`` for the writer
(:class:`~repro.exchange.graph_queries.StoreGraphQueries`) and the
serving tier's read-only sessions alike; the unindexed relational
walks survive untouched as the testing oracle (``use_index=False``).
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.cdss.mapping import SchemaMapping, provenance_relation_name
from repro.datalog.planner import CompiledRule
from repro.datalog.terms import Constant, Variable
from repro.exchange.sql_plans import (
    EXCHANGE,
    LIVENESS,
    _ParamAllocator,
    _extractor_sql,
    _plan_firing_sql,
    _slot_types,
    Statement,
    body_extractors,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.relational.instance import Catalog
from repro.relational.schema import is_local_name
from repro.storage.encoding import ValueCodec, quote_identifier as _q

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exchange.index_reads import IndexReadCore
    from repro.exchange.sql_executor import ExchangeStore

#: node-id stride between relations: id = relno * REL_SHIFT + rowid.
#: 2^40 rowids per relation — far beyond any resident working set —
#: while products stay well inside SQLite's signed 64-bit integers.
REL_SHIFT = 1 << 40

#: permanent index tables.
REL_TABLE = "__ridx_rel"
FIRE_TABLE = "__ridx_fire"
BODY_TABLE = "__ridx_body"
#: heads of the fires targeted deletions pruned since the last
#: propagation: the roots of the pending cone.
ROOT_TABLE = "__ridx_root"

#: ``__meta`` key of the roots marker: present while ``__ridx_root``
#: names every node a deletion since the last propagation may have
#: left underivable, and every other stored tuple is derivable.
ROOTS_COMPLETE = "roots_complete"

#: TEMP work tables of deletion pruning (connection-local, emptied by
#: the maintenance step that fills them), with their one key column.
_PRUNE_TEMPS = (("__rq_dead", "id"), ("__rq_deadfid", "fid"))
#: TEMP table of the cone path's ``P_m`` candidates: (``P_m`` table,
#: rowid) pairs whose firings may all have died.
PM_CANDIDATES = "__rq_pm"


def create_root_table(connection: sqlite3.Connection) -> None:
    """Create (idempotently) the persisted root table; the caller
    commits."""
    connection.execute(
        f"CREATE TABLE IF NOT EXISTS {_q(ROOT_TABLE)} "
        "(id INTEGER PRIMARY KEY)"
    )


def create_prune_temps(connection: sqlite3.Connection) -> None:
    """Create the connection-local work tables of deletion pruning.

    Called when the connection opens, outside any transaction: a TEMP
    table created inside one would vanish with its rollback."""
    for name, column in _PRUNE_TEMPS:
        connection.execute(
            f"CREATE TEMP TABLE IF NOT EXISTS {_q(name)} "
            f"({column} INTEGER PRIMARY KEY)"
        )
    connection.execute(
        f"CREATE TEMP TABLE IF NOT EXISTS {_q(PM_CANDIDATES)} "
        "(pm TEXT NOT NULL, rid INTEGER NOT NULL, PRIMARY KEY (pm, rid)) "
        "WITHOUT ROWID"
    )


def load_relnos(connection: sqlite3.Connection) -> dict[str, int]:
    """Relation-name -> relno map from ``__ridx_rel`` on any connection."""
    return {
        str(name): int(relno)
        for name, relno in connection.execute(
            f"SELECT name, relno FROM {_q(REL_TABLE)}"
        )
    }


# -- lowering ----------------------------------------------------------------


@dataclass(frozen=True)
class ReachHeadSQL:
    """Index maintenance for one (rule, head atom) pair."""

    relation: str
    #: fresh ``__fired_*`` rows -> ``__ridx_fire`` (runtime: wm, base,
    #: hbase — the head relation's id base).
    fire_insert: Statement
    #: per body atom: (relation, fresh fires -> ``__ridx_body``;
    #: runtime: wm, base, bbase).
    body_inserts: tuple[tuple[str, Statement], ...]


@dataclass(frozen=True)
class ReachRuleSQL:
    """Index maintenance for one rule of the program."""

    rule_name: str
    firing_table: str
    #: re-enumerates the rule's *entire* firing history into its firing
    #: table (index rebuild; seeds from the full stored relation).
    enumerate_all: Statement
    heads: tuple[ReachHeadSQL, ...]


@dataclass(frozen=True)
class ReachSQL:
    """SQL lowering of the whole program's index maintenance."""

    rules: tuple[ReachRuleSQL, ...]
    #: every relation whose rows get node ids.
    relations: tuple[str, ...]


def _endpoint_insert(
    crule: CompiledRule,
    target: str,
    id_column: str,
    base_param: str,
    relation: str,
    extractors: Sequence[tuple[int, object]],
    slot_types: Sequence[str],
    catalog: Catalog,
    codec: ValueCodec,
    rule_param: str | None = None,
    or_ignore: bool = False,
) -> Statement:
    """Fresh firings -> one endpoint row per firing.

    Joins the firing log against *relation* on the atom's extractor
    expressions (Skolems rebuilt in SQL, so equal labeled nulls match)
    to resolve each firing's endpoint tuple to its rowid, then shifts
    it into the relation's id range.  ``rule_param`` additionally emits
    the fire row's rule-name column (head endpoints only).
    """
    alloc = _ParamAllocator(codec)
    exprs = _extractor_sql(extractors, alloc, slot_types)
    cols = catalog[relation].attribute_names
    on = " AND ".join(
        f'r.{_q(c)} IS {e}' for c, e in zip(cols, exprs)
    ) or "1"
    select = [":base + f.rowid"]
    columns = ["fid"]
    if rule_param is not None:
        select.append(alloc.bind(rule_param))
        columns.append("rule")
    select.append(f"r.rowid + :{base_param}")
    columns.append(id_column)
    verb = "INSERT OR IGNORE" if or_ignore else "INSERT"
    sql = (
        f"{verb} INTO {_q(target)} ({', '.join(columns)})\n"
        f"SELECT {', '.join(select)}\n"
        f"FROM {_q(EXCHANGE.fired + crule.rule.name)} AS f\n"
        f"JOIN {_q(relation)} AS r ON {on}\n"
        f"WHERE f.rowid > :wm"
    )
    return Statement(sql, alloc.params, runtime=("wm", "base", base_param))


@dataclass(frozen=True)
class ConeCollect:
    """How the cone path garbage-collects one mapping's ``P_m``.

    A ``P_m`` row can only lose its last firing if one of that firing's
    body tuples died; the firing's ``P_m`` key then agrees with the dead
    tuple on the atom's key columns.  So the candidates are the rows
    that match a dead tuple (``__rq_dead``) on some body atom's key
    columns, and a candidate dies unless the rule body still joins over
    the stored relations with its key columns bound to the row — the
    rule of ``CDSS._collected_provenance_rows``.
    """

    #: per body atom: (relation, candidate rows -> ``__rq_pm``; runtime:
    #: base, top — the relation's node-id range).
    candidates: tuple[tuple[str, Statement], ...]
    #: deletes the candidates no stored firing supports any more.
    collect: Statement


@dataclass(frozen=True)
class ConeSQL:
    """SQL lowering of the cone path's ``P_m`` collection."""

    collects: tuple[ConeCollect, ...]
    #: False when a mapping that stores ``P_m`` reads a local relation:
    #: a leaf victim leaves the store at its delete, before the cone
    #: path could match its key columns, so such programs always take
    #: the full fixpoint.
    exact: bool


def _sql_literal(text: str) -> str:
    return "'" + text.replace("'", "''") + "'"


def _cone_collect(
    mapping: SchemaMapping, catalog: Catalog, codec: ValueCodec
) -> ConeCollect:
    table = provenance_relation_name(mapping.name)
    pm_columns = {column.variable for column in mapping.provenance_columns}
    candidates = []
    for atom in mapping.body:
        alloc = _ParamAllocator(codec)
        schema = catalog[atom.relation]
        on, where = [], []
        for position in schema.key_positions:
            term = atom.terms[position]
            column = f"r.{_q(schema.attribute_names[position])}"
            if isinstance(term, Variable) and term in pm_columns:
                on.append(f"p.{_q(term.name)} IS {column}")
            elif isinstance(term, Constant):
                where.append(f"{column} IS {alloc.bind(term.value)}")
        sql = (
            f"INSERT OR IGNORE INTO {_q(PM_CANDIDATES)} (pm, rid)\n"
            f"SELECT {_sql_literal(table)}, p.rowid "
            'FROM "__rq_dead" AS d\n'
            f"JOIN {_q(atom.relation)} AS r ON r.rowid = d.id - :base\n"
            f"JOIN {_q(table)} AS p ON {' AND '.join(on) or '1'}\n"
            "WHERE " + " AND ".join(["d.id >= :base", "d.id < :top", *where])
        )
        candidates.append(
            (atom.relation, Statement(sql, alloc.params, ("base", "top")))
        )
    # The survival test: the body joined over the stored relations with
    # every P_m column bound to the candidate row.
    alloc = _ParamAllocator(codec)
    sources, conditions = [], []
    refs: dict[Variable, str] = {
        var: f"{_q(table)}.{_q(var.name)}" for var in pm_columns
    }
    for number, atom in enumerate(mapping.body):
        alias = f"a{number}"
        sources.append(f"{_q(atom.relation)} AS {alias}")
        names = catalog[atom.relation].attribute_names
        for name, term in zip(names, atom.terms):
            column = f"{alias}.{_q(name)}"
            if isinstance(term, Constant):
                conditions.append(f"{column} IS {alloc.bind(term.value)}")
            elif term in refs:
                conditions.append(f"{column} IS {refs[term]}")
            else:
                refs[term] = column
    sql = (
        f"DELETE FROM {_q(table)} WHERE rowid IN "
        f"(SELECT rid FROM {_q(PM_CANDIDATES)} "
        f"WHERE pm = {_sql_literal(table)})\n"
        f"AND NOT EXISTS (SELECT 1 FROM {', '.join(sources)}"
        + (f" WHERE {' AND '.join(conditions)}" if conditions else "")
        + ")"
    )
    return ConeCollect(tuple(candidates), Statement(sql, alloc.params))


def lower_cone_program(
    mappings: Mapping[str, SchemaMapping],
    catalog: Catalog,
    codec: ValueCodec,
) -> ConeSQL:
    """Lower the cone path's ``P_m`` collection for every mapping that
    stores provenance (mappings in name order)."""
    stored = [
        mappings[name]
        for name in sorted(mappings)
        if mappings[name].stores_provenance
    ]
    return ConeSQL(
        tuple(_cone_collect(mapping, catalog, codec) for mapping in stored),
        exact=not any(
            is_local_name(atom.relation)
            for mapping in stored
            for atom in mapping.body
        ),
    )


def lower_reach_program(
    compiled: Sequence[CompiledRule],
    catalog: Catalog,
    codec: ValueCodec,
) -> ReachSQL:
    """Lower every rule's index-maintenance statements.

    Only reachable after :func:`~repro.exchange.sql_plans.lower_program`
    succeeded for the same program, so every rule has at least one plan
    and the shared leaf model (local relations are pure EDB leaves)
    already holds.
    """
    relations: dict[str, None] = {}
    for crule in compiled:
        for rel in crule.body_relations:
            relations.setdefault(rel, None)
        for rel, _extractors in crule.head:
            relations.setdefault(rel, None)
    rules = []
    for crule in compiled:
        name = crule.rule.name
        fired = EXCHANGE.fired + name
        slot_types = _slot_types(crule, catalog)
        body_atoms = body_extractors(crule)
        head_sqls = []
        for relation, extractors in crule.head:
            fire = _endpoint_insert(
                crule, FIRE_TABLE, "head", "hbase", relation,
                tuple(extractors), slot_types, catalog, codec,
                rule_param=name,
            )
            body_inserts = tuple(
                (
                    body_rel,
                    # OR IGNORE: two body atoms of one rule may match
                    # the same stored row — one hyperedge endpoint.
                    _endpoint_insert(
                        crule, BODY_TABLE, "body", "bbase", body_rel,
                        body_ext, slot_types, catalog, codec,
                        or_ignore=True,
                    ),
                )
                for body_rel, body_ext in body_atoms
            )
            head_sqls.append(ReachHeadSQL(relation, fire, body_inserts))
        # Any one plan gives a valid join order for re-enumerating the
        # complete firing history: seeded from the full stored seed
        # relation with no guards, the joins recover every recorded
        # firing (the store holds an exchange fixpoint).
        enumerate_all = _plan_firing_sql(
            crule, crule.plans[0], catalog, codec, fired
        )
        rules.append(
            ReachRuleSQL(name, fired, enumerate_all, tuple(head_sqls))
        )
    return ReachSQL(tuple(rules), tuple(relations))


# -- the index ---------------------------------------------------------------


class ReachabilityIndex:
    """Maintains and answers the integer reachability index of a store.

    One instance per :class:`~repro.exchange.sql_executor.ExchangeStore`
    (``store.reach_index``).  All persistent state — the fire/body
    tables, relation-number registry, epoch, and current/stale flag —
    lives in the store file, so a store reopened by path resumes with
    a usable (or correctly stale-marked) index.
    """

    def __init__(self, store: "ExchangeStore"):
        self.store = store
        self._relnos: dict[str, int] = {}
        self._schema_ready = False
        #: the writer's read core (built by ``StoreGraphQueries``, kept
        #: here so its per-epoch caches outlive the per-query objects).
        self.read_core: "IndexReadCore | None" = None

    # -- persistent state ----------------------------------------------------

    @property
    def state(self) -> str | None:
        """``'current'``, ``'stale'``, or ``None`` (never built)."""
        value = self.store.meta_get("index_state")
        return str(value) if value is not None else None

    @property
    def epoch(self) -> int:
        """Monotone content version; bumped by every maintenance event
        that may change the index (caches key on it)."""
        value = self.store.meta_get("index_epoch")
        return int(value) if value is not None else 0

    @property
    def current(self) -> bool:
        return self.state == "current"

    @property
    def roots_complete(self) -> bool:
        """True while the roots marker is set: deletion propagation may
        then walk the pending cone instead of the whole store."""
        return bool(self.store.meta_get(ROOTS_COMPLETE))

    def set_roots_complete(self, complete: bool) -> None:
        """Set or remove the roots marker (rides the caller's
        transaction, if one is open)."""
        if complete:
            self.store.meta_set(ROOTS_COMPLETE, 1)
        else:
            self.store.meta_delete(ROOTS_COMPLETE)

    def _bump_epoch(self) -> None:
        self.store.meta_set("index_epoch", self.epoch + 1)

    # -- schema --------------------------------------------------------------

    def ensure_schema(self, rsql: ReachSQL) -> None:
        """Create (idempotently) the permanent index tables and
        register a relation number for every relation of *rsql*."""
        conn = self.store.connection
        if not self._schema_ready:
            conn.execute(
                f"CREATE TABLE IF NOT EXISTS {_q(REL_TABLE)} "
                "(name TEXT PRIMARY KEY, relno INTEGER NOT NULL)"
            )
            conn.execute(
                f"CREATE TABLE IF NOT EXISTS {_q(FIRE_TABLE)} "
                "(fid INTEGER PRIMARY KEY, rule TEXT NOT NULL, "
                "head INTEGER NOT NULL)"
            )
            conn.execute(
                f"CREATE INDEX IF NOT EXISTS {_q('__ix_' + FIRE_TABLE + '_head')} "
                f"ON {_q(FIRE_TABLE)} (head)"
            )
            conn.execute(
                f"CREATE TABLE IF NOT EXISTS {_q(BODY_TABLE)} "
                "(fid INTEGER NOT NULL, body INTEGER NOT NULL, "
                "PRIMARY KEY (fid, body)) WITHOUT ROWID"
            )
            conn.execute(
                f"CREATE INDEX IF NOT EXISTS {_q('__ix_' + BODY_TABLE + '_body')} "
                f"ON {_q(BODY_TABLE)} (body)"
            )
            # Legacy stores carry a fourth index table and two
            # bookkeeping keys that nothing reads.
            conn.execute('DROP TABLE IF EXISTS "__ridx_info"')
            conn.execute(
                'DELETE FROM "__meta" WHERE key IN '
                "('index_enc_epoch', 'index_tree_exact')"
            )
            conn.commit()
            self._schema_ready = True
        missing = [r for r in rsql.relations if r not in self._relnos]
        if missing:
            self._load_relnos()
            missing = [r for r in rsql.relations if r not in self._relnos]
        if missing:
            with conn:
                next_no = (
                    max(self._relnos.values()) + 1 if self._relnos else 0
                )
                for name in missing:
                    conn.execute(
                        f"INSERT INTO {_q(REL_TABLE)} (name, relno) "
                        "VALUES (?, ?)",
                        (name, next_no),
                    )
                    self._relnos[name] = next_no
                    next_no += 1

    def _load_relnos(self) -> None:
        self._relnos.update(load_relnos(self.store.connection))

    def relno(self, relation: str) -> int | None:
        """The relation's persistent number, or None if unregistered."""
        if relation not in self._relnos:
            self._load_relnos()
        return self._relnos.get(relation)

    def id_base(self, relation: str) -> int | None:
        relno = self.relno(relation)
        return None if relno is None else relno * REL_SHIFT

    def maintains(self, relation: str) -> bool:
        """True iff the index is current and covers *relation* — i.e.
        a targeted mutation of that relation must (and can) keep the
        index in lockstep."""
        return (
            self.current
            and self.store.has_table(FIRE_TABLE)
            and self.relno(relation) is not None
        )

    # -- maintenance ---------------------------------------------------------

    def on_run_complete(
        self,
        rsql: ReachSQL,
        full_log: bool,
        was_current: bool,
        tracer: "Tracer | NullTracer" = NULL_TRACER,
    ) -> None:
        """Bring the index up to date at the end of a resident run, in
        the run's own transaction (the caller owns it).

        *full_log* says the run was seeded from the whole store (its
        ``__fired_*`` logs are the complete firing history — the run
        re-enumerated everything); *was_current* says the index matched
        the store when the run started (so the incremental logs are
        exactly the genuinely new firings).  Chooses, in order: replace
        content from the full log / extend from the incremental log /
        rebuild by re-enumerating the history.  Always bumps the epoch
        and finishes ``'current'``.
        """
        with tracer.span("index.maintain") as span:
            if full_log:
                mode = "replace"
                self._clear_content()
                fires = self._extend_from_log(rsql)
            elif was_current:
                mode = "extend"
                fires = self._extend_from_log(rsql)
            else:
                mode = "rebuild"
                fires = self.rebuild_from_store(rsql)
            self._finalize_epoch()
            span.set("mode", mode).set("fires", fires)

    def _finalize_epoch(self) -> None:
        self._bump_epoch()
        self.store.meta_set("index_state", "current")

    def _clear_content(self) -> None:
        conn = self.store.connection
        conn.execute(f"DELETE FROM {_q(FIRE_TABLE)}")
        conn.execute(f"DELETE FROM {_q(BODY_TABLE)}")

    def _extend_from_log(self, rsql: ReachSQL) -> int:
        """Translate every ``__fired_*`` log row into fire/body rows.

        Caller supplies the transaction.  Allocates one fid block per
        (rule, head atom): fid = block base + firing rowid, so the fire
        insert and every body insert of the pair correlate without any
        join-back.  Returns the number of fire rows added.
        """
        conn = self.store.connection
        next_fid = int(self.store.meta_get("index_next_fid") or 0)
        added = 0
        for rule in rsql.rules:
            top = self.store.max_rowid(rule.firing_table)
            if top <= 0:
                continue
            for head in rule.heads:
                hbase = self.id_base(head.relation)
                runtime = {"wm": 0, "base": next_fid, "hbase": hbase}
                cursor = conn.execute(
                    head.fire_insert.sql,
                    {**head.fire_insert.params, **runtime},
                )
                added += max(cursor.rowcount, 0)
                for body_rel, statement in head.body_inserts:
                    runtime = {
                        "wm": 0,
                        "base": next_fid,
                        "bbase": self.id_base(body_rel),
                    }
                    conn.execute(
                        statement.sql, {**statement.params, **runtime}
                    )
                next_fid += top
        self.store.meta_set("index_next_fid", next_fid)
        return added

    def rebuild_from_store(self, rsql: ReachSQL) -> int:
        """Rebuild the whole index by re-enumerating the firing history
        from the stored relations (the caller owns the transaction).
        The ``__fired_*`` logs are borrowed as scratch and left empty."""
        conn = self.store.connection
        for rule in rsql.rules:
            conn.execute(f"DELETE FROM {_q(rule.firing_table)}")
            conn.execute(
                rule.enumerate_all.sql, dict(rule.enumerate_all.params)
            )
        self._clear_content()
        fires = self._extend_from_log(rsql)
        for rule in rsql.rules:
            conn.execute(f"DELETE FROM {_q(rule.firing_table)}")
        return fires

    def rebuild(
        self, rsql: ReachSQL, tracer: "Tracer | NullTracer" = NULL_TRACER
    ) -> int:
        """Query-time recovery: rebuild a stale/absent index from the
        stored firing history and mark it current, in one transaction
        (the ``index.rebuild`` span brackets the work).  Queries answer
        over the store as it stands — the same window the unindexed
        paths see — so this is always safe."""
        with tracer.span("index.rebuild") as span, self.store.connection:
            fires = self.rebuild_from_store(rsql)
            self._finalize_epoch()
            span.set("fires", fires)
        return fires

    def on_rows_deleted(self, relation: str, rowids: Sequence[int]) -> None:
        """Targeted maintenance for deleted stored rows of one relation
        (caller supplies the transaction — the one that deleted them —
        and has checked :meth:`maintains`).  Removes the fires incident
        to the nodes — they reference tuples that no longer exist, so
        the unindexed join paths would not enumerate them either —
        records those fires' surviving heads as roots of the pending
        cone, and bumps the epoch once."""
        conn = self.store.connection
        base = self.id_base(relation)
        conn.execute('DELETE FROM "__rq_dead"')
        conn.executemany(
            'INSERT OR IGNORE INTO "__rq_dead" VALUES (?)',
            [(base + rowid,) for rowid in rowids],
        )
        self.finish_prune(record_roots=True)

    def begin_prune(
        self, derived_relations: Iterable[str], catalog: Catalog
    ) -> None:
        """Capture the about-to-die derived rows (inside the caller's
        kill transaction, *before* the kill sweeps run): every stored
        row with no live-set match goes into ``__rq_dead`` as a node
        id.  Leaf victims were already cleaned per-delete."""
        conn = self.store.connection
        conn.execute('DELETE FROM "__rq_dead"')
        for relation in derived_relations:
            base = self.id_base(relation)
            if base is None:
                continue
            cols = catalog[relation].attribute_names
            match = " AND ".join(
                f'l.{_q(c)} IS r.{_q(c)}' for c in cols
            )
            conn.execute(
                f'INSERT INTO "__rq_dead" '
                f"SELECT r.rowid + {base} FROM {_q(relation)} AS r "
                f"WHERE NOT EXISTS (SELECT 1 FROM "
                f"{_q(LIVENESS.target + relation)} AS l WHERE {match})"
            )

    def finish_prune(self, record_roots: bool = False) -> None:
        """Delete every fire with a head or body node in ``__rq_dead``
        (same transaction as whatever killed those nodes), leave both
        work tables empty, and bump the epoch if any node was named.
        Exact whatever the cone's size, no cascade: after a targeted
        deletion the heads left behind are recorded as roots
        (*record_roots*); after a propagation every fire not incident
        to a dead node has all endpoints alive."""
        conn = self.store.connection
        if conn.execute('SELECT 1 FROM "__rq_dead" LIMIT 1').fetchone() is None:
            return
        conn.execute('DELETE FROM "__rq_deadfid"')
        conn.execute(
            'INSERT INTO "__rq_deadfid" '
            f'SELECT fid FROM {_q(FIRE_TABLE)} '
            'WHERE head IN (SELECT id FROM "__rq_dead") UNION '
            f'SELECT fid FROM {_q(BODY_TABLE)} '
            'WHERE body IN (SELECT id FROM "__rq_dead")'
        )
        if record_roots:
            conn.execute(
                f"INSERT OR IGNORE INTO {_q(ROOT_TABLE)} "
                f"SELECT head FROM {_q(FIRE_TABLE)} "
                'WHERE fid IN (SELECT fid FROM "__rq_deadfid") '
                'AND head NOT IN (SELECT id FROM "__rq_dead")'
            )
        for table in (FIRE_TABLE, BODY_TABLE):
            conn.execute(
                f"DELETE FROM {_q(table)} "
                'WHERE fid IN (SELECT fid FROM "__rq_deadfid")'
            )
        conn.execute('DELETE FROM "__rq_dead"')
        conn.execute('DELETE FROM "__rq_deadfid"')
        self._bump_epoch()
