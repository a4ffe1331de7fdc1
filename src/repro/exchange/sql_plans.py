"""SQL lowering of the semi-naive fixpoints that run inside the store.

The paper's testbed runs update exchange *inside* an RDBMS: each
mapping rule becomes a relational query over the peers' tables, and a
semi-naive round executes whole delta batches as single set-oriented
statements.  The store runs three recursive computations of that
shape, and this module lowers all three into one record,
:class:`FixpointSQL`, which the one round driver
(:func:`repro.exchange.sql_executor.run_fixpoint`) executes:

* **exchange** (:data:`EXCHANGE`, :func:`lower_program`) — every
  :class:`~repro.datalog.planner.RulePlan` lowers to one ``INSERT INTO
  __fired_<rule> SELECT DISTINCT ... FROM __delta_<seed> JOIN ...``
  whose joins come from the plan's key parts, whose WHERE clause
  carries constant/repeated-variable checks, and whose *guard* steps
  (body atoms preceding the delta seed) become ``NOT EXISTS`` probes
  against the delta tables — the SQL rendering of the engine's
  once-per-firing rule.  The round's fresh firings then fill the
  ``__cand_*`` tables of the rule heads, with Skolem values (labeled
  nulls) built *inside SQL* by the registered ``repro_skolem``
  function, and the provenance relation ``P_m`` of each
  non-superfluous mapping (Section 4.1);
* **liveness** (:data:`LIVENESS`, :func:`lower_derivability_program`)
  — the DERIVABILITY test of deletion propagation (Q5) and of the
  unindexed ``derivability``/``trusted`` queries: ``__live_*`` sets
  grow from the surviving EDB leaves through the same rule bodies
  joined over the live sets (the least fixpoint, so cyclically
  self-supporting tuples correctly die).  Because the store holds an
  exchange fixpoint, re-joining *live* rows enumerates exactly the
  historical firings whose antecedents all survive.  After convergence
  one ``DELETE`` per derived relation kills the unsupported rows and
  one per ``P_m`` collects the firing-history rows no live firing
  projects onto;
* **lineage** (:data:`LINEAGE`, :func:`lower_lineage_program`) — the
  unindexed ``lineage`` query (Q6) walks the firing history
  *backwards*: :class:`HeadProbe` restricts each rule's firing
  enumeration to firings producing a row already known to be an
  ancestor (``__adelta_*``), and the fresh firings' *body* rows become
  the next ancestors.

A :class:`Fixpoint` names an instance's work tables and says what its
round-end stage keeps; a :class:`FixpointRule` is a firing table, the
triggers that fill it and the follow-up statements that read its fresh
rows.  All value comparisons use SQLite's null-safe ``IS`` operator so
SQL semantics match the Python engine's ``==`` on rows that may contain
``None``.  Statements use named parameters: compile-time constants bind
``:p<N>``; the per-round firing-table watermark binds ``:wm``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Sequence

from repro.cdss.mapping import SchemaMapping, provenance_relation_name
from repro.datalog.planner import (
    CompiledRule,
    K_CONST,
    K_SLOT,
    RulePlan,
    _assign_slots,
    _compile_term,
)
from repro.errors import ExchangeError
from repro.relational.instance import Catalog
from repro.relational.schema import is_local_name
from repro.storage.encoding import ValueCodec, quote_identifier as _q

#: pseudo attribute type for Skolem-argument decoding: "decode by tag
#: only" (ints/floats/strings pass through, labeled nulls re-intern).
ANY_TYPE = "any"

#: table-name prefix of the surviving ``P_m`` projections that deletion
#: propagation garbage-collects against.
LIVE_PM_PREFIX = "__lpm_"


@dataclass(frozen=True)
class Fixpoint:
    """One instance of the semi-naive SQL round.

    Work tables are named ``prefix + relation`` (``prefix + rule`` for
    firing logs): ``target`` is the set being grown (empty prefix: the
    stored relation itself), ``delta`` last round's additions,
    ``cand``/``new`` a round's candidates before and after the
    round-end stage.
    """

    target: str
    delta: str
    cand: str
    new: str
    fired: str
    #: the stage keeps candidates absent from the target; with
    #: ``stored_only`` they must also be stored rows (a derivation of a
    #: row that was never exchanged corresponds to no recorded firing).
    stored_only: bool
    #: prefixes of the work tables indexed on all their columns.
    indexed: tuple[str, ...]
    #: what a non-converging run's EvaluationError calls it.
    label: str
    #: spans: one per round; exchange also wraps every trigger
    #: statement and every round's publication.
    round_span: str
    statement_span: str | None = None
    publish_span: str | None = None


EXCHANGE = Fixpoint(
    "", "__delta_", "__cand_", "__new_", "__fired_",
    stored_only=False,
    indexed=("__delta_",),
    label="fixpoint",
    round_span="exchange.round",
    statement_span="exchange.statement",
    publish_span="exchange.publish",
)
LIVENESS = Fixpoint(
    "__live_", "__ldelta_", "__lcand_", "__lnew_", "__lfired_",
    stored_only=True,
    indexed=("__live_", LIVE_PM_PREFIX),
    label="derivability fixpoint",
    round_span="fixpoint.round",
)
LINEAGE = Fixpoint(
    "__anc_", "__adelta_", "__acand_", "__anew_", "__qfired_",
    stored_only=False,
    indexed=("__anc_", "__qfired_"),
    label="lineage walk",
    round_span="walk.round",
)


def slot_column(slot: int) -> str:
    return f"s{slot}"


@dataclass(frozen=True)
class Statement:
    """One parameterized SQL statement.

    ``params`` holds the compile-time (constant) bindings; runtime
    bindings — currently only the ``:wm`` watermark — are merged in by
    the executor.
    """

    sql: str
    params: Mapping[str, object]
    #: names of runtime parameters the executor must supply.
    runtime: tuple[str, ...] = ()


@dataclass(frozen=True)
class Trigger:
    """A statement filling its rule's firing table, run in a round
    when *relation*'s delta is non-empty."""

    relation: str
    statement: Statement
    #: exchange guards: when every stored row of one of these relations
    #: is in the current delta, the guard rejects every candidate and
    #: the round skips the statement — the memory engine's
    #: ``blocked()`` check.
    guarded: tuple[str, ...] = ()


@dataclass(frozen=True)
class FixpointRule:
    """One rule of a fixpoint: its firing table, the triggers that
    fill it, and the follow-ups over a round's fresh firings."""

    name: str
    num_slots: int
    fired: str
    triggers: tuple[Trigger, ...]
    #: (relation whose candidate table it fills — None for a history
    #: table such as ``P_m``, statement with runtime ``:wm``).
    follow_ups: tuple[tuple[str | None, Statement], ...]


@dataclass(frozen=True)
class FixpointSQL:
    """SQL lowering of one fixpoint instance over a whole program."""

    kind: Fixpoint
    rules: tuple[FixpointRule, ...]
    #: every relation with work tables, in program order.
    relations: tuple[str, ...]
    #: the relations no rule derives into (local contributions): the
    #: liveness seeds and the lineage answer.
    edb_relations: tuple[str, ...]
    #: relation -> round-end stage (candidates -> new rows), for each
    #: relation some follow-up fills candidates into.
    stages: Mapping[str, str]
    #: exchange: (relation, positions) indexes its joins want.
    indexes: tuple[tuple[str, tuple[int, ...]], ...] = ()
    #: liveness: (derived relation, delete its rows outside the live set).
    kills: tuple[tuple[str, str], ...] = ()
    #: liveness, per materialized ``P_m``: (the table a follow-up fills
    #: with the live firings' ``P_m`` projection, its columns, the
    #: garbage collection of ``P_m`` rows outside it).
    projections: tuple[tuple[str, tuple[str, ...], str], ...] = ()

    def work_tables(
        self, catalog: Catalog
    ) -> list[tuple[str, tuple[str, ...], bool]]:
        """(name, columns, a run may fill it) of every work table."""
        kind = self.kind
        tables = []
        for relation in self.relations:
            columns = catalog[relation].attribute_names
            staged = relation in self.stages
            if kind.target:
                tables.append((kind.target + relation, columns, True))
            tables += [
                (kind.delta + relation, columns, True),
                (kind.cand + relation, columns, staged),
                (kind.new + relation, columns, staged),
            ]
        for rule in self.rules:
            slots = tuple(slot_column(s) for s in range(rule.num_slots))
            tables.append((rule.fired, slots, True))
        for table, columns, _collect in self.projections:
            tables.append((table, columns, True))
        return tables

    def statements(self) -> Iterator[tuple[str, Statement]]:
        """(subject, statement) of every statement a run may issue
        beyond seeding and moving rows — what the lowering lint
        prepares."""
        for rule in self.rules:
            for trigger in rule.triggers:
                yield rule.name, trigger.statement
            for _relation, statement in rule.follow_ups:
                yield rule.name, statement
        for subject, sql in [
            *self.stages.items(),
            *self.kills,
            *((table, collect) for table, _columns, collect in self.projections),
        ]:
            yield subject, Statement(sql, {})


class _ParamAllocator:
    """Allocates :p<N> named parameters within one statement."""

    def __init__(self, codec: ValueCodec):
        self.codec = codec
        self.params: dict[str, object] = {}

    def bind(self, value: object) -> str:
        name = f"p{len(self.params)}"
        self.params[name] = self.codec.encode(value)
        return f":{name}"


def _columns(catalog: Catalog, relation: str) -> tuple[str, ...]:
    return catalog[relation].attribute_names


def _slot_types(crule: CompiledRule, catalog: Catalog) -> tuple[str, ...]:
    """Declared type per slot, from each variable's first occurrence in
    body order (plan-independent, hence shared by all of a rule's
    plans and by the firing-row decoder)."""
    slot_of = _assign_slots(crule.rule)
    types: dict[int, str] = {}
    for atom in crule.rule.body:
        col_types = [a.type for a in catalog[atom.relation].attributes]
        for pos, term in enumerate(atom.terms):
            for var in _term_variables(term):
                slot = slot_of[var]
                if slot not in types:
                    types[slot] = col_types[pos]
    return tuple(types.get(i, ANY_TYPE) for i in range(crule.num_slots))


def _term_variables(term):
    from repro.datalog.terms import SkolemTerm, Variable

    if isinstance(term, Variable):
        yield term
    elif isinstance(term, SkolemTerm):
        for arg in term.args:
            yield from _term_variables(arg)


def body_extractors(
    crule: CompiledRule,
) -> tuple[tuple[str, tuple[tuple[int, object], ...]], ...]:
    """Per body atom: (relation, extractors rebuilding its row from a
    slot row)."""
    slot_of = _assign_slots(crule.rule)
    return tuple(
        (atom.relation, tuple(_compile_term(t, slot_of) for t in atom.terms))
        for atom in crule.rule.body
    )


@dataclass(frozen=True)
class HeadProbe:
    """Restriction of a firing enumeration to wanted head rows.

    Lineage walks the firing history *backwards*: a firing is relevant
    only when one of its head atoms produces a row already known to be
    an ancestor of the query node.  The probe joins the enumeration
    against that head relation's ``__adelta_*`` table, equating each of
    the head atom's extractor expressions (Skolems included — they are
    reconstructed in SQL, so equal labeled nulls compare equal) with
    the corresponding ancestor column.
    """

    table: str
    columns: tuple[str, ...]
    extractors: tuple[tuple[int, object], ...]
    slot_types: tuple[str, ...]


def _plan_firing_sql(
    crule: CompiledRule,
    plan: RulePlan,
    catalog: Catalog,
    codec: ValueCodec,
    target: str,
    seed_prefix: str = "",
    join_prefix: str = "",
    guard_prefix: str | None = None,
    probe: HeadProbe | None = None,
    dedup: bool = False,
) -> Statement:
    """The ``INSERT ... SELECT DISTINCT`` enumerating one plan's firings.

    The seed atom ranges over ``seed_prefix + relation`` and every join
    step over ``join_prefix + relation`` (the frozen relations for
    exchange, the ``__live_*`` sets for liveness).  ``guard_prefix``
    names the delta tables the guard steps' ``NOT EXISTS``
    once-per-firing probes read (None skips them: liveness and lineage
    are set computations).  ``probe`` adds a join against a wanted-head
    table (the lineage walk's backward restriction), and ``dedup``
    skips firings already recorded in *target* — required when the same
    statement runs once per round of an iterative walk and firing rows
    drive watermark-delimited follow-ups.
    """
    alloc = _ParamAllocator(codec)
    seed = plan.seed
    seed_cols = _columns(catalog, seed.relation)
    slot_src: dict[int, str] = {}
    conditions: list[str] = []
    joins: list[str] = []

    seed_alias = "t0"
    for pos, slot in seed.binds:
        slot_src[slot] = f'{seed_alias}.{_q(seed_cols[pos])}'
    for pos, value in seed.const_checks:
        conditions.append(
            f'{seed_alias}.{_q(seed_cols[pos])} IS {alloc.bind(value)}'
        )
    for pos, slot in seed.checks:
        conditions.append(
            f'{seed_alias}.{_q(seed_cols[pos])} IS {slot_src[slot]}'
        )

    for index, step in enumerate(plan.steps, start=1):
        alias = f"t{index}"
        cols = _columns(catalog, step.relation)
        on_parts: list[str] = []
        for pos, (kind, payload) in zip(step.positions, step.key_parts):
            if kind == K_SLOT:
                rhs = slot_src[payload]
            else:
                rhs = alloc.bind(payload)
            on_parts.append(f'{alias}.{_q(cols[pos])} IS {rhs}')
        for pos, slot in step.binds:
            slot_src[slot] = f'{alias}.{_q(cols[pos])}'
        for pos, slot in step.checks:
            on_parts.append(f'{alias}.{_q(cols[pos])} IS {slot_src[slot]}')
        joins.append(
            f'JOIN {_q(join_prefix + step.relation)} AS {alias} '
            f"ON {' AND '.join(on_parts) if on_parts else '1'}"
        )
        if guard_prefix is not None and step.guard:
            guard_alias = f"g{index}"
            guard_conds = " AND ".join(
                f'{guard_alias}.{_q(col)} IS {alias}.{_q(col)}' for col in cols
            )
            conditions.append(
                f"NOT EXISTS (SELECT 1 FROM {_q(guard_prefix + step.relation)} "
                f"AS {guard_alias} WHERE {guard_conds})"
            )

    missing = [s for s in range(crule.num_slots) if s not in slot_src]
    if missing:  # pragma: no cover - plans bind every body variable
        raise ExchangeError(
            f"rule {crule.rule.name}: slots {missing} unbound after lowering"
        )
    if probe is not None:
        exprs = _extractor_sql(
            probe.extractors,
            alloc,
            probe.slot_types,
            slot_ref=slot_src.__getitem__,
        )
        on_parts = [
            f'q.{_q(column)} IS {expr}'
            for column, expr in zip(probe.columns, exprs)
        ]
        joins.append(
            f'JOIN {_q(probe.table)} AS q '
            f"ON {' AND '.join(on_parts) if on_parts else '1'}"
        )
    if dedup:
        match = " AND ".join(
            f'z.{_q(slot_column(s))} IS {slot_src[s]}'
            for s in range(crule.num_slots)
        ) or "1"
        conditions.append(
            f"NOT EXISTS (SELECT 1 FROM {_q(target)} AS z WHERE {match})"
        )
    select_list = ", ".join(slot_src[s] for s in range(crule.num_slots))
    target_cols = ", ".join(
        _q(slot_column(s)) for s in range(crule.num_slots)
    )
    where = f"\nWHERE {' AND '.join(conditions)}" if conditions else ""
    sql = (
        f"INSERT INTO {_q(target)} ({target_cols})\n"
        f"SELECT DISTINCT {select_list}\n"
        f"FROM {_q(seed_prefix + seed.relation)} AS {seed_alias}\n"
        + "\n".join(joins)
        + where
    )
    return Statement(sql, alloc.params)


def _fired_slot_ref(slot: int) -> str:
    """Default slot reference: the firing-table alias of the
    follow-ups (``f`` ranges over the rule's firing table)."""
    return f'f.{_q(slot_column(slot))}'


def _skolem_sql(
    payload: object,
    alloc: _ParamAllocator,
    slot_types: Sequence[str],
    slot_ref=_fired_slot_ref,
) -> str:
    """Lower a compiled Skolem extractor into a ``repro_skolem`` call."""
    function, arg_extractors = payload  # type: ignore[misc]
    arg_sql: list[str] = []
    arg_types: list[str] = []
    for kind, arg_payload in arg_extractors:
        if kind == K_SLOT:
            arg_sql.append(slot_ref(arg_payload))
            arg_types.append(slot_types[arg_payload])
        elif kind == K_CONST:
            arg_sql.append(alloc.bind(arg_payload))
            arg_types.append(
                "bool" if isinstance(arg_payload, bool) else ANY_TYPE
            )
        else:  # nested Skolem: decoded back by its tag
            arg_sql.append(_skolem_sql(arg_payload, alloc, slot_types, slot_ref))
            arg_types.append(ANY_TYPE)
    name = alloc.bind(function)
    types = alloc.bind(",".join(arg_types))
    args = ", ".join([name, types] + arg_sql)
    return f"repro_skolem({args})"


def _extractor_sql(
    extractors: Sequence[tuple[int, object]],
    alloc: _ParamAllocator,
    slot_types: Sequence[str],
    slot_ref=_fired_slot_ref,
) -> list[str]:
    out: list[str] = []
    for kind, payload in extractors:
        if kind == K_SLOT:
            out.append(slot_ref(payload))
        elif kind == K_CONST:
            out.append(alloc.bind(payload))
        else:
            out.append(_skolem_sql(payload, alloc, slot_types, slot_ref))
    return out


def _project_firings(
    extractors: Sequence[tuple[int, object]],
    slot_types: Sequence[str],
    codec: ValueCodec,
    target: str,
    fired: str,
) -> Statement:
    """Fresh firings -> one row per firing and atom in *target*."""
    alloc = _ParamAllocator(codec)
    exprs = _extractor_sql(extractors, alloc, slot_types)
    sql = (
        f"INSERT INTO {_q(target)}\n"
        f"SELECT DISTINCT {', '.join(exprs)}\n"
        f"FROM {_q(fired)} AS f\n"
        f"WHERE f.rowid > :wm"
    )
    return Statement(sql, alloc.params, runtime=("wm",))


def _project_provenance(
    crule: CompiledRule,
    mapping: SchemaMapping | None,
    target: str,
    fired: str,
) -> Statement | None:
    """Fresh firings -> *target* rows shaped like the mapping's ``P_m``
    (None for non-mappings and superfluous mappings)."""
    if mapping is None or not mapping.stores_provenance:
        return None
    slot_of = _assign_slots(crule.rule)
    cols = []
    exprs = []
    for column in mapping.provenance_columns:
        slot = slot_of.get(column.variable)
        if slot is None:  # pragma: no cover - safe mappings bind all keys
            raise ExchangeError(
                f"mapping {mapping.name}: provenance column {column.name} "
                "is not bound by the rule body"
            )
        cols.append(_q(column.name))
        exprs.append(f'f.{_q(slot_column(slot))}')
    dedup = " AND ".join(
        f"p.{col} IS {expr}" for col, expr in zip(cols, exprs)
    )
    sql = (
        f"INSERT INTO {_q(target)} ({', '.join(cols)})\n"
        f"SELECT DISTINCT {', '.join(exprs)}\n"
        f"FROM {_q(fired)} AS f\n"
        f"WHERE f.rowid > :wm\n"
        f"AND NOT EXISTS (SELECT 1 FROM {_q(target)} AS p WHERE {dedup})"
    )
    return Statement(sql, {}, runtime=("wm",))


def _stage_sql(kind: Fixpoint, catalog: Catalog, relation: str) -> str:
    """Round-end stage: the distinct candidates not yet in the target
    (and, for ``stored_only`` instances, stored)."""
    cols = _columns(catalog, relation)

    def row_in(table: str, alias: str) -> str:
        match = " AND ".join(f'{alias}.{_q(c)} IS c.{_q(c)}' for c in cols)
        return f"EXISTS (SELECT 1 FROM {_q(table)} AS {alias} WHERE {match})"

    conditions = [f"NOT {row_in(kind.target + relation, 't')}"]
    if kind.stored_only:
        conditions.insert(0, row_in(relation, "r"))
    return (
        f"INSERT INTO {_q(kind.new + relation)}\n"
        f"SELECT DISTINCT * FROM {_q(kind.cand + relation)} AS c\n"
        f"WHERE " + "\nAND ".join(conditions)
    )


def kill_sql(catalog: Catalog, relation: str) -> str:
    """Delete *relation*'s rows with no support among the live set."""
    match = " AND ".join(
        f'l.{_q(c)} IS {_q(relation)}.{_q(c)}'
        for c in _columns(catalog, relation)
    )
    return (
        f"DELETE FROM {_q(relation)} WHERE NOT EXISTS "
        f"(SELECT 1 FROM {_q(LIVENESS.target + relation)} AS l WHERE {match})"
    )


def pm_gc_sql(pm_table: str, live_pm: str, columns: Sequence[str]) -> str:
    """Garbage-collect ``P_m`` rows whose firing is no longer live."""
    match = " AND ".join(
        f'l.{_q(c)} IS {_q(pm_table)}.{_q(c)}' for c in columns
    )
    return (
        f"DELETE FROM {_q(pm_table)} WHERE NOT EXISTS "
        f"(SELECT 1 FROM {_q(live_pm)} AS l WHERE {match})"
    )


def _require_plans(crule: CompiledRule) -> None:
    if not crule.plans:
        raise ExchangeError(
            f"rule {crule.rule.name} cannot run on the sqlite engine "
            "(its body contains terms the planner does not compile); "
            'use exchange(engine="memory")'
        )


def _fixpoint(
    kind: Fixpoint,
    compiled: Sequence[CompiledRule],
    catalog: Catalog,
    rules: Sequence[FixpointRule],
    **extra,
) -> FixpointSQL:
    """Assemble the record: relations in program order, the EDB, and a
    stage for every relation some follow-up fills candidates into."""
    relations: dict[str, None] = {}
    heads: set[str] = set()
    for crule in compiled:
        for rel in crule.body_relations:
            relations.setdefault(rel, None)
        for rel, _extractors in crule.head:
            relations.setdefault(rel, None)
            heads.add(rel)
    filled = {r for rule in rules for r, _stmt in rule.follow_ups}
    return FixpointSQL(
        kind,
        tuple(rules),
        tuple(relations),
        tuple(r for r in relations if r not in heads),
        {r: _stage_sql(kind, catalog, r) for r in relations if r in filled},
        **extra,
    )


def lower_program(
    compiled: Sequence[CompiledRule],
    catalog: Catalog,
    mappings: Mapping[str, SchemaMapping],
    codec: ValueCodec,
) -> FixpointSQL:
    """Lower the exchange fixpoint; raises :class:`ExchangeError` when
    a rule's body is outside the planner's (and hence SQL's) fragment."""
    kind = EXCHANGE
    rules = []
    for crule in compiled:
        _require_plans(crule)
        name = crule.rule.name
        fired = kind.fired + name
        slot_types = _slot_types(crule, catalog)
        triggers = tuple(
            Trigger(
                plan.seed.relation,
                _plan_firing_sql(
                    crule, plan, catalog, codec, fired,
                    seed_prefix=kind.delta, guard_prefix=kind.delta,
                ),
                plan.guarded_relations,
            )
            for plan in crule.plans
        )
        follow_ups: list[tuple[str | None, Statement]] = [
            (rel, _project_firings(ext, slot_types, codec, kind.cand + rel, fired))
            for rel, ext in crule.head
        ]
        provenance = _project_provenance(
            crule, mappings.get(name), provenance_relation_name(name), fired
        )
        if provenance is not None:
            follow_ups.append((None, provenance))
        rules.append(
            FixpointRule(name, crule.num_slots, fired, triggers, tuple(follow_ups))
        )
    indexes: set[tuple[str, tuple[int, ...]]] = set()
    for crule in compiled:
        indexes |= crule.index_requirements()
    return _fixpoint(
        kind, compiled, catalog, rules, indexes=tuple(sorted(indexes))
    )


def lower_derivability_program(
    compiled: Sequence[CompiledRule],
    catalog: Catalog,
    mappings: Mapping[str, SchemaMapping],
    codec: ValueCodec,
) -> FixpointSQL:
    """Lower the whole program's DERIVABILITY test.

    A tuple is live iff it is an EDB (local-contribution) row that
    survived the victim marking, or some firing over live rows produces
    it *and* the tuple is still stored.  The leaf model requires every
    local-contribution relation to be an EDB leaf: a mapping deriving
    *into* an ``R_l`` relation would make its rows part-leaf,
    part-derived, which the relational test (unlike the per-node graph
    test) cannot express — rejected loudly.
    """
    kind = LIVENESS
    rules = []
    projections = []
    for crule in compiled:
        _require_plans(crule)
        name = crule.rule.name
        for rel, _extractors in crule.head:
            if is_local_name(rel):
                raise ExchangeError(
                    f"rule {name} derives into the "
                    f"local-contribution relation {rel}; the relational "
                    "derivability test treats local relations as EDB "
                    "leaves — rewrite the mapping to target the public "
                    "relation"
                )
        fired = kind.fired + name
        slot_types = _slot_types(crule, catalog)
        triggers = tuple(
            Trigger(
                plan.seed.relation,
                _plan_firing_sql(
                    crule, plan, catalog, codec, fired,
                    seed_prefix=kind.delta, join_prefix=kind.target,
                ),
            )
            for plan in crule.plans
        )
        follow_ups: list[tuple[str | None, Statement]] = [
            (rel, _project_firings(ext, slot_types, codec, kind.cand + rel, fired))
            for rel, ext in crule.head
        ]
        live_pm = LIVE_PM_PREFIX + name
        projection = _project_provenance(crule, mappings.get(name), live_pm, fired)
        if projection is not None:
            follow_ups.append((None, projection))
            columns = tuple(c.name for c in mappings[name].provenance_columns)
            collect = pm_gc_sql(provenance_relation_name(name), live_pm, columns)
            projections.append((live_pm, columns, collect))
        rules.append(
            FixpointRule(name, crule.num_slots, fired, triggers, tuple(follow_ups))
        )
    fsql = _fixpoint(
        kind, compiled, catalog, rules,
        projections=tuple(sorted(projections, key=lambda p: p[0])),
    )
    return replace(
        fsql,
        kills=tuple(
            (rel, kill_sql(catalog, rel))
            for rel in fsql.relations
            if rel not in fsql.edb_relations
        ),
    )


def lower_lineage_program(
    compiled: Sequence[CompiledRule],
    catalog: Catalog,
    codec: ValueCodec,
) -> FixpointSQL:
    """Lower the whole program's backward lineage walk.

    A rule's triggers run once per head atom, seeded from that head's
    ancestor delta; its follow-ups insert the fresh firings' body rows
    as ancestor candidates.  Shares the leaf model of the derivability
    lowering (only reachable after that one succeeded at exchange
    time): the answer is the closure's intersection with the EDB.
    """
    kind = LINEAGE
    rules = []
    for crule in compiled:
        _require_plans(crule)
        name = crule.rule.name
        fired = kind.fired + name
        slot_types = _slot_types(crule, catalog)
        # Any one plan gives a valid join order for the body — the walk
        # enumerates *all* firings matching the head probe, not firings
        # seeded from a particular delta atom — so take the first.
        plan = crule.plans[0]
        triggers = tuple(
            Trigger(
                rel,
                _plan_firing_sql(
                    crule, plan, catalog, codec, fired,
                    probe=HeadProbe(
                        kind.delta + rel,
                        _columns(catalog, rel),
                        tuple(extractors),
                        slot_types,
                    ),
                    dedup=True,
                ),
            )
            for rel, extractors in crule.head
        )
        follow_ups = tuple(
            (rel, _project_firings(ext, slot_types, codec, kind.cand + rel, fired))
            for rel, ext in body_extractors(crule)
        )
        rules.append(FixpointRule(name, crule.num_slots, fired, triggers, follow_ups))
    return _fixpoint(kind, compiled, catalog, rules)
