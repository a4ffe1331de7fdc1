"""The SQL-backed ProQL engine (Section 4.2).

It reads the one relational encoding of the provenance graph — the
exchange store's relation and ``P_m`` tables, bound to a CDSS by
:class:`~repro.storage.sqlite_backend.SQLiteStorage` — so it runs over
a memory-engine system's loaded store and over a store-resident
system's pinned store alike.  Pipeline, mirroring the paper's stages:

1. build the provenance **schema graph** from the mappings (shared
   across queries);
2. **match** each path expression against it (anchor relations,
   per-step mapping restrictions from ``<m`` steps and WHERE);
3. **unfold** into a union of conjunctive rules over provenance/local/
   base relations (optionally rewritten to use ASRs — Section 5);
4. **execute** each rule as SQL over the SQLite store, in a
   goal-directed fashion;
5. **reconstruct** the matched provenance subgraph from the result
   rows' derivation-tree specs, then evaluate bindings, INCLUDE paths,
   RETURN, and any annotation on that (small) subgraph with the
   reference semantics — the one EVALUATE path.

Step 5 guarantees the SQL engine agrees with the graph engine by
construction wherever both apply; the SQL work (unfolding + joins) is
what the paper measures, surfaced in :class:`SQLStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.obs.trace import NULL_TRACER
from repro.proql.ast import (
    Evaluation,
    PathCondition,
    PathExpr,
    Projection,
    Query,
    Step,
    TupleSpec,
)
from repro.proql.conditions import mapping_name_constraints
from repro.proql.graph_engine import GraphEngine, ProQLResult
from repro.proql.parser import parse_query
from repro.proql.schema_graph import SchemaGraph
from repro.proql.sql_translator import (
    CompiledRule,
    SchemaLookup,
    compile_rule,
    default_schema_lookup,
)
from repro.proql.unfolding import KIND_BASE, UnfoldedRule, Unfolder
from repro.provenance.graph import DerivationNode, ProvenanceGraph, TupleNode
from repro.storage.sqlite_backend import SQLiteStorage


@dataclass
class SQLStats:
    """Per-query pipeline metrics (the quantities of Figures 7-13)."""

    unfolded_rules: int = 0
    unfold_seconds: float = 0.0
    compile_seconds: float = 0.0
    sql_seconds: float = 0.0
    reconstruct_seconds: float = 0.0
    rows: int = 0
    max_join_width: int = 0

    @property
    def query_processing_seconds(self) -> float:
        """Unfolding + evaluation time, the paper's headline metric."""
        return (
            self.unfold_seconds
            + self.compile_seconds
            + self.sql_seconds
            + self.reconstruct_seconds
        )

    def merge(self, other: "SQLStats") -> None:
        self.unfolded_rules += other.unfolded_rules
        self.unfold_seconds += other.unfold_seconds
        self.compile_seconds += other.compile_seconds
        self.sql_seconds += other.sql_seconds
        self.reconstruct_seconds += other.reconstruct_seconds
        self.rows += other.rows
        self.max_join_width = max(self.max_join_width, other.max_join_width)


@dataclass
class SQLResult(ProQLResult):
    """ProQL result plus SQL pipeline statistics."""

    stats: SQLStats = field(default_factory=SQLStats)


#: Rewrites the unfolded rules (identity unless ASRs are registered).
RuleRewriter = Callable[[list[UnfoldedRule]], list[UnfoldedRule]]


class SQLEngine:
    """Evaluates ProQL over the relational provenance store."""

    def __init__(
        self,
        storage: SQLiteStorage,
        rewriter: RuleRewriter | None = None,
        schema_lookup: SchemaLookup | None = None,
        max_rules: int = 100_000,
        prune: bool = True,
    ) -> None:
        self.storage = storage
        self.cdss = storage.cdss
        self.schema_graph = SchemaGraph.of(self.cdss)
        self.tracer = getattr(self.cdss, "tracer", None) or NULL_TRACER
        # The unfolded-program cache lives on the CDSS (like
        # plan_cache) so repeat queries hit it across engine instances.
        cache = getattr(self.cdss, "unfold_cache", None)
        self.unfolder = Unfolder(
            self.cdss,
            self.schema_graph,
            max_rules=max_rules,
            tracer=self.tracer,
            prune=prune,
            cache=cache,
        )
        self.rewriter = rewriter
        self.schema_lookup = schema_lookup or default_schema_lookup(self.cdss)

    # -- helpers ------------------------------------------------------------

    def _public_relations(self) -> list[str]:
        return sorted(
            relation
            for peer in self.cdss.peers.values()
            for relation in peer.relation_names()
        )

    def _anchor_relations(self, spec: TupleSpec, var_relations: dict[str, str]) -> list[str]:
        if spec.relation is not None:
            return [self.schema_graph.check_relation(spec.relation)]
        if spec.variable is not None and spec.variable in var_relations:
            return [var_relations[spec.variable]]
        return self._public_relations()

    @staticmethod
    def _var_relations(projection: Projection) -> dict[str, str]:
        out: dict[str, str] = {}
        for path in projection.for_paths:
            for spec in path.specs:
                if spec.variable is not None and spec.relation is not None:
                    out.setdefault(spec.variable, spec.relation)
        return out

    @staticmethod
    def _step_mappings(
        projection: Projection,
    ) -> Callable[[Step], set[str] | None]:
        where = projection.where

        def allowed(step: Step) -> set[str] | None:
            if step.mapping is not None:
                return {step.mapping}
            if step.variable is not None:
                return mapping_name_constraints(where, step.variable)
            return None

        return allowed

    @staticmethod
    def _all_paths(projection: Projection) -> list[PathExpr]:
        paths = list(projection.for_paths)
        paths.extend(projection.include_paths)
        stack = [projection.where] if projection.where is not None else []
        while stack:
            condition = stack.pop()
            if isinstance(condition, PathCondition):
                paths.append(condition.path)
            for attr in ("operands", "operand"):
                inner = getattr(condition, attr, None)
                if inner is None:
                    continue
                if isinstance(inner, tuple):
                    stack.extend(inner)
                else:
                    stack.append(inner)
        return paths

    # -- rule execution ------------------------------------------------------------

    def _execute_rules(
        self,
        rules: Sequence[UnfoldedRule],
        stats: SQLStats,
        output: ProvenanceGraph | None,
    ) -> None:
        codec = self.storage.codec
        for rule in rules:
            t0 = time.perf_counter()
            compiled = compile_rule(rule, self.schema_lookup, codec)
            t1 = time.perf_counter()
            rows = self.storage.query(compiled.sql, compiled.parameters)
            t2 = time.perf_counter()
            stats.compile_seconds += t1 - t0
            stats.sql_seconds += t2 - t1
            stats.rows += len(rows)
            stats.max_join_width = max(stats.max_join_width, compiled.join_width)
            if output is not None:
                self._reconstruct(compiled, rows, output, stats)

    def _reconstruct(
        self,
        compiled: CompiledRule,
        rows: Iterable[tuple],
        output: ProvenanceGraph,
        stats: SQLStats,
    ) -> None:
        t0 = time.perf_counter()
        codec = self.storage.codec
        rule = compiled.rule
        for row in rows:
            binding = {
                var: codec.decode(value, compiled.types[var])
                for var, value in zip(compiled.variables, row)
            }
            for spec in rule.specs:
                sources = tuple(
                    TupleNode(a.relation, a.ground(binding)) for a in spec.body
                )
                targets = tuple(
                    TupleNode(a.relation, a.ground(binding)) for a in spec.head
                )
                output.add_derivation(
                    DerivationNode(spec.mapping, sources, targets)
                )
            for item in rule.items:
                if item.kind == KIND_BASE:
                    output.add_tuple(
                        TupleNode(item.atom.relation, item.atom.ground(binding))
                    )
            output.add_tuple(
                TupleNode(rule.anchor.relation, rule.anchor.ground(binding))
            )
        stats.reconstruct_seconds += time.perf_counter() - t0

    def _rewrite(self, rules: list[UnfoldedRule]) -> list[UnfoldedRule]:
        if self.rewriter is None:
            return rules
        return self.rewriter(rules)

    def _record_pipeline(self, stats: SQLStats) -> None:
        """Mirror the per-query :class:`SQLStats` timers into the trace.

        Compile/SQL/reconstruct time is accumulated per rule by the
        existing ``SQLStats`` counters; rather than a span per rule
        (hundreds on fig08 topologies) the totals become one
        pseudo-span each at the end of the pipeline.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return
        tracer.record(
            "query.compile", stats.compile_seconds, rules=stats.unfolded_rules
        )
        tracer.record("query.sql", stats.sql_seconds, rows=stats.rows)
        if stats.reconstruct_seconds:
            tracer.record("query.reconstruct", stats.reconstruct_seconds)

    # -- public API ------------------------------------------------------------

    def run(self, query: str | Query) -> SQLResult:
        """Full ProQL evaluation through the SQL pipeline."""
        ast = parse_query(query) if isinstance(query, str) else query
        projection = ast.projection if isinstance(ast, Evaluation) else ast
        stats = SQLStats()
        var_relations = self._var_relations(projection)
        step_mappings = self._step_mappings(projection)
        candidate = ProvenanceGraph()
        for path in self._all_paths(projection):
            anchors = self._anchor_relations(path.specs[0], var_relations)
            t0 = time.perf_counter()
            with self.tracer.span("query.unfold") as uspan:
                rules = self.unfolder.pattern(path, anchors, step_mappings)
                rules = self._rewrite(rules)
                uspan.set("mode", "pattern").set("rules", len(rules))
            stats.unfold_seconds += time.perf_counter() - t0
            stats.unfolded_rules += len(rules)
            self._execute_rules(rules, stats, candidate)
        self._record_pipeline(stats)
        inner = GraphEngine(candidate, self.cdss.catalog).run(ast)
        return SQLResult(
            query=inner.query,
            bindings=inner.bindings,
            rows=inner.rows,
            graph=inner.graph,
            annotations=inner.annotations,
            annotated_rows=inner.annotated_rows,
            stats=stats,
        )

    def run_target(
        self, relation: str, collect_graph: bool = False
    ) -> tuple[SQLStats, ProvenanceGraph | None]:
        """The experiments' target query (Section 6.1.2)::

            FOR [R0 $x] INCLUDE PATH [$x] <-+ [] RETURN $x

        Unfolds the full ancestry of *relation*, executes every rule,
        and reports pipeline statistics.  ``collect_graph`` additionally
        reconstructs the projected provenance subgraph (the paper's
        output tables); benchmarks measuring raw unfold+SQL cost leave
        it off.
        """
        stats = SQLStats()
        t0 = time.perf_counter()
        with self.tracer.span("query.unfold") as uspan:
            rules = self.unfolder.full_ancestry(relation)
            rules = self._rewrite(rules)
            uspan.set("mode", "full_ancestry").set("rules", len(rules))
        stats.unfold_seconds = time.perf_counter() - t0
        stats.unfolded_rules = len(rules)
        output = ProvenanceGraph() if collect_graph else None
        self._execute_rules(rules, stats, output)
        self._record_pipeline(stats)
        return stats, output
