"""Reference ProQL engine over in-memory provenance graphs.

Implements the core semantics of Section 3.1 directly on the
instance-level graph:

* **FOR** — binds variables by enumerating matches of each path
  expression (joins between expressions through shared variables);
* **WHERE** — filters bindings (path expressions act existentially);
* **INCLUDE PATH** — copies every matched path into the output graph,
  with derivation-node closure (a derivation brings all its source and
  target tuple nodes);
* **RETURN** — projects bindings onto the distinguished variables;
* **EVALUATE/ASSIGNING** — annotates the output graph in a semiring
  and pairs each distinguished node with its annotation.

This engine is the semantic oracle for the SQL engine (Section 4) and
the only one supporting cyclic provenance graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ProQLSemanticError
from repro.proql.ast import (
    Evaluation,
    LeafAssignClause,
    MappingAssignClause,
    PathCondition,
    PathExpr,
    Projection,
    Query,
    Step,
    TupleSpec,
)
from repro.proql.conditions import eval_condition, eval_operand
from repro.proql.parser import parse_query
from repro.provenance.annotate import annotate
from repro.provenance.graph import DerivationNode, ProvenanceGraph, TupleNode
from repro.relational.instance import Catalog
from repro.semirings.base import MappingFunction, Semiring
from repro.semirings.registry import get_semiring

Environment = dict[str, Any]


@dataclass
class ProQLResult:
    """Outcome of one ProQL query."""

    query: Query
    #: variable bindings satisfying FOR + WHERE
    bindings: list[Environment]
    #: RETURN-projected rows of graph nodes, deduplicated
    rows: list[tuple[Any, ...]]
    #: the projected output graph (union of INCLUDE PATH copies)
    graph: ProvenanceGraph
    #: tuple-node annotations, present for EVALUATE queries
    annotations: dict[TupleNode, Any] | None = None
    #: (node, value) pairs per RETURN row, present for EVALUATE queries
    annotated_rows: list[tuple[tuple[Any, Any], ...]] = field(default_factory=list)

    def annotation_of(self, node: TupleNode) -> Any:
        if self.annotations is None:
            raise ProQLSemanticError("projection query has no annotations")
        return self.annotations.get(node)


class GraphEngine:
    """Evaluates ProQL queries against a provenance graph."""

    def __init__(self, graph: ProvenanceGraph, catalog: Catalog) -> None:
        self.graph = graph
        self.catalog = catalog

    # -- public API ------------------------------------------------------------

    def run(self, query: str | Query) -> ProQLResult:
        ast = parse_query(query) if isinstance(query, str) else query
        projection = ast.projection if isinstance(ast, Evaluation) else ast
        bindings = self._solve_projection(projection)
        output = self._build_output_graph(projection, bindings)
        rows = self._return_rows(projection, bindings)
        result = ProQLResult(ast, bindings, rows, output)
        if isinstance(ast, Evaluation):
            self._annotate(ast, result)
        return result

    # -- FOR / WHERE ------------------------------------------------------------

    def _solve_projection(self, projection: Projection) -> list[Environment]:
        environments: list[Environment] = [{}]
        for path in projection.for_paths:
            extended: list[Environment] = []
            seen: set[frozenset] = set()
            for env in environments:
                for match in self.match_path(path, env):
                    key = frozenset(match.items())
                    if key not in seen:
                        seen.add(key)
                        extended.append(match)
            environments = extended
            if not environments:
                return []
        if projection.where is not None:
            environments = [
                env
                for env in environments
                if eval_condition(
                    projection.where, env, self.catalog, self._check_path
                )
            ]
        return environments

    def _check_path(self, condition: PathCondition, env: Environment) -> bool:
        return next(self.match_path(condition.path, dict(env)), None) is not None

    # -- path matching ------------------------------------------------------------

    def _spec_matches(
        self, spec: TupleSpec, node: TupleNode, env: Environment
    ) -> bool:
        if spec.relation is not None and node.relation != spec.relation:
            return False
        if spec.variable is not None and spec.variable in env:
            return env[spec.variable] == node
        return True

    def _spec_candidates(
        self, spec: TupleSpec, env: Environment
    ) -> Iterator[TupleNode]:
        if spec.variable is not None and spec.variable in env:
            node = env[spec.variable]
            if isinstance(node, TupleNode) and self._spec_matches(spec, node, env):
                yield node
            return
        if spec.relation is not None:
            yield from self.graph.tuples_in(spec.relation)
        else:
            yield from self.graph.tuples

    def _bind_spec(
        self, spec: TupleSpec, node: TupleNode, env: Environment
    ) -> Environment:
        if spec.variable is not None and spec.variable not in env:
            env = dict(env)
            env[spec.variable] = node
        return env

    def _reachable_up(
        self, node: TupleNode
    ) -> tuple[set[TupleNode], set[DerivationNode]]:
        """Nodes reachable from *node* by >= 1 backward step."""
        tuples: set[TupleNode] = set()
        derivations: set[DerivationNode] = set()
        stack = [node]
        first = True
        seen: set[TupleNode] = set()
        while stack:
            current = stack.pop()
            if not first and current in seen:
                continue
            if not first:
                seen.add(current)
            first = False
            for deriv in self.graph.derivations_of(current):
                if deriv in derivations:
                    continue
                derivations.add(deriv)
                for source in deriv.sources:
                    tuples.add(source)
                    if source not in seen:
                        stack.append(source)
        return tuples, derivations

    def match_path(
        self, path: PathExpr, env: Environment | None = None
    ) -> Iterator[Environment]:
        """Enumerate bindings of *path* consistent with *env*."""
        env = dict(env or {})

        def extend(
            node: TupleNode,
            steps: tuple[Step, ...],
            specs: tuple[TupleSpec, ...],
            current: Environment,
        ) -> Iterator[Environment]:
            if not steps:
                yield current
                return
            step, spec = steps[0], specs[0]
            if step.kind == "one":
                for deriv in sorted(self.graph.derivations_of(node), key=str):
                    if step.mapping is not None and deriv.mapping != step.mapping:
                        continue
                    if step.variable is not None and step.variable in current:
                        if current[step.variable] != deriv:
                            continue
                    step_env = dict(current)
                    if step.variable is not None:
                        step_env[step.variable] = deriv
                    for source in sorted(set(deriv.sources), key=repr):
                        if not self._spec_matches(spec, source, step_env):
                            continue
                        yield from extend(
                            source,
                            steps[1:],
                            specs[1:],
                            self._bind_spec(spec, source, step_env),
                        )
            else:  # plus
                ancestors, _ = self._reachable_up(node)
                for end in sorted(ancestors, key=repr):
                    if not self._spec_matches(spec, end, current):
                        continue
                    yield from extend(
                        end,
                        steps[1:],
                        specs[1:],
                        self._bind_spec(spec, end, current),
                    )

        for start in sorted(
            self._spec_candidates(path.specs[0], env), key=repr
        ):
            yield from extend(
                start, path.steps, path.specs[1:], self._bind_spec(
                    path.specs[0], start, env
                )
            )

    # -- INCLUDE PATH ------------------------------------------------------------

    def _build_output_graph(
        self, projection: Projection, bindings: list[Environment]
    ) -> ProvenanceGraph:
        output = ProvenanceGraph()
        for env in bindings:
            for path in projection.include_paths:
                for start in self._spec_candidates(path.specs[0], env):
                    self._include_from(
                        start, path.steps, path.specs[1:], env, output
                    )
            # Distinguished nodes are always part of the result.
            for variable in projection.return_vars:
                node = env.get(variable)
                if isinstance(node, TupleNode):
                    output.add_tuple(node)
                elif isinstance(node, DerivationNode):
                    output.add_derivation(node)
        return output

    def _include_from(
        self,
        node: TupleNode,
        steps: tuple[Step, ...],
        specs: tuple[TupleSpec, ...],
        env: Environment,
        output: ProvenanceGraph,
    ) -> bool:
        """Copy matched paths from *node* into *output*; True on match."""
        if not steps:
            output.add_tuple(node)
            return True
        step, spec = steps[0], specs[0]
        success = False
        if step.kind == "one":
            for deriv in self.graph.derivations_of(node):
                if step.mapping is not None and deriv.mapping != step.mapping:
                    continue
                if step.variable is not None and step.variable in env:
                    if env[step.variable] != deriv:
                        continue
                for source in set(deriv.sources):
                    if not self._spec_matches(spec, source, env):
                        continue
                    if self._include_from(
                        source, steps[1:], specs[1:], env, output
                    ):
                        output.add_tuple(node)
                        output.add_derivation(deriv)
                        success = True
        else:  # plus step: include everything between node and each end
            ancestors, ancestor_derivs = self._reachable_up(node)
            unrestricted = (
                len(steps) == 1
                and spec.relation is None
                and (spec.variable is None or spec.variable not in env)
            )
            if unrestricted:
                if ancestors:
                    output.add_tuple(node)
                    for deriv in ancestor_derivs:
                        output.add_derivation(deriv)
                    for tup in ancestors:
                        output.add_tuple(tup)
                    success = True
            else:
                for end in sorted(ancestors, key=repr):
                    if not self._spec_matches(spec, end, env):
                        continue
                    if not self._include_from(
                        end, steps[1:], specs[1:], env, output
                    ):
                        continue
                    descendants, descendant_derivs = self.graph.descendants(end)
                    between_t = (ancestors | {node}) & (descendants | {end})
                    between_d = ancestor_derivs & descendant_derivs
                    output.add_tuple(node)
                    for deriv in between_d:
                        output.add_derivation(deriv)
                    for tup in between_t:
                        output.add_tuple(tup)
                    success = True
        return success

    # -- RETURN ------------------------------------------------------------

    def _return_rows(
        self, projection: Projection, bindings: list[Environment]
    ) -> list[tuple[Any, ...]]:
        rows: list[tuple[Any, ...]] = []
        seen: set[tuple[Any, ...]] = set()
        for env in bindings:
            row = []
            for variable in projection.return_vars:
                if variable not in env:
                    raise ProQLSemanticError(
                        f"RETURN variable ${variable} is not bound in FOR"
                    )
                row.append(env[variable])
            row_t = tuple(row)
            if row_t not in seen:
                seen.add(row_t)
                rows.append(row_t)
        return sorted(rows, key=str)

    # -- EVALUATE / ASSIGNING ------------------------------------------------------

    def _leaf_assignment(
        self, clause: LeafAssignClause | None, semiring: Semiring
    ) -> Callable[[TupleNode], Any]:
        if clause is None:
            return semiring.default_leaf

        def assign(node: TupleNode) -> Any:
            env = {clause.variable: node}
            for case in clause.cases:
                if eval_condition(case.condition, env, self.catalog):
                    return semiring.validate(
                        eval_operand(case.value, env, self.catalog)
                    )
            if clause.default is not None:
                return semiring.validate(
                    eval_operand(clause.default, env, self.catalog)
                )
            return semiring.one

        return assign

    def _mapping_functions(
        self,
        clause: MappingAssignClause | None,
        semiring: Semiring,
        mapping_names: set[str],
    ) -> dict[str, MappingFunction]:
        if clause is None:
            return {}
        functions: dict[str, MappingFunction] = {}
        for name in mapping_names:
            functions[name] = self._mapping_function(clause, semiring, name)
        return functions

    def _mapping_function(
        self, clause: MappingAssignClause, semiring: Semiring, name: str
    ) -> MappingFunction:
        def apply(value: Any) -> Any:
            # Function definitions must satisfy f(0) = 0 (Section 3.2.2).
            if semiring.is_zero(value):
                return semiring.zero
            env = {clause.variable: name, clause.parameter: value}
            for case in clause.cases:
                if eval_condition(case.condition, env, self.catalog):
                    return semiring.validate(
                        eval_operand(case.value, env, self.catalog)
                    )
            if clause.default is not None:
                return semiring.validate(
                    eval_operand(clause.default, env, self.catalog)
                )
            return value

        return apply

    def _annotate(self, evaluation: Evaluation, result: ProQLResult) -> None:
        semiring = get_semiring(evaluation.semiring)
        assign = self._leaf_assignment(evaluation.leaf_assign, semiring)
        functions = self._mapping_functions(
            evaluation.mapping_assign, semiring, result.graph.mappings_used()
        )
        values = annotate(
            result.graph,
            semiring,
            leaf_assignment=assign,
            mapping_functions=functions,
        )
        result.annotations = values
        result.annotated_rows = [
            tuple(
                (node, values.get(node, semiring.zero))
                for node in row
                if isinstance(node, TupleNode)
            )
            for row in result.rows
        ]
