"""Static analysis of ProQL queries — the RA5xx family.

Runs without any data, over the same structures the SQL engine's
pipeline uses (the schema graph, the path-NFA viability product of
:mod:`repro.proql.pruning`, the condition AST of
:mod:`repro.proql.conditions`):

* **RA501** — a path expression can never match: no anchor relation
  reaches an accepting state of the path NFA over the schema graph
  (the unfolder's pruning oracle would produce zero rewritings, so the
  query is statically empty);
* **RA502** — the WHERE condition is unsatisfiable (contradictory
  equality/constant constraints in every OR branch);
* **RA503** — a membership condition names a relation the unfolded
  rewriting set can never touch, so the condition is dead weight;
* **RA504** — the query does not parse, or names relations/mappings
  unknown to the system.

Entry points: :func:`analyze_query` (standalone report),
``analyze(cdss, query=...)``, ``CDSS.query(..., validate=...)``, and
the CLI's ``--query`` flag — all sharing the catalog in
:mod:`repro.analysis.diagnostics`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.analysis.diagnostics import Diagnostic, Report, make_report
from repro.errors import ProQLError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cdss.system import CDSS
    from repro.proql.ast import (
        Compare,
        Condition,
        Membership,
        Operand,
        PathExpr,
        Projection,
    )
    from repro.proql.schema_graph import SchemaGraph

#: DNF expansion cap: beyond this many branches the satisfiability
#: check assumes "satisfiable" rather than blowing up (RA502 is a
#: *certainly-empty* verdict, so giving up is sound).
_BRANCH_LIMIT = 64

#: negation of a comparison operator (pushing NOT into a Compare).
_NEGATE = {"=": "!=", "!=": "=", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}

#: operator after swapping the two sides of a comparison.
_SWAP = {"=": "=", "!=": "!=", "<": ">", ">": "<", "<=": ">=", ">=": "<="}


# -- condition satisfiability (RA502) ----------------------------------------------


def _const_value(operand: "Operand") -> tuple[bool, object]:
    """(is-constant, value); Identifiers count as string constants."""
    from repro.proql.ast import Identifier, Literal

    if isinstance(operand, Literal):
        return True, operand.value
    if isinstance(operand, Identifier):
        return True, operand.name
    return False, None


def _branches(
    condition: "Condition | None", limit: int = _BRANCH_LIMIT
) -> list[list["Condition"]] | None:
    """DNF expansion: a list of AND-branches of atomic conditions.

    Returns None when the expansion exceeds *limit* (caller must treat
    the condition as satisfiable).  NOT is pushed into comparisons and
    left opaque elsewhere.
    """
    from repro.proql.ast import And, Compare, Not, Or

    if condition is None:
        return [[]]
    if isinstance(condition, And):
        branches: list[list["Condition"]] = [[]]
        for operand in condition.operands:
            sub = _branches(operand, limit)
            if sub is None:
                return None
            branches = [b + s for b in branches for s in sub]
            if len(branches) > limit:
                return None
        return branches
    if isinstance(condition, Or):
        out: list[list["Condition"]] = []
        for operand in condition.operands:
            sub = _branches(operand, limit)
            if sub is None:
                return None
            out.extend(sub)
            if len(out) > limit:
                return None
        return out
    if isinstance(condition, Not):
        inner = condition.operand
        if isinstance(inner, Compare) and inner.op in _NEGATE:
            return [[Compare(inner.left, _NEGATE[inner.op], inner.right)]]
        return [[condition]]  # opaque: negated memberships/paths
    return [[condition]]


class _BranchState:
    """Accumulated constraints of one AND branch."""

    def __init__(self) -> None:
        #: (variable, attribute|"") -> required constant
        self.eq: dict[tuple[str, str], object] = {}
        #: (variable, attribute|"") -> excluded constants
        self.neq: dict[tuple[str, str], set[object]] = {}
        #: variable -> required (public) relation
        self.member: dict[str, str] = {}

    def require_eq(self, key: tuple[str, str], value: object) -> bool:
        if key in self.eq and self.eq[key] != value:
            return False
        if value in self.neq.get(key, ()):
            return False
        self.eq[key] = value
        return True

    def require_neq(self, key: tuple[str, str], value: object) -> bool:
        if key in self.eq and self.eq[key] == value:
            return False
        self.neq.setdefault(key, set()).add(value)
        return True

    def require_member(self, variable: str, relation: str) -> bool:
        previous = self.member.get(variable)
        if previous is not None and previous != relation:
            return False
        self.member[variable] = relation
        return True


def _apply_compare(state: _BranchState, compare: "Compare") -> bool:
    """Fold one comparison into the branch; False = contradiction."""
    from repro.proql.ast import AttrAccess, VarRef
    from repro.proql.conditions import compare_values

    left, op, right = compare.left, compare.op, compare.right
    left_const, left_value = _const_value(left)
    right_const, right_value = _const_value(right)
    if left_const and right_const:
        try:
            return compare_values(left_value, op, right_value)
        except ProQLError:
            return True  # unknown operator: leave to runtime
    if left_const and not right_const:
        left, right = right, left
        op = _SWAP.get(op, op)
        right_const, right_value = True, left_value
    if not right_const:
        return True  # variable-to-variable: opaque
    if isinstance(left, AttrAccess):
        key = (left.variable, left.attribute)
    elif isinstance(left, VarRef):
        key = (left.name, "")
    else:
        return True  # arithmetic operand: opaque
    if op == "=":
        return state.require_eq(key, right_value)
    if op == "!=":
        return state.require_neq(key, right_value)
    return True  # range constraints: opaque (sound to skip)


def _branch_satisfiable(atoms: Iterable["Condition"]) -> bool:
    from repro.proql.ast import Compare, Membership
    from repro.relational.schema import public_name

    state = _BranchState()
    for atom in atoms:
        if isinstance(atom, Compare):
            if not _apply_compare(state, atom):
                return False
        elif isinstance(atom, Membership):
            if not state.require_member(
                atom.variable, public_name(atom.relation)
            ):
                return False
        # memberships under NOT, path conditions: opaque
    return True


def condition_satisfiable(condition: "Condition | None") -> bool:
    """Certainly-empty test for a WHERE condition.

    False means **no** binding can satisfy it (every DNF branch holds
    contradictory equality / membership constraints); True means the
    analysis could not rule it out.
    """
    branches = _branches(condition)
    if branches is None:
        return True
    return any(_branch_satisfiable(branch) for branch in branches)


# -- the pass ------------------------------------------------------------


def _memberships(condition: "Condition | None") -> list["Membership"]:
    from repro.proql.ast import Membership

    out: list["Membership"] = []
    stack = [condition] if condition is not None else []
    while stack:
        node = stack.pop()
        if isinstance(node, Membership):
            out.append(node)
            continue
        for attr in ("operands", "operand"):
            inner = getattr(node, attr, None)
            if inner is None:
                continue
            if isinstance(inner, tuple):
                stack.extend(inner)
            else:
                stack.append(inner)
    return out


def _anchor_relations(
    graph: "SchemaGraph",
    path: "PathExpr",
    var_relations: dict[str, str],
) -> list[str]:
    """Anchor candidates of *path* (mirrors the SQL engine's matcher);
    raises :class:`~repro.errors.ProQLSemanticError` on unknown names."""
    spec = path.specs[0]
    if spec.relation is not None:
        return [graph.check_relation(spec.relation)]
    if spec.variable is not None and spec.variable in var_relations:
        return [graph.check_relation(var_relations[spec.variable])]
    return sorted(graph.relations)


def query_pass(
    cdss: "CDSS", query: str
) -> tuple[list[Diagnostic], dict[str, int]]:
    """All RA5xx checks over one query; (diagnostics, stats)."""
    from repro.proql.ast import projection_of
    from repro.proql.parser import parse_query
    from repro.proql.pruning import PatternViability
    from repro.proql.schema_graph import SchemaGraph
    from repro.proql.sql_engine import SQLEngine

    diagnostics: list[Diagnostic] = []
    stats = {"queries_analyzed": 1, "paths_analyzed": 0}
    try:
        ast = parse_query(query)
    except ProQLError as exc:
        diagnostics.append(
            Diagnostic("RA504", str(exc), subject=query.strip()[:60])
        )
        return diagnostics, stats
    projection: "Projection" = projection_of(ast)
    graph = SchemaGraph.of(cdss)
    var_relations = SQLEngine._var_relations(projection)
    get_allowed = SQLEngine._step_mappings(projection)

    # Named mappings on steps must exist (the matcher would silently
    # never traverse them — surface it as a reference error instead).
    known_mappings = set(cdss.mappings)
    for path in SQLEngine._all_paths(projection):
        for step in path.steps:
            if step.mapping is not None and step.mapping not in known_mappings:
                diagnostics.append(
                    Diagnostic(
                        "RA504",
                        f"path step names unknown mapping {step.mapping!r}",
                        subject=str(path),
                    )
                )

    # Reachability (RA501) per path + the touched-relation set (RA503).
    touched: set[str] = set()
    for path in SQLEngine._all_paths(projection):
        stats["paths_analyzed"] += 1
        try:
            anchors = _anchor_relations(graph, path, var_relations)
        except ProQLError as exc:
            diagnostics.append(
                Diagnostic("RA504", str(exc), subject=str(path))
            )
            continue
        viability = PatternViability(graph, path, get_allowed)
        viable = [a for a in anchors if viability.start_viable(a)]
        if not viable:
            diagnostics.append(
                Diagnostic(
                    "RA501",
                    "path cannot match any derivation: no anchor "
                    "relation reaches the end of the pattern over the "
                    "schema graph (the query is statically empty)",
                    subject=str(path),
                )
            )
            continue
        touched |= viability.reachable_relations(viable)

    # Condition satisfiability (RA502) + dead memberships (RA503).
    where = projection.where
    if where is not None:
        if not condition_satisfiable(where):
            diagnostics.append(
                Diagnostic(
                    "RA502",
                    "WHERE condition is unsatisfiable: every OR branch "
                    "holds contradictory constraints, so the query "
                    "returns nothing",
                    subject="WHERE",
                )
            )
        for membership in _memberships(where):
            from repro.relational.schema import public_name

            relation = public_name(membership.relation)
            if relation not in graph.relations:
                diagnostics.append(
                    Diagnostic(
                        "RA504",
                        f"condition references unknown relation "
                        f"{membership.relation!r}",
                        subject=f"${membership.variable} in "
                        f"{membership.relation}",
                    )
                )
            elif touched and relation not in touched:
                diagnostics.append(
                    Diagnostic(
                        "RA503",
                        f"condition tests membership in {relation!r}, "
                        "but no rewriting of the query's paths can "
                        "bind a tuple of that relation",
                        subject=f"${membership.variable} in "
                        f"{membership.relation}",
                    )
                )
    return diagnostics, stats


def analyze_query(cdss: "CDSS", query: str) -> Report:
    """Standalone RA5xx report over one ProQL query (no data needed)."""
    diagnostics, stats = query_pass(cdss, query)
    return make_report(diagnostics, stats)
