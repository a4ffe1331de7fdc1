"""Access support relations for provenance paths (Section 5).

An ASR materializes the join of the provenance relations along a path
of mappings, so path traversals can skip the per-step joins.  Four
variants (Section 5.1):

* **complete** — only the full path's inner join;
* **prefix** — the path and its prefixes (source-side-aligned
  segments);
* **suffix** — the path and its suffixes (target-side-aligned
  segments; these serve queries anchored at a target relation, like
  the experiments' target query);
* **subpath** — every contiguous segment.

We materialize each indexed segment's inner join into one table, with
NULLs in the columns of mappings outside the segment (the relational
rendering of the paper's outer-join union construction); B-tree
indexes on every column support entering the path from either end.

ASR paths are stored **source→target** (upstream mapping first).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.cdss.mapping import SchemaMapping, provenance_relation_name
from repro.cdss.system import CDSS
from repro.datalog.atoms import Atom
from repro.datalog.terms import Term, Variable
from repro.datalog.unification import unify_atoms
from repro.errors import IndexingError
from repro.relational.schema import RelationSchema
from repro.storage.encoding import quote_identifier

ASR_KINDS = ("complete", "prefix", "suffix", "subpath")

#: BodyItem kind for ASR atoms (see repro.proql.unfolding for the rest).
KIND_ASR = "asr"


@dataclass(frozen=True)
class ASRDefinition:
    """A named ASR over a path of mappings."""

    name: str
    path: tuple[str, ...]  # mapping names, source -> target
    kind: str = "complete"

    def __post_init__(self) -> None:
        if self.kind not in ASR_KINDS:
            raise IndexingError(f"unknown ASR kind {self.kind!r}")
        if not self.path:
            raise IndexingError("ASR path must be non-empty")
        if len(set(self.path)) != len(self.path):
            raise IndexingError(f"ASR path repeats a mapping: {self.path}")

    @property
    def length(self) -> int:
        return len(self.path)

    def segments(self) -> list[tuple[int, int]]:
        """(start, end) index ranges of the indexed segments, the full
        path first, then by decreasing length (the order unfoldASRs
        considers them — Figure 4, step 7)."""
        n = len(self.path)
        if self.kind == "complete":
            ranges = [(0, n)]
        elif self.kind == "prefix":
            ranges = [(0, end) for end in range(n, 0, -1)]
        elif self.kind == "suffix":
            ranges = [(start, n) for start in range(0, n)]
        else:  # subpath
            ranges = [
                (start, end)
                for end in range(n, 0, -1)
                for start in range(0, end)
            ]
            ranges.sort(key=lambda r: r[0] - r[1])  # by decreasing length
        return ranges


class ComposedPath:
    """The variable-level composition of a path's provenance atoms."""

    def __init__(self, definition: ASRDefinition, cdss: CDSS):
        self.definition = definition
        mappings = []
        for name in definition.path:
            if name not in cdss.mappings:
                raise IndexingError(f"ASR {definition.name}: unknown mapping {name}")
            mappings.append(cdss.mappings[name])
        self._compose(mappings)

    def _compose(self, mappings: list[SchemaMapping]) -> None:
        heads: list[tuple[Atom, ...]] = []
        bodies: list[tuple[Atom, ...]] = []
        prov_atoms: list[Atom] = []
        types: dict[Variable, str] = {}
        for index, mapping in enumerate(mappings):
            suffix = f"__s{index}"
            rule = mapping.rule.rename_variables(suffix)
            heads.append(rule.head)
            bodies.append(rule.body)
            key_terms = tuple(
                Variable(col.name + suffix) for col in mapping.provenance_columns
            )
            for column, term in zip(mapping.provenance_columns, key_terms):
                types[term] = column.type
            prov_atoms.append(
                Atom(provenance_relation_name(mapping.name), key_terms)
            )
        # Chain adjacent mappings: unify each downstream body atom with
        # an upstream head atom of the same relation.
        theta: dict[Variable, Term] = {}
        for index in range(len(mappings) - 1):
            upstream_heads = [a.substitute(theta) for a in heads[index]]
            used: set[int] = set()
            connected = False
            for body_atom in bodies[index + 1]:
                body_atom = body_atom.substitute(theta)
                for h_index, head_atom in enumerate(upstream_heads):
                    if h_index in used:
                        continue
                    unifier = unify_atoms(body_atom, head_atom)
                    if unifier is None:
                        continue
                    used.add(h_index)
                    connected = True
                    composed = {
                        var: _subst(term, unifier)
                        for var, term in theta.items()
                    }
                    composed.update(unifier)
                    theta = composed
                    upstream_heads = [
                        a.substitute(theta) for a in heads[index]
                    ]
                    break
            if not connected:
                raise IndexingError(
                    f"ASR {self.definition.name}: mappings "
                    f"{self.definition.path[index]} and "
                    f"{self.definition.path[index + 1]} are not adjacent"
                )
        self.prov_atoms = tuple(a.substitute(theta) for a in prov_atoms)
        # Canonical column naming in first-occurrence order.
        renaming: dict[Variable, Variable] = {}
        column_types: dict[Variable, str] = {}
        for atom, raw in zip(self.prov_atoms, prov_atoms):
            for term, raw_term in zip(atom.terms, raw.terms):
                if isinstance(term, Variable) and term not in renaming:
                    fresh = Variable(f"c{len(renaming)}")
                    renaming[term] = fresh
                    column_types[fresh] = types.get(raw_term, "int")
        self.prov_atoms = tuple(a.substitute(renaming) for a in self.prov_atoms)
        self.columns: tuple[Variable, ...] = tuple(renaming.values())
        # Column types come positionally from the raw provenance atoms
        # (theta may have merged variables; any witness type is valid
        # because merged columns are join-equal).
        self.column_types = {var: "int" for var in self.columns}
        for atom, source in zip(self.prov_atoms, prov_atoms):
            for term, raw_term in zip(atom.terms, source.terms):
                if isinstance(term, Variable):
                    self.column_types[term] = types.get(raw_term, "int")

    # -- derived schemas ------------------------------------------------------------

    def schema(self) -> RelationSchema:
        return RelationSchema.of(
            self.definition.name,
            [(var.name, self.column_types[var]) for var in self.columns],
        )

    def segment_atoms(self, start: int, end: int) -> tuple[Atom, ...]:
        return self.prov_atoms[start:end]

    def segment_columns(self, start: int, end: int) -> list[Variable]:
        seen: dict[Variable, None] = {}
        for atom in self.segment_atoms(start, end):
            for var in atom.variables():
                seen.setdefault(var)
        return list(seen)

    # -- materialization SQL ------------------------------------------------------------

    def _segment_select(self, start: int, end: int) -> str:
        location: dict[Variable, str] = {}
        from_parts: list[str] = []
        where_parts: list[str] = []
        for offset, atom in enumerate(self.segment_atoms(start, end)):
            alias = f"p{start + offset}"
            from_parts.append(f"{quote_identifier(atom.relation)} AS {alias}")
            schema_cols = atom.terms
            for position, term in enumerate(schema_cols):
                assert isinstance(term, Variable)
                column_name = self._prov_column_name(start + offset, position)
                column = f"{alias}.{quote_identifier(column_name)}"
                if term in location:
                    where_parts.append(f"{column} IS {location[term]}")
                else:
                    location[term] = column
        select_parts = []
        for var in self.columns:
            expression = location.get(var, "NULL")
            select_parts.append(f"{expression} AS {quote_identifier(var.name)}")
        sql = f"SELECT {', '.join(select_parts)} FROM {', '.join(from_parts)}"
        if where_parts:
            sql += f" WHERE {' AND '.join(where_parts)}"
        return sql

    def _prov_column_name(self, atom_index: int, position: int) -> str:
        mapping_name = self.definition.path[atom_index]
        return self._prov_schemas[mapping_name].attributes[position].name

    def materialization_sql(self, cdss: CDSS) -> str:
        """The CREATE TABLE ... AS SELECT for this ASR's contents."""
        self._prov_schemas = {
            name: cdss.mappings[name].provenance_schema()
            for name in self.definition.path
        }
        selects = [
            self._segment_select(start, end)
            for start, end in self.definition.segments()
        ]
        body = "\nUNION\n".join(selects)
        return (
            f"CREATE TABLE {quote_identifier(self.definition.name)} AS\n{body}"
        )


def _subst(term: Term, theta: dict[Variable, Term]) -> Term:
    from repro.datalog.terms import substitute

    return substitute(term, theta)


def check_non_overlapping(definitions: list[ASRDefinition]) -> None:
    """Reject overlapping ASR definitions (Section 5.2 allows only
    non-overlapping ones, so the greedy rewriting stays minimal)."""
    seen: dict[str, str] = {}
    for definition in definitions:
        for mapping in definition.path:
            if mapping in seen:
                raise IndexingError(
                    f"ASRs {seen[mapping]} and {definition.name} overlap on "
                    f"mapping {mapping}"
                )
            seen[mapping] = definition.name


def chain_windows(
    path: tuple[str, ...], length: int
) -> Iterator[tuple[str, ...]]:
    """Split a mapping path into windows of at most *length*, aligned
    from the target (downstream) side — "we essentially split the chain
    into paths up to this length, and possibly store the remaining
    mappings in a shorter ASR" (Section 6.4)."""
    if length <= 0:
        raise IndexingError("ASR window length must be positive")
    end = len(path)
    while end > 0:
        start = max(0, end - length)
        yield path[start:end]
        end = start
