"""Schema mappings between CDSS peers (Section 2).

A :class:`SchemaMapping` is a named GLAV rule — ``m`` source atoms
joined in the body, ``n`` target atoms in the head — plus the derived
metadata the storage layer needs:

* the schema of its *provenance relation* ``P_m`` (Section 4.1): one
  column per distinct variable occurring in a key position of any
  source or target atom, storing equated/copied attributes only once;
* whether that provenance relation is **superfluous** (a single-source
  projection mapping, like m2/m3/m4 of the running example, whose
  derivations are recoverable from the source relation itself — Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_rule
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, SkolemTerm, Variable
from repro.errors import SchemaError
from repro.relational.instance import Catalog
from repro.relational.schema import RelationSchema


def provenance_relation_name(mapping_name: str) -> str:
    """Name of the provenance relation for a mapping (paper: P^i)."""
    return f"P_{mapping_name}"


@dataclass(frozen=True)
class ProvenanceColumn:
    """One column of a provenance relation: a mapping variable plus the
    (atom index, side, attribute) occurrences it covers."""

    variable: Variable
    type: str

    @property
    def name(self) -> str:
        return self.variable.name


class SchemaMapping:
    """A named mapping rule with provenance-relation metadata."""

    def __init__(self, rule: Rule, catalog: Catalog):
        self.rule = rule.skolemize().check_safe()
        self.catalog = catalog
        if not self.rule.body:
            raise SchemaError(f"mapping {rule.name} must have a non-empty body")
        self._columns = self._compute_columns()

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.rule.name

    @property
    def head(self) -> tuple[Atom, ...]:
        return self.rule.head

    @property
    def body(self) -> tuple[Atom, ...]:
        return self.rule.body

    def __repr__(self) -> str:
        return f"<SchemaMapping {self.rule}>"

    # -- provenance relation schema (Section 4.1) ------------------------------

    def _key_variables(self, atoms: Sequence[Atom]) -> list[tuple[Variable, str]]:
        """(variable, type) for each key-position variable of *atoms*."""
        out: list[tuple[Variable, str]] = []
        for atom in atoms:
            schema = self.catalog[atom.relation]
            for position in schema.key_positions:
                term = atom.terms[position]
                if isinstance(term, Variable):
                    out.append((term, schema.attributes[position].type))
                elif isinstance(term, SkolemTerm):
                    # A labeled null in a key: store the frontier
                    # variables it is built from.
                    for var in term.args:
                        if isinstance(var, Variable):
                            out.append((var, "int"))
                # Constants need no storage: they are implied by the
                # mapping definition (Section 4.1's compaction).
        return out

    def _compute_columns(self) -> tuple[ProvenanceColumn, ...]:
        seen: dict[Variable, str] = {}
        for var, type_ in self._key_variables(self.body) + self._key_variables(
            self.head
        ):
            seen.setdefault(var, type_)
        return tuple(
            ProvenanceColumn(var, type_) for var, type_ in sorted(
                seen.items(), key=lambda item: item[0].name
            )
        )

    @property
    def provenance_columns(self) -> tuple[ProvenanceColumn, ...]:
        return self._columns

    def provenance_schema(self) -> RelationSchema:
        """Relational schema of P_m (one tuple per derivation node)."""
        return RelationSchema.of(
            provenance_relation_name(self.name),
            [(col.name, col.type) for col in self._columns],
        )

    @property
    def is_superfluous(self) -> bool:
        """True iff P_m need not be materialized (Section 4.1).

        A mapping with a single source atom is a projection/selection
        over that source: every provenance column is determined by the
        source tuple, so P_m need not be stored at all (Fig. 2's P2,
        P3, P4).
        """
        return len(self.body) == 1

    @property
    def stores_provenance(self) -> bool:
        """True iff the store keeps a ``P_m`` table for this mapping
        (non-superfluous, with at least one provenance column)."""
        return not self.is_superfluous and bool(self._columns)

    # -- derivation-node encoding ----------------------------------------------

    def derivation_key(self, binding: dict[Variable, object]) -> tuple[object, ...]:
        """Project a rule-firing binding onto the provenance columns."""
        return tuple(binding[col.variable] for col in self._columns)

    def source_relations(self) -> tuple[str, ...]:
        return self.rule.source_relations()

    def target_relations(self) -> tuple[str, ...]:
        return self.rule.target_relations()

    @classmethod
    def parse(cls, text: str, catalog: Catalog, name: str = "m") -> "SchemaMapping":
        return cls(parse_rule(text, name), catalog)


def parse_mappings(
    texts: Iterable[str], catalog: Catalog
) -> list[SchemaMapping]:
    """Parse one mapping per string, auto-naming unnamed ones m1, m2, ..."""
    mappings = []
    for index, text in enumerate(texts, start=1):
        mappings.append(SchemaMapping.parse(text, catalog, name=f"m{index}"))
    return mappings
