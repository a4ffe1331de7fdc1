"""Translation of unfolded rules into SQL (Section 4.2.4).

Each :class:`UnfoldedRule` becomes one ``SELECT DISTINCT`` block over
the provenance relations (``P_m``), local-contribution tables
(``R_l``), base relations, and — after ASR rewriting — access-support
relations.  Shared variables become null-safe ``IS`` join predicates
(a NULL data value joins as the exchange lowering joins it); constants
become parameterized filters; the union of all blocks (each executed
separately) covers every derivation-tree shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cdss.mapping import provenance_relation_name
from repro.cdss.system import CDSS
from repro.datalog.terms import Constant, SkolemTerm, Variable
from repro.errors import ProQLSemanticError, StorageError
from repro.proql.unfolding import BodyItem, UnfoldedRule
from repro.relational.schema import RelationSchema
from repro.storage.encoding import ValueCodec, quote_identifier

#: Maps a body item to the schema of the table it scans.  Extended by
#: the ASR layer, which introduces tables outside the CDSS catalog.
SchemaLookup = Callable[[BodyItem], RelationSchema]


def default_schema_lookup(cdss: CDSS) -> SchemaLookup:
    """Schema lookup for plain (non-ASR) rules."""
    prov_schemas = {
        provenance_relation_name(m.name): m.provenance_schema()
        for m in cdss.mappings.values()
    }

    def lookup(item: BodyItem) -> RelationSchema:
        name = item.atom.relation
        if name in prov_schemas:
            return prov_schemas[name]
        return cdss.catalog[name]

    return lookup


@dataclass
class CompiledRule:
    """SQL form of one unfolded rule."""

    rule: UnfoldedRule
    sql: str
    parameters: tuple[object, ...]
    #: variables in SELECT order
    variables: tuple[Variable, ...]
    #: attribute type per selected variable (for decoding)
    types: dict[Variable, str]

    @property
    def join_width(self) -> int:
        return len(self.rule.items)


def compile_rule(
    rule: UnfoldedRule,
    schema_lookup: SchemaLookup,
    codec: ValueCodec,
) -> CompiledRule:
    """Compile one rule into a SELECT DISTINCT block.

    Raises :class:`StorageError` for rules SQLite cannot execute (more
    than 64 joined tables — the analogue of the paper's DB2 limit that
    capped their experiments at 80 peers) and
    :class:`ProQLSemanticError` for Skolem terms in body atoms (the
    graph engine handles those).
    """
    if len(rule.items) > 64:
        raise StorageError(
            f"rule joins {len(rule.items)} tables; SQLite allows at most 64 "
            "(cf. the paper's DB2 query-size limit beyond 80 peers)"
        )
    location: dict[Variable, tuple[str, str]] = {}
    types: dict[Variable, str] = {}
    from_parts: list[str] = []
    where_parts: list[str] = []
    parameters: list[object] = []
    for index, item in enumerate(rule.items):
        schema = schema_lookup(item)
        alias = f"t{index}"
        from_parts.append(f"{quote_identifier(schema.name)} AS {alias}")
        if item.atom.arity != schema.arity:
            raise ProQLSemanticError(
                f"atom {item.atom} does not match schema of {schema.name}"
            )
        for position, term in enumerate(item.atom.terms):
            attribute = schema.attributes[position]
            column = f"{alias}.{quote_identifier(attribute.name)}"
            if isinstance(term, Constant):
                where_parts.append(f"{column} IS ?")
                parameters.append(codec.encode(term.value))
            elif isinstance(term, Variable):
                if term in location:
                    first_alias, first_attr = location[term]
                    where_parts.append(
                        f"{column} IS {first_alias}.{quote_identifier(first_attr)}"
                    )
                else:
                    location[term] = (alias, attribute.name)
                    types[term] = attribute.type
            elif isinstance(term, SkolemTerm):
                raise ProQLSemanticError(
                    f"Skolem term {term} in a body atom cannot be compiled "
                    "to SQL; use the graph engine for this query"
                )
    for variable in sorted(rule.not_null, key=lambda v: v.name):
        if variable in location:
            alias, attribute = location[variable]
            where_parts.append(
                f"{alias}.{quote_identifier(attribute)} IS NOT NULL"
            )
    missing = [
        v for v in rule.variables() if v not in location
    ]
    if missing:
        raise ProQLSemanticError(
            f"rule variables {sorted(v.name for v in missing)} do not occur "
            f"in any body atom of {rule}"
        )
    variables = tuple(sorted(location, key=lambda v: v.name))
    select_list = ", ".join(
        f"{alias}.{quote_identifier(attr)} AS {quote_identifier(var.name)}"
        for var, (alias, attr) in sorted(
            location.items(), key=lambda kv: kv[0].name
        )
    )
    sql = f"SELECT DISTINCT {select_list} FROM {', '.join(from_parts)}"
    if where_parts:
        sql += f" WHERE {' AND '.join(where_parts)}"
    return CompiledRule(rule, sql, tuple(parameters), variables, types)
