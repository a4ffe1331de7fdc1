"""Relational encoding of the provenance graph (Section 4.1).

Each derivation node becomes one tuple in its mapping's provenance
relation ``P_m``, whose columns are the distinct key variables of the
mapping (equated/copied attributes stored once).  Superfluous
provenance relations — single-source projection mappings — are not
materialized (Fig. 2): every column is recoverable from the source
tuple, and ProQL's unfolding joins the source relation directly.

Derivation nodes record source/target *tuples*, not bindings, so this
module recovers the binding by matching the mapping's atoms against
the node's tuples.
"""

from __future__ import annotations

from typing import Iterator

from repro.cdss.mapping import SchemaMapping
from repro.datalog.atoms import match_tuple
from repro.datalog.terms import Variable
from repro.errors import StorageError
from repro.provenance.graph import DerivationNode, ProvenanceGraph


def binding_of(
    mapping: SchemaMapping, derivation: DerivationNode
) -> dict[Variable, object]:
    """Recover the rule-firing binding behind *derivation*.

    Matches body atoms against source tuples and head atoms against
    target tuples positionally (evaluation stores them in atom order).
    """
    if derivation.mapping != mapping.name:
        raise StorageError(
            f"derivation {derivation} does not belong to mapping {mapping.name}"
        )
    if len(derivation.sources) != len(mapping.body) or len(
        derivation.targets
    ) != len(mapping.head):
        raise StorageError(
            f"derivation {derivation} arity mismatch for mapping {mapping.name}"
        )
    binding: dict[Variable, object] | None = {}
    for atom, node in zip(
        mapping.body + mapping.head, derivation.sources + derivation.targets
    ):
        if atom.relation != node.relation:
            raise StorageError(
                f"derivation {derivation}: atom {atom} vs tuple {node}"
            )
        binding = match_tuple(atom, node.values, binding)
        if binding is None:
            raise StorageError(
                f"derivation {derivation} does not match mapping {mapping.name}"
            )
    return binding


def provenance_rows(
    mapping: SchemaMapping, graph: ProvenanceGraph
) -> Iterator[tuple[object, ...]]:
    """Yield the P_m rows encoding every derivation of *mapping*."""
    for derivation in sorted(graph.derivations, key=str):
        if derivation.mapping == mapping.name:
            yield mapping.derivation_key(binding_of(mapping, derivation))
