"""In-memory database instances under set semantics.

An :class:`Instance` holds the extension of every relation in a
:class:`Catalog` of schemas.  Tuples are plain Python tuples of values;
identity is by value (set semantics), while the storage layer keys
tuples by their schema key (Section 4.1 of the paper).

A sqlite-engine :class:`~repro.cdss.system.CDSS` keeps only its
local-contribution relations here; its store holds everything else,
and the system's pending set says which local rows the store has not
seen yet.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from repro.errors import SchemaError
from repro.relational.schema import RelationSchema

Row = tuple[object, ...]


class Catalog:
    """A named collection of relation schemas."""

    def __init__(self, schemas: Iterable[RelationSchema] = ()):
        self._schemas: dict[str, RelationSchema] = {}
        for schema in schemas:
            self.add(schema)

    def add(self, schema: RelationSchema) -> None:
        if schema.name in self._schemas and self._schemas[schema.name] != schema:
            raise SchemaError(f"conflicting redefinition of relation {schema.name}")
        self._schemas[schema.name] = schema

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def __getitem__(self, name: str) -> RelationSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name}") from None

    def get(self, name: str) -> RelationSchema | None:
        return self._schemas.get(name)

    def __iter__(self) -> Iterator[RelationSchema]:
        return iter(self._schemas.values())

    def names(self) -> list[str]:
        return list(self._schemas)

    def __len__(self) -> int:
        return len(self._schemas)


class Instance:
    """Mutable set-semantics instance over a :class:`Catalog`.

    >>> cat = Catalog([RelationSchema.of("R", ["a", "b"], key=["a"])])
    >>> inst = Instance(cat)
    >>> inst.insert("R", (1, 2))
    True
    >>> inst.insert("R", (1, 2))     # duplicate under set semantics
    False
    >>> sorted(inst["R"])
    [(1, 2)]
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._data: dict[str, set[Row]] = {s.name: set() for s in catalog}

    # -- mutation -----------------------------------------------------------

    def _check(self, relation: str, row: Row) -> Row:
        schema = self.catalog[relation]
        row = tuple(row)
        if len(row) != schema.arity:
            raise SchemaError(
                f"arity mismatch inserting into {relation}: "
                f"got {len(row)}, expected {schema.arity}"
            )
        return row

    def insert(self, relation: str, row: Iterable[object]) -> bool:
        """Insert a tuple; returns True iff it was new."""
        row = self._check(relation, tuple(row))
        table = self._data.setdefault(relation, set())
        if row in table:
            return False
        table.add(row)
        return True

    def insert_many(self, relation: str, rows: Iterable[Iterable[object]]) -> int:
        """Insert many tuples; returns the number actually added."""
        return sum(self.insert(relation, row) for row in rows)

    def delete(self, relation: str, row: Iterable[object]) -> bool:
        """Delete a tuple; returns True iff it was present."""
        row = self._check(relation, tuple(row))
        table = self._data.get(relation, set())
        if row in table:
            table.remove(row)
            return True
        return False

    # -- access -------------------------------------------------------------

    def __getitem__(self, relation: str) -> frozenset[Row]:
        if relation not in self.catalog:
            raise SchemaError(f"unknown relation {relation!r}")
        return frozenset(self._data.get(relation, ()))

    def contains(self, relation: str, row: Iterable[object]) -> bool:
        return tuple(row) in self._data.get(relation, set())

    def relations(self) -> list[str]:
        return self.catalog.names()

    def size(self, relation: str | None = None) -> int:
        """Number of tuples in one relation, or in the whole instance."""
        if relation is not None:
            return len(self._data.get(relation, ()))
        return sum(len(rows) for rows in self._data.values())

    def non_empty_relations(self) -> list[str]:
        return [name for name, rows in self._data.items() if rows]

    def as_dict(self) -> Mapping[str, frozenset[Row]]:
        return {name: frozenset(rows) for name, rows in self._data.items()}

    def copy(self) -> "Instance":
        clone = Instance(self.catalog)
        for name, rows in self._data.items():
            clone._data[name] = set(rows)
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}:{len(rows)}" for name, rows in sorted(self._data.items()) if rows
        )
        return f"<Instance {parts}>"
