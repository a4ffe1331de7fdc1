"""ASR lifecycle: registration, materialization, and engine plumbing.

:class:`ASRManager` owns the ASRs of one storage instance.  It
materializes each registered ASR as an indexed SQLite table and
exposes the two hooks the SQL engine needs: a rule ``rewrite``
callback (Figure 4) and a schema lookup covering ASR tables.
"""

from __future__ import annotations

from repro.cdss.system import CDSS
from repro.errors import IndexingError
from repro.indexing.asr import (
    KIND_ASR,
    ASRDefinition,
    ComposedPath,
    check_non_overlapping,
)
from repro.indexing.rewriting import unfold_asrs
from repro.proql.sql_translator import SchemaLookup, default_schema_lookup
from repro.proql.unfolding import BodyItem, UnfoldedRule
from repro.relational.schema import RelationSchema
from repro.storage.encoding import quote_identifier
from repro.storage.sqlite_backend import SQLiteStorage


class ASRManager:
    """Registers and materializes ASRs over one SQLite store."""

    def __init__(self, storage: SQLiteStorage):
        if storage.resident:
            # ASR tables are joins over P_m materialized once; the next
            # exchange or deletion on the resident store would leave
            # them stale, and a refusal beats a wrong answer.
            raise IndexingError(
                "ASRs cannot be registered on a store-resident system: "
                "exchange and deletion do not maintain them"
            )
        self.storage = storage
        self.cdss: CDSS = storage.cdss
        self.definitions: list[ASRDefinition] = []
        self.composed: list[ComposedPath] = []
        self._schemas: dict[str, RelationSchema] = {}
        self._base_lookup = default_schema_lookup(self.cdss)

    # -- registration ------------------------------------------------------------

    def register(self, definition: ASRDefinition) -> ComposedPath:
        """Materialize *definition* and make it available for rewriting.

        Rejects overlapping definitions (Section 5.2) and duplicate
        names.  Creates the ASR table with B-tree indexes on every
        column so path traversals can enter from either end.
        """
        if any(d.name == definition.name for d in self.definitions):
            raise IndexingError(f"duplicate ASR name {definition.name}")
        check_non_overlapping(self.definitions + [definition])
        composed = ComposedPath(definition, self.cdss)
        sql = composed.materialization_sql(self.cdss)
        self.storage.connection.execute(sql)
        schema = composed.schema()
        for attribute in schema.attributes:
            self.storage.connection.execute(
                f"CREATE INDEX "
                f"{quote_identifier(f'ix_{definition.name}_{attribute.name}')} "
                f"ON {quote_identifier(definition.name)} "
                f"({quote_identifier(attribute.name)})"
            )
        self.storage.connection.commit()
        self.definitions.append(definition)
        self.composed.append(composed)
        self._schemas[definition.name] = schema
        return composed

    def register_all(self, definitions: list[ASRDefinition]) -> None:
        for definition in definitions:
            self.register(definition)

    def drop_all(self) -> None:
        """Remove every materialized ASR (used between benchmark runs)."""
        for definition in self.definitions:
            self.storage.connection.execute(
                f"DROP TABLE IF EXISTS {quote_identifier(definition.name)}"
            )
        self.storage.connection.commit()
        self.definitions.clear()
        self.composed.clear()
        self._schemas.clear()

    # -- engine hooks ------------------------------------------------------------

    def rewrite(self, rules: list[UnfoldedRule]) -> list[UnfoldedRule]:
        if not self.composed:
            return rules
        return unfold_asrs(rules, self.composed)

    def schema_lookup(self) -> SchemaLookup:
        def lookup(item: BodyItem) -> RelationSchema:
            if item.kind == KIND_ASR:
                return self._schemas[item.atom.relation]
            return self._base_lookup(item)

        return lookup

    def table_sizes(self) -> dict[str, int]:
        return {
            definition.name: self.storage.table_size(definition.name)
            for definition in self.definitions
        }
