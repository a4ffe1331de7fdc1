"""The relational provenance store ProQL's SQL engine reads (Section 4).

The paper stores the provenance graph once, inside an RDBMS (DB2 in
their testbed): every peer relation and local-contribution relation,
plus one provenance relation ``P_m`` per non-superfluous mapping —
one row per derivation node (§4.1).  ProQL is translated to SQL over
that encoding (§4.2).  Here the encoding is the exchange store's
schema (:meth:`~repro.exchange.sql_executor.ExchangeStore.ensure_stored_schema`):
typeless columns holding :class:`~repro.storage.encoding.ValueCodec`
values, and ``P_m`` indexed on every column.  A superfluous
(single-source) mapping has no ``P_m``: the unfolder never emits a
provenance atom for one.

:class:`SQLiteStorage` binds a CDSS to one such store:

* a sqlite-engine system is bound to its pinned store — the
  authoritative instance itself, so nothing is copied and
  :meth:`~SQLiteStorage.load` has nothing to do;
* any other system gets a store of its own, which
  :meth:`~SQLiteStorage.load` fills with a full copy of the Python
  instance and of the provenance graph (through
  :func:`~repro.storage.provrel.provenance_rows`).
"""

from __future__ import annotations

import sqlite3
from typing import Sequence

from repro.cdss.system import CDSS
from repro.errors import ExchangeError, StorageError
from repro.storage.encoding import quote_identifier
from repro.storage.provrel import provenance_rows


class SQLiteStorage:
    """Binds a CDSS to the SQLite store holding its relational encoding."""

    def __init__(self, cdss: CDSS, path: str = ":memory:"):
        # Local import: repro.exchange imports repro.storage back.
        from repro.exchange.sql_executor import (
            ExchangeStore,
            normalize_store_path,
        )

        self.cdss = cdss
        #: bound to a resident system's pinned store (not owned here)
        self.resident = cdss.resident
        if self.resident:
            store = cdss.exchange_store
            if store is None or store.closed:
                raise ExchangeError(
                    "ProQL over a sqlite-engine system needs its store "
                    "(it holds the only copy of the derived relations), "
                    "but the store is closed; reopen it via "
                    "exchange(storage=<path>)"
                )
            if path != ":memory:" and normalize_store_path(path) != store.path:
                raise ExchangeError(
                    "a sqlite-engine system is pinned to its store "
                    f"({store.path!r}); ProQL cannot read another one"
                )
            self.store = store
        else:
            self.store = ExchangeStore(path)
        self.connection = self.store.connection
        self.codec = self.store.codec

    def load(self) -> int:
        """(Re)load the store from the CDSS: a full copy of every
        relation of the instance and of every ``P_m`` of the provenance
        graph.  Returns the number of rows written — 0 for a resident
        binding, whose store already is the instance."""
        if self.resident:
            return 0
        cdss = self.cdss
        self.store.ensure_stored_schema(cdss.catalog, cdss.mappings)
        tables = [
            (schema, cdss.instance[schema.name]) for schema in cdss.catalog
        ] + [
            (mapping.provenance_schema(), provenance_rows(mapping, cdss.graph))
            for mapping in cdss.mappings.values()
            if mapping.stores_provenance
        ]
        written = 0
        with self.connection:
            for schema, rows in tables:
                table = quote_identifier(schema.name)
                # key=repr: deterministic order even for rows mixing
                # value types (None/int/str) that do not compare.
                ordered = sorted(set(rows), key=repr)
                placeholders = ", ".join("?" for _ in range(schema.arity))
                self.connection.execute(f"DELETE FROM {table}")
                self.connection.executemany(
                    f"INSERT INTO {table} VALUES ({placeholders})",
                    [self.codec.encode_row(row) for row in ordered],
                )
                written += len(ordered)
        return written

    def query(
        self, sql: str, parameters: Sequence[object] = ()
    ) -> list[tuple[object, ...]]:
        """Execute SQL and fetch all rows (raw, un-decoded values)."""
        try:
            cursor = self.connection.execute(sql, parameters)
        except sqlite3.Error as exc:
            raise StorageError(f"SQL failed: {exc}\n{sql}") from exc
        return cursor.fetchall()

    def table_size(self, name: str) -> int:
        (count,) = self.query(
            f"SELECT COUNT(*) FROM {quote_identifier(name)}"
        )[0]
        return int(count)

    def close(self) -> None:
        """Close the store (idempotent); a resident binding leaves the
        pinned store to its system."""
        if not self.resident:
            self.store.close()

    def __enter__(self) -> "SQLiteStorage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
