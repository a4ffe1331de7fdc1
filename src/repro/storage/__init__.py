"""Relational provenance storage over SQLite (Section 4.1)."""

from repro.storage.encoding import ValueCodec, quote_identifier
from repro.storage.provrel import binding_of, provenance_rows
from repro.storage.sqlite_backend import SQLiteStorage

__all__ = [
    "SQLiteStorage",
    "ValueCodec",
    "binding_of",
    "provenance_rows",
    "quote_identifier",
]
