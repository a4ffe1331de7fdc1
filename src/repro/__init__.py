"""repro — reproduction of "Querying Data Provenance" (SIGMOD 2010).

Public API surface.  The typical flow:

1. build a :class:`~repro.cdss.CDSS` (peers + schema mappings),
2. insert local data and :meth:`~repro.cdss.CDSS.exchange` — in memory
   or set-oriented inside SQLite (``engine="sqlite"``, see
   :mod:`repro.exchange`), with compiled plans cached across
   incremental calls,
3. bind to the relational store with :class:`~repro.storage.SQLiteStorage`
   (a sqlite-engine system's own store, or one loaded from a
   memory-engine system),
4. query with :class:`~repro.proql.SQLEngine` (or the reference
   :class:`~repro.proql.GraphEngine`), optionally after registering
   ASRs through :class:`~repro.indexing.ASRManager`.
"""

from repro.cdss import CDSS, Peer, SchemaMapping, TrustPolicy
from repro.errors import ReproError
from repro.exchange import ProgramCache, program_fingerprint
from repro.indexing import ASRDefinition, ASRManager, asr_definitions_for
from repro.proql import GraphEngine, SQLEngine, parse_query
from repro.provenance import (
    DerivationNode,
    ProvenanceGraph,
    TupleNode,
    annotate,
    provenance_polynomial,
    to_dot,
    to_json,
)
from repro.relational import Catalog, Instance, RelationSchema
from repro.semirings import Polynomial, Semiring, get_semiring, known_semirings
from repro.storage import SQLiteStorage

__version__ = "1.0.0"

__all__ = [
    "ASRDefinition",
    "ASRManager",
    "CDSS",
    "Catalog",
    "DerivationNode",
    "GraphEngine",
    "Instance",
    "Peer",
    "Polynomial",
    "ProgramCache",
    "ProvenanceGraph",
    "RelationSchema",
    "ReproError",
    "SQLEngine",
    "SQLiteStorage",
    "SchemaMapping",
    "Semiring",
    "TrustPolicy",
    "TupleNode",
    "annotate",
    "asr_definitions_for",
    "get_semiring",
    "known_semirings",
    "parse_query",
    "program_fingerprint",
    "provenance_polynomial",
    "to_dot",
    "to_json",
]
