"""Exception hierarchy for the ProQL reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single type at API boundaries.  Subclasses are grouped by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """Invalid relation schema, unknown attribute, or arity mismatch."""


class DatalogError(ReproError):
    """Malformed Datalog rule or program."""

class DatalogParseError(DatalogError):
    """Syntax error while parsing Datalog rule text."""


class EvaluationError(ReproError):
    """Failure during fixpoint evaluation or data exchange."""


class SemiringError(ReproError):
    """Invalid semiring value or unsupported semiring operation."""


class ProvenanceError(ReproError):
    """Inconsistent provenance graph (dangling node, bad derivation)."""


class CycleError(ProvenanceError):
    """An operation requiring acyclic provenance met a cyclic graph."""


class ProQLError(ReproError):
    """Base class for ProQL language errors."""

class ProQLSyntaxError(ProQLError):
    """Syntax error in ProQL query text; carries position information."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class ProQLSemanticError(ProQLError):
    """Well-formed but meaningless query (unbound variable, unknown
    relation or mapping, invalid ASSIGNING clause, ...)."""


class StorageError(ReproError):
    """Relational storage layer failure (SQLite, encoding, views)."""


class ExchangeError(ReproError):
    """Update-exchange engine failure (unknown engine, SQL lowering of
    an uncompilable rule, store misuse)."""


class ReinsertWindowError(ExchangeError):
    """A sqlite-engine graph query (``lineage``, ``derivability``,
    ``trusted``) refused while a local row deleted from the store is
    pending again (inserted, not yet exchanged).  The store pruned the
    row's fires at the delete and will not hold the row until an
    exchange ships it, so it cannot answer what the memory engine —
    whose graph still holds the leaf — would.  The message names the
    relation; exchange to close the window."""


class IndexingError(ReproError):
    """Invalid ASR definition (e.g. overlapping ASRs) or rewrite failure."""


class ServeError(ReproError):
    """Concurrent serving tier failure (:mod:`repro.serve`): reader
    misuse (e.g. attaching to an in-memory path) or a store that is not
    servable."""


class StaleSnapshotError(ServeError):
    """A reader snapshot observed a stale or in-flight index state.

    Internal retry signal: the reader releases the snapshot, backs off,
    and pins a fresh one.  Only surfaces (wrapped in
    :class:`ServeUnavailable`) when the retry budget runs out."""


class ServeUnavailable(ServeError):
    """A reader exhausted its retry budget without pinning a servable
    snapshot (the writer held the index stale for too long, or the
    store file could not be opened read-only)."""


class AnalysisError(ReproError):
    """Static analysis rejected a mapping program (``validate="error"``
    pre-flight or :meth:`repro.analysis.Report.raise_for_errors`)."""
