"""``repro.exchange`` — SQL-backed, out-of-core update exchange.

The paper (Section 4) runs the CDSS storage and maintenance layers
*inside an RDBMS*: relations, local-contribution tables, and one
provenance relation ``P_m`` per mapping live as tables (Section 4.1),
and update exchange executes as set-oriented SQL over them (Section
4.2's translated queries).  This subsystem brings the reproduction to
that architecture, component by component:

================  ==========================================================
component          role (paper anchor)
================  ==========================================================
``cache``          Compiled-program cache keyed by a program fingerprint,
                   so incremental exchanges (Section 4.2's incremental
                   update policies) stop recompiling join plans; shared by
                   the in-memory and SQLite engines.
``sql_plans``      Lowers each per-delta-atom join plan of
                   :mod:`repro.datalog.planner` into a parameterized SQL
                   statement — the rule-to-SQL translation of Section 4's
                   "update exchange ... performed within the DBMS",
                   including Skolem (labeled-null, footnote 1) value
                   construction in SQL and ``P_m`` maintenance
                   (Section 4.1's provenance encoding).  Exchange, the
                   liveness test and the lineage walk lower to one
                   record, ``FixpointSQL``.
``sql_executor``   The one set-oriented semi-naive round driver: one SQL
                   statement per plan per round over delta tables, in
                   one transaction per round; update exchange into the
                   authoritative store, and relational deletion
                   propagation.
``graph_queries``  Relational graph queries over the stored firing
                   history: ``lineage``/``derivability``/``trusted``
                   answered by recursive joins over ``P_m`` (backward
                   transitive-closure walk + the deletion propagation's
                   liveness fixpoint, both on the same round driver),
                   so the sqlite engine covers the full paper
                   lifecycle without ever materializing a provenance
                   graph in Python.
================  ==========================================================

Engine selection happens at the API surface:
``CDSS.exchange(engine="memory"|"sqlite", storage=...)``, where
``storage`` names the sqlite engine's
:class:`~repro.exchange.sql_executor.ExchangeStore` (or a filesystem
path for out-of-core workloads whose working set exceeds memory; by
default ``:memory:``).  That store is the *authoritative* instance —
derived tuples and provenance stay relational, never materialized in
Python; only local contributions reach it, each exchange shipping
exactly the pending local rows (``rows_mirrored == 0`` when nothing
is pending).  Both engines are verified property-test-identical
on relations, ``P_m`` and individual derivations.

Submodules that depend on :mod:`repro.cdss` are imported lazily so that
``repro.cdss.system`` can import the cache without a cycle.
"""

from __future__ import annotations

from repro.exchange.cache import (
    CompiledExchangeProgram,
    ProgramCache,
    compile_exchange_program,
    program_fingerprint,
)

__all__ = [
    "CompiledExchangeProgram",
    "ExchangeStore",
    "ProgramCache",
    "SQLiteExchangeEngine",
    "StoreGraphQueries",
    "compile_exchange_program",
    "lower_program",
    "program_fingerprint",
]


def __getattr__(name: str):
    if name in ("ExchangeStore", "SQLiteExchangeEngine"):
        from repro.exchange import sql_executor

        return getattr(sql_executor, name)
    if name == "StoreGraphQueries":
        from repro.exchange.graph_queries import StoreGraphQueries

        return StoreGraphQueries
    if name == "lower_program":
        from repro.exchange.sql_plans import lower_program

        return lower_program
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
