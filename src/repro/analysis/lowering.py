"""Lowering lint (codes RA401–RA404): dry-run the SQL engine's plans.

The sqlite engine trusts that :mod:`repro.exchange.sql_plans` and the
store schema (:meth:`~repro.exchange.sql_executor.ExchangeStore.ensure_schema`)
agree on every table, column, and parameter name.  That contract is
normally only exercised at exchange time — hours into a run for the
workloads ROADMAP targets.  This pass exercises it at analysis time:

* lower the program all three ways (exchange, derivability,
  graph-query) — three instances of one
  :class:`~repro.exchange.sql_plans.FixpointSQL` record,
* create each one's schema in a **schema-only** store (no data is
  ever written — ``ensure_schema`` builds empty tables), and
* run ``EXPLAIN`` over every statement the record can issue
  (:meth:`~repro.exchange.sql_plans.FixpointSQL.statements`) with its
  parameters bound, which forces SQLite to prepare each one: a missing
  table or column fails at prepare, a missing parameter fails at bind.

``EXPLAIN`` never executes the plan, so the pass touches zero rows
even against a reopened store that holds live data.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING, Callable, Mapping

from repro.analysis.diagnostics import Diagnostic
from repro.cdss.mapping import SchemaMapping
from repro.errors import ExchangeError
from repro.relational.instance import Catalog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exchange.cache import CompiledExchangeProgram
    from repro.exchange.sql_executor import ExchangeStore
    from repro.exchange.sql_plans import FixpointSQL


def _explain(
    store: "ExchangeStore",
    sql: str,
    params: Mapping[str, object],
    runtime: tuple[str, ...],
    code: str,
    subject: str,
    diagnostics: list[Diagnostic],
) -> int:
    """Prepare one statement via EXPLAIN; 1 if it prepared cleanly."""
    bound = dict(params)
    for name in runtime:
        bound[name] = 0
    try:
        store.connection.execute(f"EXPLAIN {sql}", bound)
    except sqlite3.Error as exc:
        diagnostics.append(
            Diagnostic(
                code,
                f"{subject}: statement failed to prepare against the "
                f"store schema: {exc}",
                subject=subject,
            )
        )
        return 0
    return 1


def lowering_pass(
    program: "CompiledExchangeProgram",
    catalog: Catalog,
    mappings: Mapping[str, SchemaMapping],
    store: "ExchangeStore | None" = None,
) -> tuple[list[Diagnostic], dict[str, int]]:
    """Dry-run all three SQL lowerings of *program* through EXPLAIN.

    ``store`` defaults to a throwaway in-memory
    :class:`~repro.exchange.sql_executor.ExchangeStore`; pass an
    existing (possibly reopened on-disk) store to lint against its
    file.  Either way only ``CREATE TABLE IF NOT EXISTS`` / ``CREATE
    INDEX IF NOT EXISTS`` and ``EXPLAIN`` run — no data is read or
    written.
    """
    from repro.exchange.sql_executor import ExchangeStore
    from repro.exchange.sql_plans import (
        lower_derivability_program,
        lower_lineage_program,
        lower_program,
    )

    diagnostics: list[Diagnostic] = []
    explained = 0
    compilable = []
    for crule in program.compiled:
        if crule.plans:
            compilable.append(crule)
        else:
            diagnostics.append(
                Diagnostic(
                    "RA404",
                    f"rule {crule.rule.name}: body is outside the "
                    "planner's SQL-compilable fragment; the sqlite "
                    "engine cannot run it (memory engine only)",
                    subject=crule.rule.name,
                )
            )
    own_store = store is None
    the_store = ExchangeStore() if store is None else store
    codec = the_store.codec
    lowerings: list[tuple[str, str, Callable[[], "FixpointSQL"]]] = [
        # exchange first: its schema holds the stored relations the
        # other two instances join.
        ("RA401", "exchange", lambda: lower_program(
            compilable, catalog, mappings, codec
        )),
        ("RA402", "derivability", lambda: lower_derivability_program(
            compilable, catalog, mappings, codec
        )),
        ("RA403", "graph-query", lambda: lower_lineage_program(
            compilable, catalog, codec
        )),
    ]
    try:
        for code, name, lower in lowerings:
            try:
                fsql = lower()
            except ExchangeError as exc:
                diagnostics.append(Diagnostic(code, str(exc), subject=name))
                continue
            the_store.ensure_schema(catalog, mappings, fsql)
            for subject, statement in fsql.statements():
                explained += _explain(
                    the_store,
                    statement.sql,
                    statement.params,
                    statement.runtime,
                    code,
                    subject,
                    diagnostics,
                )
    finally:
        if own_store:
            the_store.close()
    stats = {
        "explained_statements": explained,
        "sql_rules": len(compilable),
    }
    return diagnostics, stats
