"""Experiment driver shared by the benchmarks (Section 6).

One :func:`run_experiment` call builds a workload CDSS, loads it into
SQLite, optionally materializes ASRs, runs the target query

    FOR [R0 $x] INCLUDE PATH [$x] <-+ [] RETURN $x

through the SQL pipeline, and reports the paper's metrics: number of
unfolded rules, unfolding time, SQL evaluation time, and materialized
instance size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.cdss.system import CDSS
from repro.indexing.advisor import asr_definitions_for
from repro.indexing.manager import ASRManager
from repro.proql.sql_engine import SQLEngine, SQLStats
from repro.storage.sqlite_backend import SQLiteStorage
from repro.workloads.topologies import instance_tuple_count, target_relation


@dataclass
class ExperimentResult:
    """Metrics of one target-query run.

    ``exchange_seconds`` is cumulative over all exchanges that built
    the CDSS; the engine counters describe the most recent exchange
    (:attr:`CDSS.last_exchange`), so benchmark rows can report the
    Datalog engine alongside the query pipeline.
    """

    stats: SQLStats
    instance_tuples: int
    exchange_seconds: float
    load_seconds: float
    #: wall-clock seconds of the most recent single ``exchange()`` call
    #: (:attr:`EvaluationResult.wall_seconds`); unlike the cumulative
    #: ``exchange_seconds`` this isolates one incremental exchange.
    last_exchange_seconds: float = 0.0
    asr_rows: int = 0
    plans_compiled: int = 0
    index_hits: int = 0
    dedup_skipped: int = 0
    #: engine of the most recent exchange ("memory" | "sqlite").
    engine: str = "memory"
    #: whether that exchange hit the compiled-program cache.
    plan_cache_hit: bool = False
    #: cumulative program-cache hits over the CDSS's lifetime.
    plan_cache_hits: int = 0
    #: rows shipped into the SQLite mirror by the most recent
    #: exchange's incremental sync (0 over unchanged relations).
    rows_mirrored: int = 0
    #: relations that sync had to touch.
    relations_synced: int = 0
    #: tuples killed by the most recent deletion propagation
    #: (:attr:`CDSS.last_deletion`; 0 when none ran).
    rows_deleted: int = 0
    #: P_m firing-history rows garbage-collected alongside it.
    pm_rows_collected: int = 0
    #: substrate that ran that propagation ("memory" graph test or
    #: "sqlite" relational fixpoint; "" when none ran).
    deletion_engine: str = ""
    #: substrate that answered the most recent graph query
    #: (:attr:`CDSS.last_graph_query`: "memory" in-memory graph or
    #: "sqlite" relational walk; "" when none ran).
    graph_query_engine: str = ""
    #: fixpoint/walk rounds of that query (0 on the memory engine).
    graph_query_iterations: int = 0
    #: firing-history rows the relational walk enumerated (0 on the
    #: memory engine).
    pm_rows_scanned: int = 0
    #: diagnostics of the most recent ``exchange(validate=...)``
    #: pre-flight (:attr:`CDSS.last_validation`; both 0 when no
    #: pre-flight ran or the program was clean).
    analysis_errors: int = 0
    analysis_warnings: int = 0

    @property
    def unfolded_rules(self) -> int:
        return self.stats.unfolded_rules

    @property
    def unfold_seconds(self) -> float:
        return self.stats.unfold_seconds

    @property
    def evaluation_seconds(self) -> float:
        return self.stats.compile_seconds + self.stats.sql_seconds

    @property
    def query_processing_seconds(self) -> float:
        return self.stats.query_processing_seconds


def prepare_storage(cdss: CDSS) -> SQLiteStorage:
    """A loaded store binding for *cdss* (its pinned store when it is
    store-resident)."""
    storage = SQLiteStorage(cdss)
    storage.load()
    return storage


def run_target_query(
    cdss: CDSS,
    storage: SQLiteStorage | None = None,
    asr_length: int | None = None,
    asr_kind: str = "complete",
    collect_graph: bool = False,
    max_rules: int = 100_000,
) -> ExperimentResult:
    """Run the experiments' target query over *cdss*.

    ``asr_length``/``asr_kind`` replicate Section 6.4's sweeps: ASRs of
    the given type covering upstream chains in windows of that length.
    """
    t0 = time.perf_counter()
    own_storage = storage is None
    if storage is None:
        storage = prepare_storage(cdss)
    load_seconds = time.perf_counter() - t0

    manager = None
    asr_rows = 0
    if asr_length is not None:
        manager = ASRManager(storage)
        manager.register_all(
            asr_definitions_for(
                cdss, target_relation(), asr_length, asr_kind
            )
        )
        asr_rows = sum(manager.table_sizes().values())

    engine = SQLEngine(
        storage,
        rewriter=manager.rewrite if manager else None,
        schema_lookup=manager.schema_lookup() if manager else None,
        max_rules=max_rules,
    )
    stats, _ = engine.run_target(target_relation(), collect_graph=collect_graph)
    exchange = cdss.last_exchange
    deletion = cdss.last_deletion
    graph_query = cdss.last_graph_query
    validation = cdss.last_validation
    result = ExperimentResult(
        stats=stats,
        instance_tuples=instance_tuple_count(cdss),
        exchange_seconds=cdss.exchange_seconds,
        load_seconds=load_seconds,
        last_exchange_seconds=exchange.wall_seconds if exchange else 0.0,
        asr_rows=asr_rows,
        plans_compiled=exchange.plans_compiled if exchange else 0,
        index_hits=exchange.index_hits if exchange else 0,
        dedup_skipped=exchange.dedup_skipped if exchange else 0,
        engine=exchange.engine if exchange else "memory",
        plan_cache_hit=exchange.plan_cache_hit if exchange else False,
        plan_cache_hits=cdss.plan_cache.hits,
        rows_mirrored=exchange.rows_mirrored if exchange else 0,
        relations_synced=exchange.relations_synced if exchange else 0,
        rows_deleted=deletion.rows_deleted if deletion else 0,
        pm_rows_collected=deletion.pm_rows_collected if deletion else 0,
        deletion_engine=deletion.engine if deletion else "",
        graph_query_engine=graph_query.engine if graph_query else "",
        graph_query_iterations=graph_query.iterations if graph_query else 0,
        pm_rows_scanned=graph_query.pm_rows_scanned if graph_query else 0,
        analysis_errors=len(validation.errors) if validation else 0,
        analysis_warnings=len(validation.warnings) if validation else 0,
    )
    if manager is not None:
        manager.drop_all()
    if own_storage:
        storage.close()
    return result


def format_row(label: str, result: ExperimentResult) -> str:
    """One printable series row (benchmarks tee these into reports)."""
    return (
        f"{label:>24}  rules={result.unfolded_rules:6d}  "
        f"unfold={result.unfold_seconds * 1e3:9.1f}ms  "
        f"eval={result.evaluation_seconds * 1e3:9.1f}ms  "
        f"total={result.query_processing_seconds * 1e3:9.1f}ms  "
        f"tuples={result.instance_tuples:8d}  "
        f"exchange={result.exchange_seconds * 1e3:9.1f}ms"
    )
