"""Figure 8: fixed-length chain, varying the number of peers WITH data.

Paper claim: for a chain of 20 peers, unfolded rules / unfolding time /
evaluation time grow exponentially with the number of peers supplying
local data.  Data peers sit at the upstream end, as in Section 6.1.1's
"most of the data contributed by a small subset of authoritative
peers".

Each point is measured under both update-exchange engines (in-memory
compiled plans vs. set-oriented SQLite, whose store is the instance the
SQL pipeline then queries in place), and each system runs a second,
incremental exchange after construction so the rows also witness the
compiled-program cache and the incremental instance mirror: ``plans=0``
with a non-zero ``cache_hits`` column means the incremental exchange
recompiled nothing, and ``mirrored=0`` means it re-shipped no rows into
the SQLite store (the sync protocol found every relation unchanged).

The phase columns are **span-derived**: every system is built with a
``repro.obs`` tracer, and ``unfold_ms``/``plan_ms``/``eval_ms``/
``mirror_ms`` come from one traced measurement run's
:func:`~repro.obs.report.phase_totals` — the same numbers
``python -m repro.obs report`` shows — rather than hand-threaded
counters.  ``exchange_ms`` is that run's single incremental exchange
(:attr:`EvaluationResult.wall_seconds`), not the cumulative total.

``unfold_ms`` is measured with the per-system unfold cache invalidated,
so it is a cold — but viability/subsumption-*pruned* — unfolding;
``prune_ms`` breaks out the pruning pass itself, and
``warm_unfold_ms``/``unfold_hits`` come from an immediate repeat of the
same query served from the unfold cache.
"""

import pytest

from repro.obs import MemorySink, Tracer
from repro.obs.report import phase_totals
from repro.workloads import chain, prepare_storage, run_target_query, upstream_data_peers

from conftest import scaled

FIGURE = "fig08"

CHAIN_LENGTH = 12
DATA_PEER_COUNTS = (1, 2, 3, 4, 5)
ENGINES = ("memory", "sqlite")


@pytest.fixture(scope="module")
def systems():
    built = {}
    for engine in ENGINES:
        for count in DATA_PEER_COUNTS:
            sink = MemorySink()
            system = chain(
                CHAIN_LENGTH,
                data_peers=upstream_data_peers(CHAIN_LENGTH, count),
                base_size=scaled(20),
                engine=engine,
                trace=Tracer(sink),
            )
            # Incremental no-op exchange: hits the program cache.
            system.exchange(engine=engine)
            built[engine, count] = (system, prepare_storage(system), sink)
    yield built
    for _, storage, _ in built.values():
        storage.close()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("data_peers", DATA_PEER_COUNTS)
def test_fig08_point(benchmark, systems, recorder, engine, data_peers):
    system, storage, sink = systems[engine, data_peers]

    def run():
        return run_target_query(system, storage=storage)

    benchmark.pedantic(run, rounds=3, iterations=1)

    # One traced measurement run: an incremental exchange plus the
    # target query, with the phase breakdown read back from the spans.
    # The unfold cache is invalidated first so ``unfold_ms`` is a *cold*
    # (but pruned) unfolding; ``prune_ms`` is the share the viability/
    # subsumption pass spent earning that.  The warm repeat right after
    # witnesses the cache: ``warm_unfold_ms`` is the cache-hit cost of
    # the same query, and ``unfold_hits`` counts the lookups it served.
    sink.clear()
    system.unfold_cache.invalidate()
    system.exchange(engine=engine)
    result = run_target_query(system, storage=storage)
    phases = phase_totals(sink.records())
    sink.clear()
    hits_before = system.unfold_cache.hits
    run_target_query(system, storage=storage)
    warm = phase_totals(sink.records())
    recorder.record(
        f"engine={engine} data_peers={data_peers}",
        rules=result.unfolded_rules,
        unfold_ms=round(phases.get("query.unfold", 0.0), 1),
        prune_ms=round(phases.get("unfold.prune", 0.0), 1),
        warm_unfold_ms=round(warm.get("query.unfold", 0.0), 1),
        unfold_hits=system.unfold_cache.hits - hits_before,
        plan_ms=round(phases.get("query.compile", 0.0), 1),
        eval_ms=round(phases.get("query.sql", 0.0), 1),
        mirror_ms=round(phases.get("exchange.mirror", 0.0), 1),
        exchange_ms=round(result.last_exchange_seconds * 1e3, 1),
        engine=result.engine,
        plans=result.plans_compiled,
        cache_hits=result.plan_cache_hits,
        index_hits=result.index_hits,
        deduped=result.dedup_skipped,
        mirrored=result.rows_mirrored,
        rel_synced=result.relations_synced,
    )


def test_fig08_shape(benchmark, systems, recorder):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    counts = [
        run_target_query(
            systems["memory", count][0], storage=systems["memory", count][1]
        ).unfolded_rules
        for count in DATA_PEER_COUNTS
    ]
    recorder.record("shape", rule_counts=counts)
    # Exponential in the number of data peers.
    ratios = [b / a for a, b in zip(counts, counts[1:])]
    assert all(r >= 2 for r in ratios)
