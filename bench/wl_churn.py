"""``churn-resident``: small deltas against a level resident store.

One operation is a *cycle* on a resident ``branched(9)`` store (base
100 at each leaf): insert a batch at the most-upstream leaf →
incremental ``exchange`` → ``lineage`` + ``derivability`` + ``trusted``
on the writer (the first queries of a new epoch, so nothing is cached)
→ delete the previous cycle's batch → ``propagate_deletions``.  Every
:data:`SPIKE_PERIOD`-th cycle inserts a batch big enough that deleting
it one cycle later crosses the index's ¼-cone threshold: the index goes
stale and the next exchange rebuilds it — the background-work spike a
median hides, so the spike cycles are a quarter of all cycles and
``op_ms_p90`` lands inside them.  Instance size stays level.  Work
unit: cycles.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any

from repro.cdss.trust import TrustPolicy
from repro.provenance.graph import TupleNode
from repro.relational.schema import is_local_name
from repro.workloads.swissprot import SwissProtEntry, generate_entries
from repro.workloads.topologies import (
    TopologySpec,
    branched,
    build_system,
    leaf_peers,
    peer_name,
)

from harness import (
    Ctx,
    Outcome,
    Workload,
    ratio,
    settle_store,
    unindexed_oracle,
    write_cycle_layers,
)

PEERS = 9
BASE = 100
BATCH = 10
#: deleting this many entries kills 12 derived tuples each — more than
#: a quarter of the ~5k index fires, so the index is marked stale.
SPIKE_BATCH = 150
#: the big insert and, one cycle later, the big delete make two slow
#: cycles per period: 25% of cycles, so p90 sits inside that mode.
SPIKE_PERIOD = 8
#: the indexed lineage answer is compared with the unindexed oracle
#: this often (outside the cycle span).
ORACLE_EVERY = 20


@dataclass
class State:
    cdss: Any
    path: str
    top: str
    policy: TrustPolicy
    tracer: Any
    cycle: int = 0
    previous: "list[SwissProtEntry]" = field(default_factory=list)


def _entries(ctx: Ctx, cycle: int, count: int) -> "list[SwissProtEntry]":
    return generate_entries(
        count,
        seed=ctx.seed * 1_000_003 + 7_000 + cycle,
        key_offset=50_000_000 + cycle * 100_000,
    )


def setup(ctx: Ctx) -> State:
    path = str(ctx.scratch / "churn.db")
    leaves = leaf_peers(PEERS)
    tracer = ctx.obs_tracer()
    cdss = branched(
        PEERS,
        data_peers=leaves,
        base_size=ctx.size(BASE, 10),
        seed=ctx.seed * 1_000_003,
        engine="sqlite",
        exchange_path=path,
        resident=True,
        trace=tracer,
    )
    policy = TrustPolicy()
    policy.distrust_mapping("m1")
    state = State(cdss, path, peer_name(leaves[0]), policy, tracer)
    # Warm-up: two untimed cycles, so the incremental-exchange,
    # graph-query and deletion lowerings are compiled and prepared.
    for _ in range(2):
        _cycle(state, ctx, ctx.log)
    if tracer is not None:
        tracer.sink.clear()
    return state


def _cycle(state: State, ctx: Ctx, log: Any) -> dict:
    cdss, top, cycle = state.cdss, state.top, state.cycle
    state.cycle += 1
    period = ctx.size(SPIKE_PERIOD, 4)
    spike = cycle % period == period - 1
    with log.span("bench.prepare", op=cycle):
        batch = _entries(
            ctx, cycle, ctx.size(SPIKE_BATCH, 12) if spike else ctx.size(BATCH, 2)
        )
        first = [e.first_row() for e in batch]
        second = [e.second_row() for e in batch]
        probe = TupleNode("P0_R1", first[0])
        gone_first = [e.first_row() for e in state.previous]
        gone_second = [e.second_row() for e in state.previous]
    with log.span("churn.cycle", op=cycle) as op:
        with log.span("churn.insert_exchange") as write:
            with log.span("cdss.insert_local_many"):
                cdss.insert_local_many(f"{top}_R1", first)
                cdss.insert_local_many(f"{top}_R2", second)
            with log.span("cdss.exchange"):
                exchanged = cdss.exchange(
                    engine="sqlite", storage=state.path, resident=True
                )
        with log.span("churn.graph_queries") as queries:
            with log.span("cdss.lineage"):
                cdss.lineage(probe)
            stats = [cdss.last_graph_query]
            with log.span("cdss.derivability"):
                cdss.derivability()
            stats.append(cdss.last_graph_query)
            with log.span("cdss.trusted"):
                cdss.trusted(state.policy)
            stats.append(cdss.last_graph_query)
        with log.span("churn.delete_propagate") as delete:
            with log.span("cdss.delete_local_many"):
                cdss.delete_local_many(f"{top}_R1", gone_first)
                cdss.delete_local_many(f"{top}_R2", gone_second)
            with log.span("cdss.propagate_deletions"):
                killed = cdss.propagate_deletions()
    ctx.check(
        f"churn-resident cycle {cycle} rows deleted",
        killed,
        # 6 peers on the path from the leaf to P0, two relations each.
        12 * len(state.previous),
    )
    state.previous = batch
    return {
        "seconds": op.seconds,
        "write_s": write.seconds,
        "queries_s": queries.seconds,
        "delete_s": delete.seconds,
        "exchange": exchanged,
        "deletion": cdss.last_deletion,
        "graph_queries": stats,
        "probe": probe,
    }


def _verify_lineage(state: State, ctx: Ctx, probe: TupleNode) -> None:
    """Indexed answer == unindexed relational walk, on a probe that is
    still stored (the batch just inserted)."""
    ctx.check(
        f"churn-resident lineage of {probe.relation} at cycle {state.cycle}",
        state.cdss.lineage(probe),
        unindexed_oracle(state.cdss).lineage(probe)[0],
    )


def _verify_instance(state: State, ctx: Ctx) -> None:
    """The resident public instance equals what a memory-engine twin
    derives from the final local tables."""
    cdss = state.cdss
    twin = build_system(TopologySpec("branched", PEERS, (), 0))
    for name in cdss.catalog.names():
        if is_local_name(name):
            twin.insert_local_many(name, cdss.instance[name])
    twin.exchange(engine="memory")
    store = cdss.exchange_store
    for name in cdss.catalog.names():
        if not is_local_name(name):
            ctx.check(
                f"churn-resident final instance of {name}",
                store.relation_rows(cdss.catalog[name]),
                set(twin.instance[name]),
            )


def measure(state: State, ctx: Ctx) -> Outcome:
    log = ctx.log
    cycles: list[dict] = []
    timed = 0.0
    started = time.perf_counter()
    # Whole spike periods only: every run then has the same share of
    # slow cycles and — the two warm-up cycles having set the phase —
    # ends on the level instance, two cycles after the big delete.
    period = ctx.size(SPIKE_PERIOD, 4)
    while timed < ctx.seconds or len(cycles) % period:
        if len(cycles) % period == 0:
            ctx.reference(op=state.cycle)
        cycle = _cycle(state, ctx, log)
        cycles.append(cycle)
        timed += cycle["seconds"]
        if state.cycle % ctx.size(ORACLE_EVERY, 4) == 0:
            with log.span("bench.verify", op=state.cycle):
                # The probe's batch is the one the *next* cycle deletes,
                # so it is still stored here.
                _verify_lineage(state, ctx, cycle["probe"])
    ctx.reference(op=state.cycle)
    with log.span("bench.verify", op=state.cycle):
        store = state.cdss.exchange_store
        store_bytes, wal_bytes = settle_store(store, state.path, log)
        _verify_instance(state, ctx)
    window = (started, time.perf_counter())

    queries = [s for c in cycles for s in c["graph_queries"]]
    layers = {
        "exchange.index_hit_ratio": ratio(
            sum(s.index_hit for s in queries),
            sum(s.index_hit + s.index_miss for s in queries),
        ),
        "exchange.pm_rows_scanned": sum(s.pm_rows_scanned for s in queries),
        "exchange.prepared_hit_ratio": ratio(
            store.prepared_hits, store.prepared_hits + store.prepared_misses
        ),
        "exchange.checkpoint.s": log.total("store.checkpoint"),
        "storage.wal_bytes": wal_bytes,
        "graph_query_ms_p50": statistics.median(
            c["queries_s"] for c in cycles
        ) * 1e3,
    }
    for query in ("lineage", "derivability", "trusted"):
        layers[f"exchange.{query}_ms_p50"] = (
            statistics.median(log.durations(f"cdss.{query}") or [0.0]) * 1e3
        )
    layers.update(write_cycle_layers(log, cycles, state.tracer))
    return Outcome(
        samples_ms=[c["seconds"] * 1e3 for c in cycles],
        work=len(cycles),
        timed_s=timed,
        rates=[
            period / sum(c["seconds"] for c in cycles[start:start + period])
            for start in range(0, len(cycles), period)
        ],
        attempted=len(cycles),
        store_bytes=store_bytes,
        tuples=state.cdss.instance_size(),
        layers=layers,
        logs=[log],
        window=window,
    )


def close(state: State) -> None:
    state.cdss.exchange_store.close()


WORKLOAD = Workload("churn-resident", setup, measure, close)
