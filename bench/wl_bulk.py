"""``bulk-exchange``: the write path at size, zero queries.

One operation is a *rep*: a fresh on-disk resident store, the
``branched(31)`` structure, ``insert_local_many`` of the seeded
entries at every leaf peer, one full ``exchange(engine="sqlite",
resident=True)``.  Every rep compiles its plans (the plan cache is per
CDSS), runs all 18 rounds and encodes every tuple — where sharding,
core/laconic solutions and million-tuple ingest must show.  Work unit:
stored tuples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.workloads.swissprot import generate_entries
from repro.workloads.topologies import (
    TopologySpec,
    branched_edges,
    build_system,
    leaf_peers,
    peer_name,
)

from harness import Ctx, Outcome, Workload, exchange_layers, ratio, settle_store

PEERS = 31
#: reps are short (~1.2 s) so a run holds enough of them for a median.
ENTRIES_PER_LEAF = 600
MIN_REPS = 3


@dataclass
class State:
    rep: int = 0


def expected_tuples(num_peers: int, entries_per_leaf: int) -> int:
    """Closed form: an entry at leaf *p* yields its two partition rows
    at *p* and at every peer downstream of it."""
    downstream = dict(branched_edges(num_peers))
    total = 0
    for leaf in leaf_peers(num_peers):
        hops = 1
        peer = leaf
        while peer in downstream:
            peer = downstream[peer]
            hops += 1
        total += 2 * hops * entries_per_leaf
    return total


def _rep(ctx: Ctx, state: State, entries_per_leaf: int) -> dict:
    """One rep; returns its counters.  Only the ``bulk.rep`` span is
    the operation — input generation (``bench.prepare``) and
    verification plus store disposal (``bench.verify``) are the
    benchmark's work, not the program's."""
    rep = state.rep
    state.rep += 1
    peers = ctx.size(PEERS, 7)
    path = ctx.scratch / f"bulk-{rep}.db"
    log = ctx.log
    with log.span("bench.prepare", op=rep):
        rows = {}
        for leaf in leaf_peers(peers):
            entries = generate_entries(
                entries_per_leaf,
                seed=ctx.seed * 1_000_003 + rep * 101 + leaf,
                key_offset=leaf * 10_000_000,
            )
            rows[leaf] = (
                [e.first_row() for e in entries],
                [e.second_row() for e in entries],
            )
        tracer = ctx.obs_tracer()
        cdss = build_system(
            TopologySpec("branched", peers, (), 0, trace=tracer)
        )
    with log.span("bulk.rep", op=rep) as op:
        with log.span("cdss.insert_local_many"):
            for leaf, (first, second) in rows.items():
                cdss.insert_local_many(f"{peer_name(leaf)}_R1", first)
                cdss.insert_local_many(f"{peer_name(leaf)}_R2", second)
        with log.span("cdss.exchange"):
            result = cdss.exchange(
                engine="sqlite", storage=str(path), resident=True
            )
    with log.span("bench.verify", op=rep):
        store = cdss.exchange_store
        tuples = cdss.instance_size()
        ctx.check(
            f"bulk-exchange rep {rep} instance size",
            tuples,
            expected_tuples(peers, entries_per_leaf),
        )
        store_bytes, wal_bytes = settle_store(store, path, log)
        store.close()
        for suffix in ("", "-wal", "-shm"):
            (path.parent / (path.name + suffix)).unlink(missing_ok=True)
    return {
        "seconds": op.seconds,
        "tuples": tuples,
        "store_bytes": store_bytes,
        "wal_bytes": wal_bytes,
        # Only the counters are kept: the result's instance and graph
        # would hold every rep's rows alive, and peak RSS would follow
        # the number of reps.
        "result": replace(result, instance=None, graph=None),
        "tracer": tracer,
    }


def setup(ctx: Ctx) -> State:
    """Warm-up: one small rep, so SQLite, the planner and the lowering
    caches have run once before anything is timed."""
    state = State(rep=-1)
    _rep(ctx, state, ctx.size(50, 5))
    return state


def measure(state: State, ctx: Ctx) -> Outcome:
    per_leaf = ctx.size(ENTRIES_PER_LEAF, 10)
    reps: list[dict] = []
    timed = 0.0
    started = time.perf_counter()
    while timed < ctx.seconds or len(reps) < ctx.size(MIN_REPS, 1):
        ctx.reference(op=state.rep)
        rep = _rep(ctx, state, per_leaf)
        reps.append(rep)
        timed += rep["seconds"]
    ctx.reference(op=state.rep)
    window = (started, time.perf_counter())
    log = ctx.log
    last = reps[-1]
    results = [r["result"] for r in reps]
    tracers = [r["tracer"] for r in reps]
    layers = {
        "cdss.insert_local_many.s": log.total("cdss.insert_local_many"),
        "cdss.exchange.s": log.total("cdss.exchange"),
        "cdss.exchange.calls": len(reps),
        "exchange.checkpoint.s": log.total("store.checkpoint"),
        "storage.wal_bytes": last["wal_bytes"],
        "exchange_tuples_per_s": ratio(
            sum(r["tuples"] for r in reps), timed
        ),
    }
    layers.update(exchange_layers(results, tracers))
    return Outcome(
        samples_ms=[r["seconds"] * 1e3 for r in reps],
        work=sum(r["tuples"] for r in reps),
        timed_s=timed,
        rates=[r["tuples"] / r["seconds"] for r in reps],
        attempted=len(reps),
        store_bytes=last["store_bytes"],
        tuples=last["tuples"],
        layers=layers,
        logs=[log],
        window=window,
    )


WORKLOAD = Workload("bulk-exchange", setup, measure, lambda state: None)
