"""``serve-read`` and ``serve-rw``: the serving tier over one resident
``chain(6)`` store (base 200 at the two most-upstream peers).

The reader is one closed-loop thread holding one
``ReaderPool.session()`` for the whole run.  Probes are ``lineage`` of
one of 400 target-peer tuples drawn Zipf(1.1) — a working set far
larger than the session's 64-entry result cache, hit ratio ≈0.63 —
plus 1‰ ``derivability`` and 1‰ ``trusted``.  One operation is one
read, timed including retries and backoff.  Work unit: reads.

* ``serve-read``: the reader alone, quiescent writer — the read path.
  (A second reader thread only measures GIL hand-offs: p50 went from
  27 µs to 200 µs; see bench/README.md.)
* ``serve-rw``: the reader beside a writer (the main thread) that
  churns — insert 5 → exchange → delete the previous 5 → propagate,
  ``PASSIVE`` checkpoint every 5 cycles — so epochs move under the
  reader: caches drop, stale snapshots are refused and retried, WAL and
  GIL are shared.

Every answer is digest-compared with the unindexed oracle
(``harness.unindexed_oracle``) after the threads stop; see
:func:`_verify` for what is compared at which epoch.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any

from repro.cdss.trust import TrustPolicy
from repro.errors import ServeUnavailable
from repro.provenance.graph import TupleNode
from repro.serve import BackoffPolicy, ReaderPool, checkpoint_with_retry
from repro.workloads.swissprot import SwissProtEntry, generate_entries
from repro.workloads.topologies import (
    chain,
    peer_name,
    target_relation,
    upstream_data_peers,
)

from harness import (
    Ctx,
    Outcome,
    Workload,
    percentile,
    ratio,
    settle_store,
    unindexed_oracle,
    write_cycle_layers,
)
from spans import SpanLog

PEERS = 6
BASE = 200
ZIPF_EXPONENT = 1.1
#: 1‰ each; the two whole-instance queries cost milliseconds, not
#: microseconds, so more would turn the read mix into a fixpoint mix.
RARE_SHARE = 0.001
#: probe-sequence length (reused cyclically if exhausted).
SEQUENCE = 1 << 18
WARM_READS = 2000
INSERTS_PER_CYCLE = 5
CHECKPOINT_EVERY = 5
#: the writer records the oracle's derivability/trusted digests at the
#: epoch this many cycles produce (each costs ~170 ms of writer time,
#: against ~250 ms per cycle beside a busy reader).
ORACLE_EVERY = 8
#: readers must ride out an exchange: ~4 s of fine-grained polling
#: (the soak harness's budget).
RETRY = BackoffPolicy(attempts=200, base_delay=0.001, multiplier=1.5, max_delay=0.02)

#: ``work_per_s`` of ``serve-read`` is the median reads/s over window
#: slices this long.
SLICE_S = 0.5

DERIVABILITY = -1
TRUSTED = -2


def digest(value: object) -> object:
    """Order-insensitive fingerprint of an answer (the soak's)."""
    if isinstance(value, dict):
        return hash(frozenset(value.items()))
    if isinstance(value, frozenset):
        return hash(value)
    return value


@dataclass
class Reader:
    """What the reader thread observed."""

    log: SpanLog
    latencies: array = field(default_factory=lambda: array("d"))
    lineage_s: array = field(default_factory=lambda: array("d"))
    rare_s: dict[int, list[float]] = field(
        default_factory=lambda: {DERIVABILITY: [], TRUSTED: []}
    )
    #: (epoch, probe) -> digest of the answer; a second answer for the
    #: same pair must digest equal.
    seen: dict[tuple[int, int], object] = field(default_factory=dict)
    paths: dict[str, int] = field(default_factory=dict)
    #: reads answered in each :data:`SLICE_S` of the window.
    per_slice: list[int] = field(default_factory=list)
    hits: int = 0
    unavailable: int = 0
    retry_wait_s: float = 0.0
    errors: list[str] = field(default_factory=list)


@dataclass
class State:
    cdss: Any
    path: str
    pool: ReaderPool
    nodes: list[TupleNode]
    policy: TrustPolicy
    tracer: Any
    writer: bool
    top: str
    cycle: int = 0
    previous: "list[SwissProtEntry]" = field(default_factory=list)


def _probe_sequence(seed: int, nodes: int, length: int) -> array:
    """Indices into the lineage probes, Zipf-distributed, with the two
    whole-instance queries mixed in as negative markers."""
    rng = random.Random(seed)
    weights = list(
        accumulate(1 / (rank + 1) ** ZIPF_EXPONENT for rank in range(nodes))
    )
    picks = rng.choices(range(nodes), cum_weights=weights, k=length)
    for index in range(length):
        draw = rng.random()
        if draw < RARE_SHARE:
            picks[index] = DERIVABILITY
        elif draw < 2 * RARE_SHARE:
            picks[index] = TRUSTED
    return array("i", picks)


def _read(session: Any, state: State, probe: int) -> object:
    if probe >= 0:
        return session.lineage(state.nodes[probe])
    if probe == DERIVABILITY:
        return session.derivability()
    return session.trusted(state.policy)


def _setup(ctx: Ctx, writer: bool) -> State:
    path = str(ctx.scratch / "serve.db")
    base = ctx.size(BASE, 8)
    seed = ctx.seed * 1_000_003
    tracer = ctx.obs_tracer()
    cdss = chain(
        PEERS,
        base_size=base,
        seed=seed,
        engine="sqlite",
        exchange_path=path,
        resident=True,
        trace=tracer,
    )
    nodes = [
        TupleNode(target_relation(), entry.first_row())
        for peer in upstream_data_peers(PEERS, 2)
        for entry in generate_entries(
            base, seed=seed + peer, key_offset=peer * 10_000_000
        )
    ]
    # Shuffle so Zipf rank is not correlated with storage order.
    random.Random(seed).shuffle(nodes)
    policy = TrustPolicy()
    policy.distrust_mapping("m1")
    pool = ReaderPool(path, cdss.catalog, size=1, retry=RETRY)
    state = State(
        cdss, path, pool, nodes, policy, tracer, writer, peer_name(PEERS - 1)
    )
    if writer:
        # Warm the writer's incremental and deletion paths.
        for _ in range(2):
            _cycle(state, ctx, SpanLog(False))
    # Warm the reader's session: connection, prepared statements, the
    # epoch's result cache.
    with pool.session() as session:
        for probe in _probe_sequence(
            seed - 1, len(nodes), ctx.size(WARM_READS, 20)
        ):
            _read(session, state, probe)
    if tracer is not None:
        tracer.sink.clear()
    return state


def _cycle(state: State, ctx: Ctx, log: SpanLog) -> dict:
    """One writer cycle; the store stays level because each cycle
    deletes what the previous one inserted."""
    cdss, top, cycle = state.cdss, state.top, state.cycle
    state.cycle += 1
    batch = generate_entries(
        ctx.size(INSERTS_PER_CYCLE, 2),
        seed=ctx.seed * 1_000_003 + 9_000 + cycle,
        key_offset=50_000_000 + cycle * 100_000,
    )
    with log.span("serve.write_cycle", op=cycle):
        with log.span("churn.insert_exchange") as write:
            with log.span("cdss.insert_local_many"):
                cdss.insert_local_many(
                    f"{top}_R1", [e.first_row() for e in batch]
                )
                cdss.insert_local_many(
                    f"{top}_R2", [e.second_row() for e in batch]
                )
            with log.span("cdss.exchange"):
                exchanged = cdss.exchange(
                    engine="sqlite", storage=state.path, resident=True
                )
        with log.span("churn.delete_propagate") as delete:
            with log.span("cdss.delete_local_many"):
                cdss.delete_local_many(
                    f"{top}_R1", [e.first_row() for e in state.previous]
                )
                cdss.delete_local_many(
                    f"{top}_R2", [e.second_row() for e in state.previous]
                )
            with log.span("cdss.propagate_deletions"):
                cdss.propagate_deletions()
        wal_pages = 0
        if state.cycle % CHECKPOINT_EVERY == 0:
            with log.span("store.checkpoint"):
                wal_pages = checkpoint_with_retry(
                    cdss.exchange_store, "PASSIVE"
                )[1]
    state.previous = batch
    return {
        "write_s": write.seconds,
        "delete_s": delete.seconds,
        "exchange": exchanged,
        "deletion": cdss.last_deletion,
        "wal_pages": wal_pages,
    }


def _reader_main(
    state: State,
    reader: Reader,
    sequence: array,
    start: threading.Barrier,
    stop: threading.Event,
) -> None:
    log = reader.log
    latencies, seen, paths = reader.latencies, reader.seen, reader.paths
    per_slice = reader.per_slice
    perf_counter = time.perf_counter
    position = 0
    # Lineage answers already digested at the current epoch: a cache
    # hit hands back the same object, which needs no second digest.
    epoch = -1
    digested: dict[int, object] = {}
    try:
        with state.pool.session() as session:
            start.wait()
            window_start = mark = perf_counter()
            while not stop.is_set():
                probe = sequence[position % len(sequence)]
                position += 1
                begun = perf_counter()
                try:
                    answer = _read(session, state, probe)
                except ServeUnavailable:
                    reader.unavailable += 1
                    continue
                ended = perf_counter()
                seconds = ended - begun
                latencies.append(seconds)
                slot = int((ended - window_start) / SLICE_S)
                while len(per_slice) <= slot:
                    per_slice.append(0)
                per_slice[slot] += 1
                stats = session.last_read
                if probe >= 0:
                    reader.lineage_s.append(seconds)
                else:
                    reader.rare_s[probe].append(seconds)
                paths[stats.path] = paths.get(stats.path, 0) + 1
                reader.hits += stats.cache_hit
                if stats.retries:
                    # Everything beyond one attempt's work is waiting.
                    reader.retry_wait_s += seconds
                if log.enabled:
                    # The operation spans are contiguous, so the trace
                    # accounts for the client's own bookkeeping too; the
                    # call into the serving layer is the child.
                    now = perf_counter()
                    parent = log.add("serve.read", mark, now, position)
                    log.add(f"serve.{stats.kind}", begun, ended, position, parent)
                    mark = now
                if stats.epoch != epoch:
                    epoch = stats.epoch
                    digested.clear()
                if digested.get(probe) is answer:
                    continue
                fingerprint = digest(answer)
                if seen.setdefault((epoch, probe), fingerprint) != fingerprint:
                    reader.errors.append(
                        f"epoch {epoch} probe {probe} answered two "
                        "different values"
                    )
                if probe >= 0:
                    digested[probe] = answer
    except Exception as error:  # noqa: BLE001 - reported as a failed run
        reader.errors.append(f"reader died: {error!r}")
        stop.set()


def _verify(
    state: State,
    ctx: Ctx,
    reader: Reader,
    rare_oracle: dict[int, dict[int, object]],
) -> int:
    """Compare every reader answer with the unindexed oracle; returns
    how many answers had no oracle to compare with.

    The 400 lineage probes are base tuples the writer never touches, so
    their lineage is the same at every epoch of the run: the oracle
    computed once, on the quiescent store after the threads stopped, is
    the oracle at each reader's observed epoch.  ``derivability`` and
    ``trusted`` change with every epoch; on ``serve-read`` there is one
    epoch, on ``serve-rw`` the writer thread recorded the oracle at the
    epochs in *rare_oracle* and answers at other epochs are counted as
    unverified.
    """
    oracle = unindexed_oracle(state.cdss)
    expected = [digest(oracle.lineage(node)[0]) for node in state.nodes]
    unverified = 0
    for (epoch, probe), observed in reader.seen.items():
        if probe >= 0:
            ctx.check(
                f"lineage of probe {probe} at epoch {epoch}",
                observed,
                expected[probe],
            )
        elif epoch in rare_oracle:
            ctx.check(
                f"whole-instance query {probe} at epoch {epoch}",
                observed,
                rare_oracle[epoch][probe],
            )
        else:
            unverified += 1
    return unverified


def _record_rare(state: State, rare_oracle: dict[int, dict[int, object]]) -> None:
    """Oracle digests of the two whole-instance queries at the store's
    current epoch (writer thread, or quiescent)."""
    store = state.cdss.exchange_store
    epoch = int(store.meta_get("index_epoch") or 0)
    oracle = unindexed_oracle(state.cdss)
    rare_oracle[epoch] = {
        DERIVABILITY: digest(oracle.derivability()[0]),
        TRUSTED: digest(oracle.trusted(state.policy)[0]),
    }


def measure(state: State, ctx: Ctx) -> Outcome:
    reader = Reader(SpanLog(ctx.traced, "reader", 1))
    sequence = _probe_sequence(
        ctx.seed * 1_000_003 + 17 + state.cycle,
        len(state.nodes),
        ctx.size(SEQUENCE, 512),
    )
    start = threading.Barrier(2)
    stop = threading.Event()
    thread = threading.Thread(
        target=_reader_main,
        args=(state, reader, sequence, start, stop),
        name="reader",
    )
    thread.start()
    rare_oracle: dict[int, dict[int, object]] = {}
    cycles: list[dict] = []
    log = ctx.log
    # The reference is timed while this is the only running thread —
    # before the reader is released and after it has stopped — so the
    # workload's own GIL contention never enters it.
    ctx.reference(op=state.cycle, bursts=5)
    start.wait()
    began = time.perf_counter()
    deadline = began + ctx.seconds
    try:
        if state.writer:
            # The writer is this thread: it churns until the deadline,
            # and the reader runs until the writer finishes.
            while time.perf_counter() < deadline and not stop.is_set():
                cycles.append(_cycle(state, ctx, log))
                if state.cycle % ctx.size(ORACLE_EVERY, 1) == 0:
                    with log.span("bench.verify", op=state.cycle):
                        _record_rare(state, rare_oracle)
        else:
            stop.wait(ctx.seconds)
    finally:
        stop.set()
        thread.join()
    ended = time.perf_counter()
    ctx.reference(op=state.cycle, bursts=5)

    with log.span("bench.verify", op=state.cycle):
        # Sizes are read before the oracle runs: its unindexed walks
        # materialize live sets in the store file.
        store_bytes, wal_bytes = settle_store(
            state.cdss.exchange_store, state.path, log
        )
        if not state.writer:
            _record_rare(state, rare_oracle)
        unverified = _verify(state, ctx, reader, rare_oracle)
    ctx.problems.extend(reader.errors)

    reads = len(reader.latencies)
    ordered_us = sorted(s * 1e6 for s in reader.latencies)
    pool_metrics = state.pool.metrics.snapshot()
    layers: dict[str, float] = {
        "serve.cache_hit_ratio": ratio(reader.hits, reads),
        "serve.lineage_us_p50": statistics.median(reader.lineage_s) * 1e6,
        "serve.read_us_p99": percentile(ordered_us, 0.99),
        "serve.snapshot_refreshes": pool_metrics.get(
            "serve.snapshot_refreshes", 0
        ),
        "serve.stale_retries": pool_metrics.get("serve.stale_retries", 0),
        "serve.busy_retries": pool_metrics.get("serve.busy_retries", 0),
        "serve.unavailable": reader.unavailable,
        "serve.epochs_observed": len({epoch for epoch, _ in reader.seen}),
        "serve.retry_wait.s": reader.retry_wait_s,
        "serve.unverified_reads": unverified,
        "serve_read_us_p50": statistics.median(ordered_us),
        "serve_read_us_p95": percentile(ordered_us, 0.95),
        "serve_reads_per_s": ratio(reads, ended - began),
        "exchange.checkpoint.s": log.total("store.checkpoint"),
        "exchange.wal_pages": max([0] + [c["wal_pages"] for c in cycles]),
        "storage.wal_bytes": wal_bytes,
    }
    for path in ("cache", "interval", "cte", "fixpoint", "miss"):
        layers[f"serve.path.{path}"] = reader.paths.get(path, 0)
    for probe, name in ((DERIVABILITY, "derivability"), (TRUSTED, "trusted")):
        layers[f"serve.{name}_ms_p50"] = (
            statistics.median(reader.rare_s[probe] or [0.0]) * 1e3
        )
    if cycles:
        layers.update(write_cycle_layers(log, cycles, state.tracer))
    if state.writer:
        # Beside a writer the slices sample different phases of its
        # cycle (330 to 4 400 reads/s within one run): their median is
        # a lottery, the window's mean is what repeats.
        rates = [ratio(reads, ended - began)]
    else:
        # The last slice is partial: the window rarely ends on a boundary.
        whole = max(
            1, min(len(reader.per_slice), int((ended - began) / SLICE_S))
        )
        rates = [count / SLICE_S for count in reader.per_slice[:whole]]
    return Outcome(
        samples_ms=array("d", (s * 1e3 for s in reader.latencies)),
        work=reads,
        timed_s=ended - began,
        rates=rates,
        attempted=reads + reader.unavailable,
        failed=reader.unavailable,
        store_bytes=store_bytes,
        tuples=state.cdss.instance_size(),
        layers=layers,
        # The main thread only waits when there is no writer.
        logs=([log] if state.writer else []) + [reader.log],
        window=(began, ended),
    )


def close(state: State) -> None:
    state.pool.close()
    state.cdss.exchange_store.close()


SERVE_READ = Workload(
    "serve-read", lambda ctx: _setup(ctx, writer=False), measure, close
)
SERVE_RW = Workload(
    "serve-rw", lambda ctx: _setup(ctx, writer=True), measure, close
)
