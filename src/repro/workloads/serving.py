"""Many-client soak workload for the concurrent serving tier.

One writer thread loops insert → exchange → delete → propagate over a
resident chain store while N reader threads hammer ``lineage`` /
``derivability`` / ``trusted`` through a :class:`repro.serve.ReaderPool`.
The writer records a single-threaded *oracle* answer (the unindexed
relational paths of :class:`~repro.exchange.graph_queries.\
StoreGraphQueries`) for every epoch it creates; every reader records the
digest of every answer it got, keyed by the epoch its snapshot observed.
The run passes iff each reader digest equals the oracle digest *at that
reader's epoch* — the serving tier's whole contract in one assertion —
with zero escaped ``SQLITE_BUSY`` and zero reader errors.

Run the CI smoke variant from the command line::

    python -m repro.workloads.serving --smoke --trace serve-trace.jsonl

and the full acceptance shape (8 readers x 1000 queries x 25 cycles)
with ``--acceptance`` (what ``tests/test_serve_soak.py`` asserts on).
"""

from __future__ import annotations

import argparse
import os
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.cdss.trust import TrustPolicy
from repro.exchange.graph_queries import StoreGraphQueries
from repro.provenance.graph import TupleNode
from repro.serve import (
    BackoffPolicy,
    ReaderPool,
    ReaderSession,
    ServeUnavailable,
    checkpoint_with_retry,
    is_busy_error,
)
from repro.workloads.swissprot import generate_entries
from repro.workloads.topologies import chain, peer_name, upstream_data_peers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cdss.system import CDSS

__all__ = ["SoakConfig", "SoakReport", "run_soak", "main"]

#: readers must ride out full exchange cycles, so their retry budget is
#: wider than a session default: ~4 s of fine-grained polling.
SOAK_RETRY = BackoffPolicy(
    attempts=200, base_delay=0.001, multiplier=1.5, max_delay=0.02
)


def _reference_chunk_seconds() -> float:
    """Wall seconds of one reference chunk: about a millisecond of
    fixed interpreter work — integer arithmetic, tuple building, dict
    stores and lookups, string formatting, the mix a warm read is made
    of.  Readers time it beside their queries, so a latency bar of one
    chunk is the sub-millisecond bar scaled by the machine's speed
    under the run's own load."""
    started = time.perf_counter()
    table: dict[tuple[int, int], str] = {}
    total = 0
    for i in range(2200):
        key = (i % 97, i * i % 89)
        table[key] = f"{i}:{total & 0xFF}"
        total += len(table[key]) + key[0] * key[1]
    return time.perf_counter() - started


@dataclass(frozen=True)
class SoakConfig:
    """Shape of one soak run (defaults = the CI smoke size)."""

    peers: int = 4
    base_size: int = 12
    cycles: int = 3
    readers: int = 2
    queries_per_reader: int = 50
    inserts_per_cycle: int = 3
    checkpoint_every: int = 2
    deadline_seconds: float = 180.0

    @staticmethod
    def acceptance() -> "SoakConfig":
        """The acceptance-criteria shape: >= 8 readers x >= 1000
        queries each during >= 25 continuous exchange/delete cycles."""
        return SoakConfig(
            peers=4,
            base_size=20,
            cycles=25,
            readers=8,
            queries_per_reader=1000,
            inserts_per_cycle=3,
            checkpoint_every=5,
            deadline_seconds=300.0,
        )


@dataclass
class _ReaderLog:
    """What one reader thread observed."""

    queries: int = 0
    unavailable: int = 0
    busy_escapes: int = 0
    errors: list[str] = field(default_factory=list)
    #: (epoch, query key) -> answer digest, first observation wins;
    #: later observations of the same pair must agree (else recorded
    #: as an internal inconsistency in :attr:`errors`).
    seen: dict[tuple[int, object], object] = field(default_factory=dict)
    #: wall seconds of warm (result-cache hit) lineage answers.
    warm_lineage_seconds: list[float] = field(default_factory=list)
    #: wall seconds of the reference chunk, timed once per epoch seen.
    reference_seconds: list[float] = field(default_factory=list)


@dataclass
class SoakReport:
    """Outcome of :func:`run_soak` (what the soak test asserts on)."""

    config: SoakConfig
    cycles_run: int
    epochs_recorded: int
    total_queries: int
    reader_queries: list[int]
    mismatches: list[str]
    errors: list[str]
    busy_escapes: int
    unavailable: int
    warm_lineage_seconds: list[float]
    #: median wall seconds of the reference chunk across all readers
    #: (0.0 when no reader answered a query) — the bar
    #: :meth:`warm_median_seconds` is held to.
    reference_chunk_seconds: float
    final_checkpoint: tuple[int, int, int]
    wall_seconds: float
    metrics: dict[str, float]

    @property
    def passed(self) -> bool:
        """Zero mismatches, zero escaped BUSY, zero reader errors."""
        return not self.mismatches and not self.errors and (
            self.busy_escapes == 0
        )

    def warm_median_seconds(self) -> float:
        """Median warm (cached) lineage latency, 0.0 when unmeasured."""
        return statistics.median_high(self.warm_lineage_seconds or [0.0])

    def summary(self) -> str:
        """Human-readable one-screen result."""
        lines = [
            f"soak: {'PASS' if self.passed else 'FAIL'} "
            f"({self.wall_seconds:.1f}s wall)",
            f"  cycles: {self.cycles_run}/{self.config.cycles}  "
            f"epochs recorded: {self.epochs_recorded}",
            f"  queries: {self.total_queries} total "
            f"{self.reader_queries} per reader",
            f"  mismatches: {len(self.mismatches)}  "
            f"busy escapes: {self.busy_escapes}  "
            f"unavailable: {self.unavailable}  "
            f"errors: {len(self.errors)}",
            f"  warm lineage median: "
            f"{self.warm_median_seconds() * 1e6:.0f}us "
            f"over {len(self.warm_lineage_seconds)} samples "
            f"(reference chunk: {self.reference_chunk_seconds * 1e6:.0f}us)",
            f"  final checkpoint (TRUNCATE): busy={self.final_checkpoint[0]} "
            f"wal_pages={self.final_checkpoint[1]}",
        ]
        for problem in (self.mismatches + self.errors)[:10]:
            lines.append(f"  ! {problem}")
        return "\n".join(lines)


def _digest(value: object) -> object:
    """Order-insensitive fingerprint of a query answer.

    Readers keep digests instead of full answers so a soak's
    observation log stays small; the writer digests its oracle answers
    with the same function before comparing.
    """
    if isinstance(value, dict):
        return hash(frozenset(value.items()))
    if isinstance(value, frozenset):
        return hash(value)
    return value


def _probe_nodes(config: SoakConfig) -> list[TupleNode]:
    """Deterministic lineage probes: seed leaves and their derived
    copies at the target peer, one never-stored node (KeyError parity),
    and the first cycle-0 entry — absent at first, present mid-run,
    then deleted again, so probes cross every lifecycle state."""
    probes: list[TupleNode] = []
    top = config.peers - 1
    for peer_index in upstream_data_peers(config.peers, 2):
        entry = generate_entries(
            1, seed=peer_index, key_offset=peer_index * 10_000_000
        )[0]
        name = peer_name(peer_index)
        probes.append(TupleNode(f"{name}_R1_l", entry.first_row()))
        probes.append(TupleNode("P0_R1", entry.first_row()))
    cycle_entry = _cycle_entries(config, 0)[0]
    probes.append(
        TupleNode(f"{peer_name(top)}_R1_l", cycle_entry.first_row())
    )
    probes.append(TupleNode("P0_R2", (999_999_999,) * 14))
    return probes


def _cycle_entries(config: SoakConfig, cycle: int):
    """The rows cycle *cycle* inserts at the most-upstream peer."""
    return generate_entries(
        config.inserts_per_cycle,
        seed=10_000 + cycle,
        key_offset=50_000_000 + cycle * 100_000,
    )


def _soak_policy() -> TrustPolicy:
    """A policy exercising both distrust axes deterministically."""
    policy = TrustPolicy()
    policy.distrust_mapping("m1")
    return policy


def run_soak(
    config: SoakConfig,
    path: "str | os.PathLike[str] | None" = None,
    trace: object | None = None,
) -> SoakReport:
    """Run one soak: build the resident chain, start the readers,
    drive the writer loop, join everything, compare against the oracle.

    *path* is the store file (a temporary directory is used when
    omitted); *trace* is forwarded to the writer CDSS and, after the
    threads stop, to one single-threaded reader pass so the trace
    artifact carries ``serve.query`` spans too.
    """
    started = time.perf_counter()
    cleanup: tempfile.TemporaryDirectory | None = None
    if path is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-soak-")
        path = os.path.join(cleanup.name, "store.db")
    try:
        return _run_soak(config, os.fspath(path), trace, started)
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def _run_soak(
    config: SoakConfig, path: str, trace: object, started: float
) -> SoakReport:
    cdss = chain(
        config.peers,
        base_size=config.base_size,
        engine="sqlite",
        exchange_path=path,
        trace=trace,
    )
    store = cdss.exchange_store
    assert store is not None
    program, _ = cdss.plan_cache.fetch(cdss.program())
    oracle = StoreGraphQueries(
        store, program, cdss.catalog, cdss.mappings, use_index=False
    )
    policy = _soak_policy()
    probes = _probe_nodes(config)
    top = peer_name(config.peers - 1)

    oracle_digests: dict[int, dict[object, object]] = {}

    def record_oracle() -> None:
        """Oracle answers for the store's current epoch (writer thread
        only; runs after every epoch-creating operation, before the
        next one, so every epoch a reader can observe gets recorded)."""
        if store.meta_get("index_state") != "current" or store.dirty_run:
            return
        epoch = int(store.meta_get("index_epoch") or 0)
        if epoch in oracle_digests:
            return
        answers: dict[object, object] = {}
        for number, probe in enumerate(probes):
            try:
                value: object = oracle.lineage(probe)[0]
            except KeyError:
                value = "KeyError"
            answers[("lineage", number)] = _digest(value)
        answers[("derivability",)] = _digest(oracle.derivability()[0])
        answers[("trusted",)] = _digest(oracle.trusted(policy)[0])
        oracle_digests[epoch] = answers

    record_oracle()

    stop = threading.Event()
    deadline = time.monotonic() + config.deadline_seconds
    pool = ReaderPool(
        path,
        cdss.catalog,
        size=config.readers,
        retry=SOAK_RETRY,
        timeout=config.deadline_seconds,
    )
    logs = [_ReaderLog() for _ in range(config.readers)]
    query_kinds = len(probes) + 2

    def reader_main(index: int, log: _ReaderLog) -> None:
        with pool.session() as session:
            step = index  # stagger the probe rotation across readers
            epoch = None
            while True:
                if log.queries >= config.queries_per_reader and stop.is_set():
                    return
                if time.monotonic() > deadline:
                    log.errors.append(f"reader {index}: deadline exceeded")
                    return
                choice = step % query_kinds
                step += 1
                try:
                    if choice < len(probes):
                        key: object = ("lineage", choice)
                        try:
                            answer: object = session.lineage(probes[choice])
                        except KeyError:
                            answer = "KeyError"
                    elif choice == len(probes):
                        key = ("derivability",)
                        answer = session.derivability()
                    else:
                        key = ("trusted",)
                        answer = session.trusted(policy)
                except ServeUnavailable:
                    log.unavailable += 1
                    continue
                except Exception as error:  # noqa: BLE001 - soak verdict
                    if is_busy_error(error):
                        log.busy_escapes += 1
                    else:
                        log.errors.append(f"reader {index}: {error!r}")
                    continue
                stats = session.last_read
                if stats is None:
                    log.errors.append(f"reader {index}: no read stats")
                    continue
                log.queries += 1
                digest = _digest(answer)
                seen_key = (stats.epoch, key)
                previous = log.seen.setdefault(seen_key, digest)
                if previous != digest:
                    log.errors.append(
                        f"reader {index}: epoch {stats.epoch} {key} "
                        "answered two different values"
                    )
                if stats.cache_hit and key[0] == "lineage":
                    log.warm_lineage_seconds.append(stats.wall_seconds)
                if stats.epoch != epoch:
                    epoch = stats.epoch
                    log.reference_seconds.append(_reference_chunk_seconds())

    threads = [
        threading.Thread(
            target=reader_main,
            args=(index, log),
            name=f"soak-reader-{index}",
            daemon=True,
        )
        for index, log in enumerate(logs)
    ]
    for thread in threads:
        thread.start()

    writer_errors: list[str] = []
    cycles_run = 0
    try:
        for cycle in range(config.cycles):
            if time.monotonic() > deadline:
                writer_errors.append(f"writer: deadline at cycle {cycle}")
                break
            entries = _cycle_entries(config, cycle)
            for entry in entries:
                cdss.insert_local(f"{top}_R1", entry.first_row())
                cdss.insert_local(f"{top}_R2", entry.second_row())
            cdss.exchange(engine="sqlite", storage=path)
            record_oracle()
            if cycle > 0:
                victim = _cycle_entries(config, cycle - 1)[0]
                cdss.delete_local(f"{top}_R1", victim.first_row())
                record_oracle()
                cdss.delete_local(f"{top}_R2", victim.second_row())
                record_oracle()
                cdss.propagate_deletions()
                record_oracle()
            if (cycle + 1) % config.checkpoint_every == 0:
                checkpoint_with_retry(
                    store,
                    "PASSIVE",
                    metrics=cdss.metrics,
                    tracer=cdss.tracer,
                )
            cycles_run += 1
    except Exception as error:  # noqa: BLE001 - soak verdict
        writer_errors.append(f"writer: {error!r}")
    finally:
        stop.set()

    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()) + 10.0)
        if thread.is_alive():
            writer_errors.append(f"{thread.name}: did not stop")
    pool.close()

    # Quiescent point: every reader released its snapshot, so a
    # blocking checkpoint must fully truncate the WAL.
    final_checkpoint = checkpoint_with_retry(
        store, "TRUNCATE", metrics=cdss.metrics, tracer=cdss.tracer
    )

    # One single-threaded traced reader pass so the trace artifact
    # carries serve.query spans (reader threads never share the CDSS
    # tracer: tracers are deliberately single-threaded).
    with ReaderSession(
        path, cdss.catalog, metrics=cdss.metrics, tracer=cdss.tracer
    ) as traced:
        traced.lineage(probes[0])
        traced.derivability()

    mismatches: list[str] = []
    errors = list(writer_errors)
    for index, log in enumerate(logs):
        errors.extend(log.errors)
        for (epoch, key), digest in sorted(
            log.seen.items(), key=lambda item: (item[0][0], repr(item[0][1]))
        ):
            expected = oracle_digests.get(epoch)
            if expected is None:
                mismatches.append(
                    f"reader {index}: observed epoch {epoch} the writer "
                    f"never recorded ({key})"
                )
            elif expected.get(key) != digest:
                mismatches.append(
                    f"reader {index}: {key} at epoch {epoch} disagrees "
                    "with the oracle"
                )

    report = SoakReport(
        config=config,
        cycles_run=cycles_run,
        epochs_recorded=len(oracle_digests),
        total_queries=sum(log.queries for log in logs),
        reader_queries=[log.queries for log in logs],
        mismatches=mismatches,
        errors=errors,
        busy_escapes=sum(log.busy_escapes for log in logs),
        unavailable=sum(log.unavailable for log in logs),
        warm_lineage_seconds=[
            second for log in logs for second in log.warm_lineage_seconds
        ],
        reference_chunk_seconds=statistics.median(
            [s for log in logs for s in log.reference_seconds] or [0.0]
        ),
        final_checkpoint=final_checkpoint,
        wall_seconds=time.perf_counter() - started,
        metrics=cdss.metrics.snapshot(),
    )
    return report


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point (the CI ``serve-smoke`` job)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads.serving",
        description="Soak the concurrent serving tier against its oracle.",
    )
    parser.add_argument("--peers", type=int, default=None)
    parser.add_argument("--base-size", type=int, default=None)
    parser.add_argument("--cycles", type=int, default=None)
    parser.add_argument("--readers", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument(
        "--path", default=None, help="store file (default: temp dir)"
    )
    parser.add_argument(
        "--trace", default=None, help="JSONL trace output path"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke shape (2 readers, short writer loop)",
    )
    parser.add_argument(
        "--acceptance",
        action="store_true",
        help="full acceptance shape (8 readers x 1000 queries x 25 cycles)",
    )
    args = parser.parse_args(argv)
    config = (
        SoakConfig.acceptance() if args.acceptance else SoakConfig()
    )
    overrides = {
        "peers": args.peers,
        "base_size": args.base_size,
        "cycles": args.cycles,
        "readers": args.readers,
        "queries_per_reader": args.queries,
    }
    fields = {k: v for k, v in overrides.items() if v is not None}
    if fields:
        from dataclasses import replace

        config = replace(config, **fields)
    report = run_soak(config, path=args.path, trace=args.trace)
    print(report.summary())
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover - CLI
    raise SystemExit(main())
