"""What the five workloads share: the run context, the outcome a
workload hands back, set-up repetition, and the metric arithmetic.

A workload is three functions (:class:`Workload`): ``setup`` builds
and warms everything that precedes the timed region, ``measure`` runs
the closed loop for ``ctx.seconds`` and verifies answers outside the
timed spans, ``close`` releases stores.  :func:`run_workload` drives
them and turns the :class:`Outcome` into the declared metrics.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.exchange.graph_queries import StoreGraphQueries
from repro.obs import MemorySink, Tracer

from spans import SpanLog, top_level_coverage, write_trace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MANIFEST = ROOT / "BENCHMARK.json"

#: set-up runs this many times per invocation (twice under ``--size
#: tiny``); ``setup_s`` reports the median and the last one built is
#: the one measured.
SETUP_REPEATS = 3
#: share of a traced run's window spent untraced first, so the traced
#: part's cost per op can be compared with it
#: (``obs.trace_overhead_ratio``).
CALIBRATION_SHARE = 0.3


def _reference_chunk() -> int:
    """About a millisecond of fixed interpreter work: integer
    arithmetic, tuple building, dict stores and lookups, string
    formatting — the mix the program's hot paths are made of."""
    table: dict[tuple[int, int], str] = {}
    total = 0
    for i in range(2200):
        key = (i % 97, i * i % 89)
        table[key] = f"{i}:{total & 0xFF}"
        total += len(table[key]) + key[0] * key[1]
    return total


class Reference:
    """The machine's speed during a run, as the time one fixed chunk of
    work takes.

    This sandbox slows by 30–50% for minutes at a time (a neighbour on
    the host), which moves every wall-clock number of every workload
    together.  Workloads time the chunk at the boundaries of their
    operation groups; the bounded end-to-end metrics are expressed in
    multiples of its median (``ref``), so such an episode cancels, while
    the raw seconds stay available as per-layer metrics.
    """

    #: chunks per burst: ~50 ms, longer than a scheduler time slice, so
    #: time the process spends preempted is inside a burst's total.
    BURST = 50

    def __init__(self) -> None:
        #: seconds of every chunk, burst by burst.
        self.bursts: list[list[float]] = []

    def sample(self, bursts: int = 1, length: int = BURST) -> None:
        perf_counter = time.perf_counter
        for _ in range(bursts):
            chunks = []
            for _ in range(length):
                started = perf_counter()
                _reference_chunk()
                chunks.append(perf_counter() - started)
            self.bursts.append(chunks)

    def seconds(self, whole_bursts: bool) -> float:
        """Seconds per chunk: the median burst mean (*whole_bursts*:
        includes time spent preempted, as throughput and any operation
        longer than a time slice do) or the median single chunk (what
        the median of a sub-millisecond operation experiences)."""
        if whole_bursts:
            return statistics.median(
                sum(chunks) / len(chunks) for chunks in self.bursts
            )
        return statistics.median(c for chunks in self.bursts for c in chunks)


@dataclass
class Ctx:
    """Everything one set-up or measurement needs to know."""

    seed: int
    seconds: float
    traced: bool
    tiny: bool
    scratch: Path
    log: SpanLog
    ref: Reference = field(default_factory=Reference)
    #: --corrupt: the next check perturbs its expected value, so the
    #: self-check can prove a wrong answer fails the run.
    corrupt: list[bool] = field(default_factory=lambda: [False])
    problems: list[str] = field(default_factory=list)

    def size(self, full: int, tiny: int) -> int:
        """A workload dimension: *full* normally, *tiny* under
        ``--size tiny`` (the self-check)."""
        return tiny if self.tiny else full

    def check(self, label: str, observed: object, expected: object) -> bool:
        """Record a wrong answer unless *observed* equals *expected*."""
        if self.corrupt[0]:
            self.corrupt[0] = False
            expected = ("corrupted", expected)
        if observed == expected:
            return True
        self.problems.append(f"{label}: wrong answer")
        return False

    def reference(self, op: "int | None" = None, bursts: int = 1) -> None:
        """Time the reference chunk (under a top-level span, so the
        trace accounts for it)."""
        with self.log.span("bench.reference", op=op):
            self.ref.sample(bursts, self.size(Reference.BURST, 3))

    def obs_tracer(self) -> Any:
        """A ``repro.obs`` tracer over a fresh ``MemorySink`` for the
        program's existing ``trace=`` argument (None when untraced)."""
        return Tracer(MemorySink()) if self.traced else None


@dataclass
class Outcome:
    """What one ``measure`` call observed."""

    #: latency of each operation, milliseconds.
    samples_ms: Sequence[float]
    #: work units completed (tuples, cycles, queries, reads).
    work: float
    #: seconds the work took: summed op time of a single-client loop,
    #: the common window of a threaded one.
    timed_s: float
    #: work units per second of each group of operations (a rep, a
    #: spike period, a cold+warm round of passes, a half-second slice
    #: of reads); ``work_per_s`` is their median, so a slow episode of
    #: the machine moves it less than it would move ``work / timed_s``.
    rates: Sequence[float]
    attempted: int
    store_bytes: int
    tuples: int
    #: operations refused or errored (wrong answers are counted by
    #: :meth:`Ctx.check`).
    failed: int = 0
    layers: dict[str, float] = field(default_factory=dict)
    #: every thread's span log and the window they should cover.
    logs: list[SpanLog] = field(default_factory=list)
    window: tuple[float, float] = (0.0, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Ctx], Any]
    measure: Callable[[Any, Ctx], Outcome]
    close: Callable[[Any], None]


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def obs_seconds(tracer: Any, name: str) -> float:
    """Summed wall seconds of the ``repro.obs`` spans called *name*."""
    if tracer is None:
        return 0.0
    return sum(s.wall_seconds for s in tracer.sink.spans if s.name == name)


def unindexed_oracle(cdss: Any) -> StoreGraphQueries:
    """The correctness oracle of the resident workloads: the graph
    queries answered by relational walks over the stored firing
    history, never from the maintained reachability index."""
    program, _ = cdss.plan_cache.fetch(cdss.program())
    return StoreGraphQueries(
        cdss.exchange_store, program, cdss.catalog, cdss.mappings,
        use_index=False,
    )


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def exchange_layers(results: Sequence[Any], tracers: Sequence[Any]) -> dict:
    """Per-layer numbers of a series of ``CDSS.exchange`` calls: the
    counters their ``EvaluationResult`` objects carry, plus the phase
    times the program's own spans report on a traced run."""
    layers: dict[str, float] = {
        "datalog.plans_compiled": sum(r.plans_compiled for r in results),
        "datalog.plan_cache_hit_ratio": ratio(
            sum(r.plan_cache_hit for r in results), len(results)
        ),
        "exchange.rounds": sum(r.iterations for r in results),
        "exchange.firings": sum(r.firings for r in results),
        "exchange.inserted": sum(r.inserted for r in results),
        "exchange.rows_mirrored": sum(r.rows_mirrored for r in results),
        "exchange.relations_synced": sum(r.relations_synced for r in results),
    }
    for name, span in (
        ("exchange.compile.s", "exchange.compile"),
        ("exchange.mirror.s", "exchange.mirror"),
        ("exchange.round.s", "exchange.round"),
        ("exchange.publish.s", "exchange.publish"),
        ("exchange.index_maintain.s", "index.maintain"),
    ):
        layers[name] = sum(obs_seconds(t, span) for t in tracers)
    layers["exchange.index_rebuilds"] = sum(
        1
        for t in tracers
        if t is not None
        for s in t.sink.spans
        if s.name == "index.rebuild"
        or (s.name == "index.maintain" and s.attrs.get("mode") == "rebuild")
    )
    return layers


def deletion_layers(results: Sequence[Any], tracers: Sequence[Any]) -> dict:
    """Per-layer numbers of a series of ``propagate_deletions`` calls."""
    return {
        "exchange.fixpoint.s": sum(
            obs_seconds(t, "deletion.fixpoint") for t in tracers
        ),
        "exchange.kill.s": sum(obs_seconds(t, "deletion.kill") for t in tracers),
        "exchange.rows_deleted": sum(r.rows_deleted for r in results),
        "exchange.pm_rows_collected": sum(
            r.pm_rows_collected for r in results
        ),
        "exchange.fixpoint_rounds": sum(r.iterations for r in results),
    }


def write_cycle_layers(
    log: SpanLog, cycles: Sequence[dict], tracer: Any
) -> dict:
    """Per-layer numbers of a series of writer cycles (insert →
    exchange → delete → propagate): each cycle is a dict with the
    seconds of its two halves (``write_s``, ``delete_s``) and their
    ``exchange`` / ``deletion`` results."""
    layers: dict[str, float] = {
        "cdss.insert_local_many.s": log.total("cdss.insert_local_many"),
        "cdss.delete_local_many.s": log.total("cdss.delete_local_many"),
        "cdss.exchange.s": log.total("cdss.exchange"),
        "cdss.exchange.calls": len(cycles),
        "cdss.propagate_deletions.s": log.total("cdss.propagate_deletions"),
    }
    for name, key in (("incr_exchange_ms", "write_s"), ("propagate_ms", "delete_s")):
        ordered = sorted(c[key] * 1e3 for c in cycles)
        layers[f"{name}_p50"] = statistics.median(ordered)
        layers[f"{name}_p90"] = percentile(ordered, 0.9)
    layers.update(exchange_layers([c["exchange"] for c in cycles], [tracer]))
    layers.update(deletion_layers([c["deletion"] for c in cycles], [tracer]))
    return layers


def file_bytes(path: "str | os.PathLike[str]") -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def settle_store(store: Any, path: "str | os.PathLike[str]", log: SpanLog):
    """``TRUNCATE``-checkpoint a quiescent resident store; returns
    (bytes the store occupies afterwards, bytes the WAL held before)."""
    wal_before = file_bytes(f"{path}-wal")
    with log.span("store.checkpoint"):
        store.checkpoint("TRUNCATE")
    return file_bytes(path) + file_bytes(f"{path}-wal"), wal_before


def _setups(workload: Workload, ctx: Ctx) -> tuple[float, Any, Any]:
    """Set up :data:`SETUP_REPEATS` times; return the median seconds,
    the state to measure and — for a traced run — an untraced state to
    calibrate against."""
    plain = replace(ctx, traced=False, log=SpanLog(False))
    seconds = []
    main = calibration = None
    repeats = ctx.size(SETUP_REPEATS, 2)
    for index in range(repeats):
        last = index == repeats - 1
        scratch = ctx.scratch / f"setup{index}"
        scratch.mkdir()
        started = time.perf_counter()
        # Set-up spans are never recorded: warm-up operations would
        # otherwise count into the traced run's layer totals.
        state = workload.setup(
            replace(ctx if last else plain, scratch=scratch, log=SpanLog(False))
        )
        seconds.append(time.perf_counter() - started)
        if last:
            main = state
        elif ctx.traced and index == repeats - 2:
            calibration = state
        else:
            workload.close(state)
    return statistics.median(seconds), main, calibration


def run_workload(
    workload: Workload, ctx: Ctx, import_seconds: float
) -> dict[str, Any]:
    """One invocation: set up, measure, verify; returns the result
    object (``correct``/``attempted``/``failed``/``metrics``) plus the
    ``samples`` count for the human-readable print."""
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    setup_median, state, calibration = _setups(workload, ctx)
    setup_s = import_seconds + setup_median
    overhead = 0.0
    try:
        if calibration is not None:
            plain = replace(
                ctx,
                traced=False,
                log=SpanLog(False),
                ref=Reference(),
                seconds=ctx.seconds * CALIBRATION_SHARE,
            )
            try:
                base = workload.measure(calibration, plain)
            finally:
                workload.close(calibration)
            ctx = replace(ctx, seconds=ctx.seconds * (1 - CALIBRATION_SHARE))
            outcome = workload.measure(state, ctx)
            overhead = ratio(
                ratio(outcome.timed_s, outcome.work),
                ratio(base.timed_s, base.work),
            )
        else:
            outcome = workload.measure(state, ctx)
    finally:
        workload.close(state)

    failed = outcome.failed + len(ctx.problems)
    work_per_s = statistics.median(outcome.rates)
    op_ms_p50 = statistics.median(outcome.samples_ms)
    ref_s = ctx.ref.seconds(whole_bursts=True)
    # An operation shorter than one chunk is compared with single
    # chunks, a longer one with whole bursts.
    op_ref_s = ctx.ref.seconds(whole_bursts=op_ms_p50 > ref_s * 1e3)
    if ctx.traced:
        declared = manifest["per_layer"]
        measured = dict(outcome.layers)
        measured["obs.trace_overhead_ratio"] = overhead
        measured["obs.top_level_coverage"] = top_level_coverage(
            outcome.logs, *outcome.window
        )
        measured["storage.store_bytes"] = outcome.store_bytes
        measured["relational.instance_tuples"] = outcome.tuples
        measured["work_per_s"] = work_per_s
        measured["op_ms_p50"] = op_ms_p50
        measured["op_ms_p90"] = percentile(sorted(outcome.samples_ms), 0.9)
        measured["obs.reference_ms"] = ref_s * 1e3
        unknown = set(measured) - {m["name"] for m in declared}
        if unknown:
            raise SystemExit(f"undeclared per-layer metrics: {sorted(unknown)}")
        OUT_DIR.mkdir(exist_ok=True)
        write_trace(
            OUT_DIR / f"{workload.name}.trace.jsonl",
            outcome.logs,
            outcome.window[0],
        )
    else:
        declared = manifest["end_to_end"]
        measured = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            "store_bytes_per_tuple": ratio(outcome.store_bytes, outcome.tuples),
            "work_per_ref": work_per_s * ref_s,
            "op_ref_p50": op_ms_p50 / (op_ref_s * 1e3),
        }
        if set(measured) != {m["name"] for m in declared}:
            raise SystemExit("end-to-end metrics differ from BENCHMARK.json")
    metrics = {
        m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    return {
        "correct": failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": failed,
        "metrics": metrics,
        "samples": len(outcome.samples_ms),
        "problems": ctx.problems[:10],
        "raw": {
            "work_per_s": work_per_s,
            "op_ms_p50": op_ms_p50,
            "reference_ms": ref_s * 1e3,
            "reference_chunk_ms": ctx.ref.seconds(whole_bursts=False) * 1e3,
        },
    }
