"""``proql-mix``: the ProQL pipeline alone (no exchange store, no
serving tier).

Two memory-engine systems — ``chain(12)`` with data at the three
most-upstream peers and ``branched(9)`` with data at its leaves — are
loaded into SQLite with ``prepare_storage`` and queried through
``SQLEngine.run`` with a fixed mix of shapes (:func:`shapes`), one of
them through the ``ASRManager`` rewriter.  One operation is a *pass*
over the whole mix; its latency sample is the pass's mean per-query
latency, because the shapes are multimodal (10–250 ms).  Every
:data:`COLD_PERIOD`-th pass is cold — unfold cache invalidated, fresh
engines — so a quarter of the samples carry the unfolding cost and
``op_ms_p90`` lands on them.  Work unit: queries.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any

from repro.indexing.advisor import asr_definitions_for
from repro.indexing.manager import ASRManager
from repro.proql.graph_engine import GraphEngine
from repro.proql.sql_engine import SQLEngine, SQLStats
from repro.workloads.harness import prepare_storage
from repro.workloads.topologies import (
    branched,
    chain,
    leaf_peers,
    target_relation,
    upstream_data_peers,
)

from harness import Ctx, Outcome, Workload, ratio

CHAIN_PEERS = 12
BRANCHED_PEERS = 9
BASE = 20
ASR_LENGTH = 3
COLD_PERIOD = 4

#: every shape name a ``proql.cold_ms.*`` / ``proql.warm_ms.*`` metric
#: is declared for.
SHAPES = (
    "full", "mid", "one-step-m1", "derivability", "count", "between",
    "full-asr",
)


def shapes(mid_peer: int, between_peer: "int | None") -> dict[str, str]:
    """The query mix over one system (``between`` only where the
    topology makes it cheap: see bench/README.md, shapes left out)."""
    target = target_relation()
    full = f"FOR [{target} $x] INCLUDE PATH [$x] <-+ [] RETURN $x"
    mix = {
        "full": full,
        "mid": (
            f"FOR [{target} $x] <-+ [P{mid_peer}_R1 $y] "
            "INCLUDE PATH [$x] <-+ [$y] RETURN $x"
        ),
        "one-step-m1": (
            f"FOR [{target} $x] <m1 [$y] INCLUDE PATH [$x] <m1 [$y] RETURN $x"
        ),
        "derivability": f"EVALUATE DERIVABILITY OF {{ {full} }}",
        "count": f"EVALUATE COUNT OF {{ {full} }}",
    }
    if between_peer is not None:
        mix["between"] = (
            f"FOR [{target} $x] <-+ [P{between_peer}_R1 $y] "
            "INCLUDE PATH [$x] <-+ [$y] RETURN $x, $y"
        )
    return mix


@dataclass
class System:
    """One loaded system and its engines."""

    name: str
    cdss: Any
    storage: Any
    manager: ASRManager
    mix: dict[str, str]
    plain: "SQLEngine | None" = None
    rewriting: "SQLEngine | None" = None

    def fresh_engines(self) -> None:
        self.plain = SQLEngine(self.storage)
        self.rewriting = SQLEngine(
            self.storage,
            rewriter=self.manager.rewrite,
            schema_lookup=self.manager.schema_lookup(),
        )


@dataclass
class State:
    systems: list[System]
    passes: int = 0
    layers: dict[str, float] = field(default_factory=dict)


def _load(name: str, cdss: Any, mix: dict[str, str], layers: dict) -> System:
    """Load one system into SQLite and register its ASRs, adding what
    that cost to *layers* (a ``defaultdict(float)``)."""
    started = time.perf_counter()
    storage = prepare_storage(cdss)
    layers["storage.load.s"] += time.perf_counter() - started
    manager = ASRManager(storage)
    started = time.perf_counter()
    manager.register_all(
        asr_definitions_for(cdss, target_relation(), ASR_LENGTH, "complete")
    )
    layers["indexing.asr_register.s"] += time.perf_counter() - started
    layers["indexing.asr_rows"] += sum(manager.table_sizes().values())
    tuples, derivations = cdss.graph.size()
    layers["provenance.graph_tuples"] += tuples
    layers["provenance.graph_derivations"] += derivations
    system = System(name, cdss, storage, manager, mix)
    system.fresh_engines()
    return system


def setup(ctx: Ctx) -> State:
    """The only place the memory engine, the provenance graph build
    and ``SQLiteStorage.load`` are charged; ends with one warm-up pass."""
    base = ctx.size(BASE, 3)
    chain_peers = ctx.size(CHAIN_PEERS, 4)
    branched_peers = ctx.size(BRANCHED_PEERS, 5)
    seed = ctx.seed * 1_000_003
    tracer = ctx.obs_tracer()
    layers: dict[str, float] = defaultdict(float)
    chain_system = chain(
        chain_peers,
        data_peers=upstream_data_peers(chain_peers, 3),
        base_size=base,
        seed=seed,
        trace=tracer,
    )
    branched_system = branched(
        branched_peers,
        data_peers=leaf_peers(branched_peers)[:3],
        base_size=base,
        seed=seed,
        trace=tracer,
    )
    state = State(
        [
            _load(
                "chain",
                chain_system,
                shapes(chain_peers // 2, None),
                layers,
            ),
            _load(
                "branched",
                branched_system,
                shapes(branched_peers // 4, leaf_peers(branched_peers)[0]),
                layers,
            ),
        ],
        layers=layers,
    )
    _pass(state, ctx.log, cold=True)
    state.passes = 0
    return state


def _pass(state: State, log: Any, cold: bool) -> dict:
    """Every query of the mix, on both systems; returns the pass's
    wall seconds and each query's ``(shape, seconds, stats)``."""
    number = state.passes
    state.passes += 1
    queries: list[tuple[str, float, SQLStats]] = []
    with log.span("proql.pass", op=number) as op:
        for system in state.systems:
            if cold:
                with log.span("proql.invalidate"):
                    system.cdss.unfold_cache.invalidate()
                    system.fresh_engines()
            for shape, text in system.mix.items():
                with log.span("proql.query") as span:
                    result = system.plain.run(text)
                queries.append((shape, span.seconds, result.stats))
            with log.span("proql.query") as span:
                result = system.rewriting.run(system.mix["full"])
            queries.append(("full-asr", span.seconds, result.stats))
    return {"seconds": op.seconds, "cold": cold, "queries": queries}


def _verify(state: State, ctx: Ctx) -> None:
    """SQL-engine answers == graph-engine answers, per shape, once."""
    for system in state.systems:
        graph_engine = GraphEngine(system.cdss.graph, system.cdss.catalog)
        for shape, text in system.mix.items():
            expected = graph_engine.run(text)
            engines = [(shape, system.plain)]
            if shape == "full":
                engines.append(("full-asr", system.rewriting))
            for label, engine in engines:
                observed = engine.run(text)
                ctx.check(
                    f"proql-mix {system.name} {label} rows",
                    sorted(observed.rows, key=repr),
                    sorted(expected.rows, key=repr),
                )
                ctx.check(
                    f"proql-mix {system.name} {label} annotations",
                    observed.annotations,
                    expected.annotations,
                )


def _unfold_cache_counts(state: State) -> tuple[float, float]:
    """(hits, misses) of the unfold caches so far, both systems."""
    return (
        sum(s.cdss.metrics.value("unfold.cache_hits") for s in state.systems),
        sum(s.cdss.metrics.value("unfold.cache_misses") for s in state.systems),
    )


def _store_bytes(system: System) -> int:
    connection = system.storage.connection
    (pages,) = connection.execute("PRAGMA page_count").fetchone()
    (page_size,) = connection.execute("PRAGMA page_size").fetchone()
    return pages * page_size


def measure(state: State, ctx: Ctx) -> Outcome:
    log = ctx.log
    passes: list[dict] = []
    timed = 0.0
    started = time.perf_counter()
    cache_before = _unfold_cache_counts(state)
    # Whole rounds of one cold and COLD_PERIOD - 1 warm passes.
    while timed < ctx.seconds or len(passes) % COLD_PERIOD:
        if len(passes) % COLD_PERIOD == 0:
            ctx.reference(op=state.passes, bursts=2)
        done = _pass(state, log, cold=state.passes % COLD_PERIOD == 0)
        passes.append(done)
        timed += done["seconds"]
    ctx.reference(op=state.passes, bursts=2)
    hits, misses = (
        after - before
        for after, before in zip(_unfold_cache_counts(state), cache_before)
    )
    with log.span("bench.verify", op=state.passes):
        _verify(state, ctx)
    window = (started, time.perf_counter())

    queries = [q for p in passes for q in p["queries"]]
    stats = [q[2] for q in queries]
    layers = dict(state.layers)
    layers.update(
        {
            "proql.unfold.s": sum(s.unfold_seconds for s in stats),
            "proql.compile.s": sum(s.compile_seconds for s in stats),
            "proql.sql.s": sum(s.sql_seconds for s in stats),
            "proql.reconstruct.s": sum(s.reconstruct_seconds for s in stats),
            "proql.unfolded_rules": sum(s.unfolded_rules for s in stats),
            "proql.unfold_cache_hit_ratio": ratio(hits, hits + misses),
            "proql.max_join_width": max(s.max_join_width for s in stats),
            "proql.rows_per_query": ratio(
                sum(s.rows for s in stats), len(stats)
            ),
            "indexing.rewritten_rules": sum(
                q[2].unfolded_rules for q in queries if q[0] == "full-asr"
            ),
        }
    )
    for cold, prefix in ((True, "cold"), (False, "warm")):
        chosen = [p for p in passes if p["cold"] == cold]
        if not chosen:
            continue
        layers[f"proql_{prefix}_ms_p50"] = statistics.median(
            p["seconds"] / len(p["queries"]) * 1e3 for p in chosen
        )
        for shape in SHAPES:
            latencies = [
                q[1] * 1e3
                for p in chosen
                for q in p["queries"]
                if q[0] == shape
            ]
            layers[f"proql.{prefix}_ms.{shape}"] = statistics.median(latencies)
    return Outcome(
        samples_ms=[p["seconds"] / len(p["queries"]) * 1e3 for p in passes],
        work=len(queries),
        timed_s=timed,
        rates=[
            sum(len(p["queries"]) for p in passes[start:start + COLD_PERIOD])
            / sum(p["seconds"] for p in passes[start:start + COLD_PERIOD])
            for start in range(0, len(passes), COLD_PERIOD)
        ],
        attempted=len(queries),
        store_bytes=sum(_store_bytes(s) for s in state.systems),
        tuples=sum(s.cdss.instance_size() for s in state.systems),
        layers=layers,
        logs=[log],
        window=window,
    )


def close(state: State) -> None:
    for system in state.systems:
        system.storage.close()


WORKLOAD = Workload("proql-mix", setup, measure, close)
