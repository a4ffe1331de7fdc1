"""Integration tests: tracing wired through the real engines.

The contract under test: a traced chain:5 lifecycle produces a valid
span tree on both engines with matching exchange topology, the trace
accounts for (nearly) all of the lifecycle's wall time, emitted names
stay inside the taxonomy, and the *disabled* tracer keeps the
exchange hot path allocation-free.
"""

import time

import pytest

import repro.obs.trace as trace_mod
from repro.obs import SPANS, MemorySink, Tracer, validate_trace
from repro.obs.report import phase_totals
from repro.provenance.graph import TupleNode
from repro.workloads.harness import run_target_query
from repro.workloads.topologies import chain, target_relation

CHAIN = 5
BASE = 15


def traced_lifecycle(engine, **kwargs):
    """chain:5 exchange + deletion + graph query + target query, traced."""
    sink = MemorySink()
    tracer = Tracer(sink)
    t0 = time.perf_counter()
    cdss = chain(CHAIN, base_size=BASE, engine=engine, trace=tracer, **kwargs)
    cdss.derivability()
    victim_relation = f"P{CHAIN - 1}_R1"
    victim = min(cdss.instance[f"{victim_relation}_l"])
    cdss.delete_local(victim_relation, victim)
    cdss.propagate_deletions()
    result = run_target_query(cdss)
    elapsed = time.perf_counter() - t0
    return cdss, sink, result, elapsed


class TestCrossEngineTopology:
    @pytest.fixture(scope="class")
    def traces(self):
        out = {}
        for engine in ("memory", "sqlite"):
            _, sink, _, _ = traced_lifecycle(engine)
            out[engine] = sink.records()
        return out

    def test_both_engine_traces_validate(self, traces):
        for engine, records in traces.items():
            assert validate_trace(records) == [], engine

    def test_emitted_names_stay_inside_the_taxonomy(self, traces):
        for records in traces.values():
            assert {r["name"] for r in records} <= set(SPANS)

    def test_lifecycle_roots_match_across_engines(self, traces):
        """Both engines run the same lifecycle: same root spans, in the
        same order (exchange, graph_query, deletion, then the query
        pipeline), differing only below the engine boundary."""
        def roots(records):
            return [r["name"] for r in records if r["parent"] is None
                    if r["name"] != "query.reconstruct"]
        assert roots(traces["memory"]) == roots(traces["sqlite"])

    def test_exchange_span_topology_matches_across_engines(self, traces):
        """The exchange tree's engine-neutral shape matches: one
        exchange root with consecutive per-round children, and the two
        substrates' round counts agree up to the engines' differing
        empty-delta convergence check."""
        shapes = {}
        for engine, records in traces.items():
            exchange_ids = {r["span"] for r in records if r["name"] == "exchange"}
            rounds = sorted(
                r["attrs"]["round"] for r in records
                if r["name"] == "exchange.round"
                and r["parent"] in exchange_ids
            )
            assert len(exchange_ids) == 1, engine
            assert rounds == list(range(1, len(rounds) + 1)), engine
            shapes[engine] = len(rounds)
        assert abs(shapes["memory"] - shapes["sqlite"]) <= 1

    def test_round_attributes_are_present(self, traces):
        for records in traces.values():
            rounds = [r for r in records if r["name"] == "exchange.round"]
            assert rounds and all("round" in r["attrs"] for r in rounds)


class TestWallTimeCoverage:
    def test_named_spans_cover_90_percent_of_the_lifecycle(self):
        """The acceptance bar: a chain:5 exchange + delete + lineage
        run attributes >= 90% of the lifecycle calls' wall time to
        named root spans."""
        sink = MemorySink()
        tracer = Tracer(sink)
        cdss = chain(CHAIN, base_size=BASE, trace=tracer)  # traced exchange
        victim_relation = f"P{CHAIN - 1}_R1"
        victim = next(iter(cdss.instance[victim_relation]))
        cdss.delete_local(victim_relation, victim)
        spent = 0.0
        t0 = time.perf_counter()
        cdss.propagate_deletions()
        cdss.lineage(next(iter(cdss.graph.tuples)))
        spent += time.perf_counter() - t0
        spent += cdss.metrics.value("exchange.seconds")
        covered_ms = sum(
            r["wall_ms"] for r in sink.records() if r["parent"] is None
        )
        assert covered_ms >= 0.9 * spent * 1e3
        assert cdss.last_exchange.wall_seconds > 0
        assert cdss.metrics.value("exchange.calls") == 1
        assert cdss.metrics.value("deletion.calls") == 1
        assert cdss.metrics.value("graph_query.calls") == 1

    def test_fig08_breakdown_is_unfold_dominated(self):
        """The profiler reproduces Figure 8's finding from the trace
        alone: unfolding dwarfs SQL evaluation on a chain workload."""
        sink = MemorySink()
        tracer = Tracer(sink)
        cdss = chain(7, base_size=10,
                     data_peers=(3, 4, 5, 6), trace=tracer)
        run_target_query(cdss)
        totals = phase_totals(sink.records())
        assert totals["query.unfold"] > totals["query.sql"]
        assert totals["query.unfold"] > totals["query.compile"]
        # The stage records name the culprit inside unfolding.
        assert {"unfold.expand", "unfold.merge_specs", "unfold.dedupe"} <= set(
            totals
        )


class TestDisabledOverhead:
    def test_disabled_exchange_allocates_no_span_objects(self, monkeypatch):
        """The hot-path contract: with tracing off (the default), no
        Span object is ever constructed."""
        constructed = []
        original = trace_mod.Span.__init__

        def counting(self, *args, **kwargs):
            constructed.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(trace_mod.Span, "__init__", counting)
        cdss = chain(4, base_size=10)  # no trace= -> NULL_TRACER
        cdss.derivability()
        run_target_query(cdss)
        assert constructed == []

    def test_per_call_timing_works_without_tracing(self):
        cdss = chain(4, base_size=10)
        assert cdss.last_exchange.wall_seconds > 0
        assert cdss.exchange_seconds == pytest.approx(
            cdss.metrics.value("exchange.seconds")
        )
        result = run_target_query(cdss)
        assert result.last_exchange_seconds == cdss.last_exchange.wall_seconds


class TestResidentTracing:
    def test_resident_lifecycle_trace_validates(self, tmp_path):
        sink = MemorySink()
        tracer = Tracer(sink)
        cdss = chain(
            4,
            base_size=10,
            engine="sqlite",
            exchange_path=str(tmp_path / "resident.db"),
            resident=True,
            trace=tracer,
        )
        victim = next(iter(cdss.exchange_store.relation_rows(
            cdss.catalog["P3_R1"]
        )))
        cdss.delete_local("P3_R1", victim)
        cdss.propagate_deletions()
        survivor = next(iter(cdss.exchange_store.relation_rows(
            cdss.catalog[target_relation()]
        )))
        cdss.lineage(TupleNode(target_relation(), survivor))
        records = sink.records()
        assert validate_trace(records) == []
        names = {r["name"] for r in records}
        assert {"exchange.statement", "exchange.sqlite", "deletion.fixpoint",
                "deletion.kill", "fixpoint.round", "index.maintain"} <= names
        # The indexed lineage answers without a backward walk.
        assert "walk.round" not in names
        statements = [r for r in records if r["name"] == "exchange.statement"]
        assert all("fingerprint" in r["attrs"] for r in statements)
