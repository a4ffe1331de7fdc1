"""The maintained reachability index (docs/graph-index.md): lifecycle
maintenance, the epoch/staleness protocol, and indexed answers checked
against both the legacy relational paths and the memory engine."""

import pytest

import repro.exchange.reach_index as reach_index
from repro.cdss import CDSS, Peer, TrustPolicy
from repro.exchange.graph_queries import StoreGraphQueries
from repro.exchange.sql_executor import ExchangeStore
from repro.obs import MemorySink, Tracer
from repro.relational import RelationSchema

from test_exchange_sql import (
    build_resident_deletion_pair,
    example_twins,
    insert_example_data,
)


def o_node(memory):
    """One derived node of the running example's target relation."""
    return sorted(memory.graph.tuples_in("O"))[0]


def distrusting_policy():
    policy = TrustPolicy()
    policy.distrust_mapping("m4")
    policy.trust_if("A", lambda values: values[0] == 1)
    return policy


def copy_chain_twins(length=4, rows=6):
    """Two CDSS twins over a pure copy chain B0 -> B1 -> ... — every
    firing has exactly one body atom and every derived tuple exactly
    one derivation, so the provenance DAG is a forest and the index's
    interval encoding applies exactly."""
    out = []
    for _ in range(2):
        system = CDSS(
            [
                Peer.of(f"P{i}", [RelationSchema.of(f"B{i}", ["x"])])
                for i in range(length)
            ]
        )
        system.add_mappings(
            [f"c{i}: B{i}(x) :- B{i - 1}(x)" for i in range(1, length)]
        )
        for value in range(rows):
            system.insert_local("B0", (value,))
        out.append(system)
    return out


class TestIndexedQueryAnswers:
    def test_indexed_answers_match_memory_engine(self, tmp_path):
        memory, resident = build_resident_deletion_pair(tmp_path)
        store = resident.exchange_store
        assert store.meta_get("index_state") == "current"
        assert resident.derivability() == memory.derivability()
        assert resident.last_graph_query.index_hit == 1
        assert resident.last_graph_query.index_miss == 0
        node = o_node(memory)
        assert resident.lineage(node) == memory.lineage(node)
        assert resident.last_graph_query.index_hit == 1
        policy = distrusting_policy()
        assert resident.trusted(policy) == memory.trusted(policy)
        assert resident.last_graph_query.index_hit == 1
        # Every hit mirrors into the metrics registry.
        assert resident.metrics.value("graph_query.index_hit") == 3
        assert "graph_query.index_miss" not in resident.metrics.snapshot()

    def test_indexed_answers_match_legacy_oracle(self, tmp_path):
        memory, resident = build_resident_deletion_pair(tmp_path)
        program, _ = resident.plan_cache.fetch(resident.program())
        legacy = StoreGraphQueries(
            resident.exchange_store,
            program,
            resident.catalog,
            resident.mappings,
            use_index=False,
        )
        node = o_node(memory)
        policy = distrusting_policy()
        assert resident.derivability() == legacy.derivability()[0]
        assert resident.lineage(node) == legacy.lineage(node)[0]
        assert resident.trusted(policy) == legacy.trusted(policy)[0]
        assert legacy.store.meta_get("index_state") == "current"

    def test_indexed_queries_are_pure_selects(self, tmp_path):
        # Index reads stage nothing: no TEMP work table is created and
        # no implicit transaction is left open on the writer connection
        # (one would make a later wal_checkpoint raise "table is
        # locked" instead of reporting busy).
        memory, resident = build_resident_deletion_pair(tmp_path)
        resident.lineage(o_node(memory))
        resident.derivability()
        resident.trusted(distrusting_policy())
        conn = resident.exchange_store.connection
        assert conn.in_transaction is False
        temps = {
            name for (name,) in conn.execute(
                "SELECT name FROM sqlite_temp_master"
            )
        }
        assert not temps & {
            "__rq_live", "__rq_delta", "__rq_new", "__rq_anc",
            "__rq_distrust",
        }

    def test_repeat_queries_answer_from_the_epoch_cache(self, tmp_path):
        memory, resident = build_resident_deletion_pair(tmp_path)
        first = resident.derivability()
        assert resident.derivability() == first
        assert resident.last_graph_query.index_hit == 1
        node = o_node(memory)
        first_lineage = resident.lineage(node)
        assert resident.lineage(node) == first_lineage
        assert resident.last_graph_query.index_hit == 1
        assert resident.metrics.value("graph_query.index_hit") == 4


class TestStalenessProtocol:
    def test_stale_index_rebuilds_once_at_query_time(self, tmp_path):
        memory, resident = build_resident_deletion_pair(tmp_path)
        store = resident.exchange_store
        store.meta_set("index_state", "stale")
        assert resident.derivability() == memory.derivability()
        assert resident.last_graph_query.index_miss == 1
        assert resident.last_graph_query.index_hit == 0
        assert store.meta_get("index_state") == "current"
        resident.derivability()
        assert resident.last_graph_query.index_hit == 1
        assert resident.metrics.value("graph_query.index_miss") == 1

    def test_deletion_lifecycle_keeps_index_current(self, tmp_path):
        # A small dead cone (one extra base row and its derivations)
        # prunes exactly; the whole lifecycle stays index-served.
        memory, resident = build_resident_deletion_pair(tmp_path)
        for system in (memory, resident):
            system.insert_local("A", (3, "sn3", 9))
        memory.exchange()
        resident.exchange(engine="sqlite", resident=True)
        store = resident.exchange_store
        epoch_before = int(store.meta_get("index_epoch"))
        for system in (memory, resident):
            system.delete_local("A", (3, "sn3", 9))
        assert store.meta_get("index_state") == "current"
        assert memory.propagate_deletions() == resident.propagate_deletions()
        # The kill sweep pruned the dead cone exactly — no rebuild.
        assert store.meta_get("index_state") == "current"
        assert int(store.meta_get("index_epoch")) > epoch_before
        assert resident.derivability() == memory.derivability()
        assert resident.last_graph_query.index_hit == 1
        node = o_node(memory)
        assert resident.lineage(node) == memory.lineage(node)

    def test_large_cone_propagation_answers_stay_correct(self, tmp_path):
        # Deleting a root base row dooms most of the example's
        # derivations: whatever path the cone heuristic picks, the
        # answers must keep matching the memory engine.
        memory, resident = build_resident_deletion_pair(tmp_path)
        for system in (memory, resident):
            system.delete_local("A", (2, "sn1", 5))
        assert memory.propagate_deletions() == resident.propagate_deletions()
        assert resident.derivability() == memory.derivability()
        node = o_node(memory)
        assert resident.lineage(node) == memory.lineage(node)

    def test_large_deletion_cone_falls_back_to_stale(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(reach_index, "PRUNE_FALLBACK_RATIO", 10**9)
        memory, resident = build_resident_deletion_pair(tmp_path)
        for system in (memory, resident):
            system.delete_local("A", (2, "sn1", 5))
            system.propagate_deletions()
        store = resident.exchange_store
        assert store.meta_get("index_state") == "stale"
        # The next query pays one rebuild, then stays current.
        assert resident.derivability() == memory.derivability()
        assert resident.last_graph_query.index_miss == 1
        assert store.meta_get("index_state") == "current"

    def test_nonresident_run_over_indexed_store_marks_stale(self, tmp_path):
        path = str(tmp_path / "shared.db")
        memory, resident = example_twins()
        insert_example_data(memory)
        insert_example_data(resident)
        memory.exchange()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        assert resident.exchange_store.meta_get("index_state") == "current"
        resident.exchange_store.close()
        # A plain sqlite run over the same store pays no maintenance —
        # it only invalidates.
        fresh = example_twins()[0]
        insert_example_data(fresh)
        fresh.exchange(engine="sqlite", storage=path)
        with ExchangeStore(path) as reopened:
            assert reopened.meta_get("index_state") == "stale"


class TestEpochPersistence:
    def test_reopened_store_knows_its_index_is_current(self, tmp_path):
        path = str(tmp_path / "resident.db")
        memory, resident = example_twins()
        insert_example_data(memory)
        insert_example_data(resident)
        memory.exchange()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        epoch = int(resident.exchange_store.meta_get("index_epoch"))
        resident.exchange_store.close()
        with ExchangeStore(path) as reopened:
            assert reopened.meta_get("index_state") == "current"
            assert int(reopened.meta_get("index_epoch")) == epoch
            # Queries before any run answer straight from the
            # persisted index — no rebuild.
            program, _ = resident.plan_cache.fetch(resident.program())
            queries = StoreGraphQueries(
                reopened, program, resident.catalog, resident.mappings
            )
            verdicts, stats = queries.derivability()
            assert stats.index_hit == 1 and stats.index_miss == 0
            assert verdicts == memory.derivability()

    def test_incremental_run_extends_a_current_index(self, tmp_path):
        memory, resident = build_resident_deletion_pair(tmp_path)
        sink = MemorySink()
        resident.tracer = Tracer(sink)
        for system in (memory, resident):
            system.insert_local("A", (3, "sn3", 9))
        memory.exchange()
        resident.exchange(engine="sqlite", resident=True)
        maintain = [
            r for r in sink.records() if r["name"] == "index.maintain"
        ]
        assert [r["attrs"]["mode"] for r in maintain] == ["extend"]
        assert resident.derivability() == memory.derivability()
        assert resident.last_graph_query.index_hit == 1

    def test_reopen_by_path_continues_the_lifecycle(self, tmp_path):
        # Sync high-water marks are per-process, so the first *run*
        # after a reopen full-reloads the local relations and the
        # maintenance takes the rebuild path — but queries before any
        # run answer straight from the persisted index, and everything
        # keeps matching the memory twin afterwards.
        path = str(tmp_path / "resident.db")
        memory, resident = example_twins()
        insert_example_data(memory)
        insert_example_data(resident)
        memory.exchange()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        resident.exchange_store.close()
        sink = MemorySink()
        resident.tracer = Tracer(sink)
        for system in (memory, resident):
            system.insert_local("A", (3, "sn3", 9))
        memory.exchange()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        maintain = [
            r for r in sink.records() if r["name"] == "index.maintain"
        ]
        assert [r["attrs"]["mode"] for r in maintain] == ["rebuild"]
        assert resident.derivability() == memory.derivability()
        assert resident.last_graph_query.index_hit == 1


class TestIntervalEncoding:
    def test_copy_chain_uses_the_exact_interval_encoding(self, tmp_path):
        memory, resident = copy_chain_twins()
        memory.exchange()
        resident.exchange(
            engine="sqlite", storage=str(tmp_path / "chain.db"), resident=True
        )
        tail = sorted(memory.graph.tuples_in("B3"))[0]
        assert resident.lineage(tail) == memory.lineage(tail)
        store = resident.exchange_store
        assert int(store.meta_get("index_tree_exact")) == 1
        for node in sorted(memory.graph.tuples_in("B2")):
            assert resident.lineage(node) == memory.lineage(node)

    def test_branched_example_takes_the_cte_fallback(self, tmp_path):
        # m1 joins two body atoms: the provenance DAG is not a forest,
        # so the encoding probe must refuse and answers must still
        # match (recursive-CTE closure).
        memory, resident = build_resident_deletion_pair(tmp_path)
        node = o_node(memory)
        assert resident.lineage(node) == memory.lineage(node)
        store = resident.exchange_store
        assert int(store.meta_get("index_tree_exact")) == 0
        for relation in ("C", "N", "O"):
            for tuple_node in sorted(memory.graph.tuples_in(relation)):
                assert resident.lineage(tuple_node) == memory.lineage(
                    tuple_node
                )


class TestPreparedStatements:
    def test_hot_query_sql_is_built_once_per_store(self, tmp_path):
        memory, resident = build_resident_deletion_pair(tmp_path)
        node = o_node(memory)
        resident.lineage(node)
        store = resident.exchange_store
        misses = store.prepared_misses
        assert misses > 0
        # A repeat at the same epoch is a cache hit and runs no SQL at
        # all; after an epoch bump the same probe recomputes through
        # the SQL text built the first time.
        store.reach_index.note_content_shipped()
        resident.lineage(o_node(memory))
        assert store.prepared_misses == misses
        assert store.prepared_hits > 0
