"""The maintained reachability index (docs/graph-index.md): lifecycle
maintenance, the epoch/staleness protocol, and indexed answers checked
against both the legacy relational paths and the memory engine."""

from repro.cdss import CDSS, Peer, TrustPolicy
from repro.exchange.graph_queries import StoreGraphQueries
from repro.exchange.sql_executor import ExchangeStore
from repro.obs import MemorySink, Tracer
from repro.provenance.graph import TupleNode
from repro.relational import RelationSchema
from repro.serve import ReaderSession
from repro.storage.encoding import canonical_row

from test_exchange_sql import (
    build_resident_deletion_pair,
    example_twins,
    insert_example_data,
)
from test_reach_index_properties import legacy_oracle
from store_state import index_edges


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
    one derivation, so the provenance DAG is a forest."""
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
        legacy = legacy_oracle(resident)
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
        # derivations: the answers must keep matching the memory
        # engine.
        memory, resident = build_resident_deletion_pair(tmp_path)
        for system in (memory, resident):
            system.delete_local("A", (2, "sn1", 5))
        assert memory.propagate_deletions() == resident.propagate_deletions()
        assert resident.derivability() == memory.derivability()
        node = o_node(memory)
        assert resident.lineage(node) == memory.lineage(node)

    def test_large_deletion_cones_prune_exactly(self, tmp_path):
        # Two cones past the retired 1/4 threshold: one root base row
        # (most of the example's derivations), then every base row
        # (every derived tuple dies).  Both prune in place — index
        # current, no rebuild on the next query — and leave exactly
        # the edge set a from-store rebuild produces.
        memory, resident = build_resident_deletion_pair(tmp_path)
        store = resident.exchange_store
        program, _ = resident.plan_cache.fetch(resident.program())
        cones = [
            [("A", (2, "sn1", 5))],
            [
                (relation[: -len("_l")], row)
                for relation in ("A_l", "N_l", "C_l")
                for row in sorted(memory.instance[relation])
                if (relation, row) != ("A_l", (2, "sn1", 5))
            ],
        ]
        for victims in cones:
            for system in (memory, resident):
                for relation, row in victims:
                    system.delete_local(relation, row)
            fires = len(index_edges(store))
            dead = resident.propagate_deletions()
            assert dead == memory.propagate_deletions()
            assert dead * 4 > fires
            pruned = index_edges(store)
            assert store.meta_get("index_state") == "current"
            assert resident.derivability() == memory.derivability()
            assert resident.last_graph_query.index_miss == 0
            store.reach_index.rebuild_from_store(program.reach)
            assert index_edges(store) == pruned
        assert pruned == set()

    def test_nan_and_null_victim_deletes_and_unhooks_its_fires(
        self, tmp_path
    ):
        # The victim is found by ``IS`` on every column inside the one
        # DELETE … RETURNING: a tagged NaN and a NULL must both match.
        system = CDSS(
            [
                Peer.of(
                    "P",
                    [
                        RelationSchema.of("A", [("x", "float"), "tag"]),
                        RelationSchema.of("J", [("x", "float"), "tag"]),
                    ],
                )
            ]
        )
        system.add_mappings(["mj: J(x, t) :- A(x, t)"])
        victim = canonical_row((float("nan"), None))
        system.insert_local("A", victim)
        system.insert_local("A", (1.5, "kept"))
        system.exchange(
            engine="sqlite", storage=str(tmp_path / "nan.db"), resident=True
        )
        store = system.exchange_store
        schema = system.catalog["A_l"]
        (rowid,) = [
            rowid
            for rowid, *raw in store.connection.execute(
                'SELECT rowid, * FROM "A_l"'
            )
            if store.codec.decode_row(raw, schema) == victim
        ]
        node = store.reach_index.id_base("A_l") + rowid
        assert any(node in bodies for _r, _h, bodies in index_edges(store))
        assert store.delete_relation_row(schema, victim) is True
        assert victim not in store.relation_rows(schema)
        assert not any(
            node == head or node in bodies
            for _rule, head, bodies in index_edges(store)
        )
        assert store.meta_get("index_state") == "current"
        assert store.delete_relation_row(schema, victim) is False


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
        # The first run after a reopen ships only the pending row: no
        # rowid moves, so the maintenance extends the persisted index
        # instead of rebuilding it, and everything keeps matching the
        # memory twin afterwards.
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
        assert [r["attrs"]["mode"] for r in maintain] == ["extend"]
        assert resident.derivability() == memory.derivability()
        assert resident.last_graph_query.index_hit == 1


class TestLineageClosure:
    def test_copy_chain_answers_via_cte(self, tmp_path):
        memory, resident = copy_chain_twins()
        path = str(tmp_path / "chain.db")
        memory.exchange()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        oracle = legacy_oracle(resident)
        with ReaderSession(path, resident.catalog) as reader:
            for relation in ("B2", "B3"):
                for node in sorted(memory.graph.tuples_in(relation)):
                    expected = memory.lineage(node)
                    assert resident.lineage(node) == expected
                    assert oracle.lineage(node)[0] == expected
                    assert reader.lineage(node) == expected
                    assert reader.last_read.path == "cte"

    def test_branched_example_answers_via_cte(self, tmp_path):
        # m1 joins two body atoms: a true hyperedge DAG, same closure.
        memory, resident = build_resident_deletion_pair(tmp_path)
        for relation in ("C", "N", "O"):
            for tuple_node in sorted(memory.graph.tuples_in(relation)):
                assert resident.lineage(tuple_node) == memory.lineage(
                    tuple_node
                )

    def test_fresh_store_has_three_index_tables(self, tmp_path):
        _memory, resident = build_resident_deletion_pair(tmp_path)
        conn = resident.exchange_store.connection
        tables = {
            name for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name GLOB '__ridx_*'"
            )
        }
        assert tables == {"__ridx_rel", "__ridx_fire", "__ridx_body"}
        keys = {
            key for (key,) in conn.execute(
                "SELECT key FROM __meta WHERE key GLOB 'index_*'"
            )
        }
        assert keys == {"index_state", "index_epoch", "index_next_fid"}

    def test_cold_indexed_lineage_writes_nothing(self, tmp_path):
        _memory, resident = copy_chain_twins()
        resident.exchange(
            engine="sqlite", storage=str(tmp_path / "chain.db"), resident=True
        )
        conn = resident.exchange_store.connection
        changes = conn.total_changes
        resident.lineage(TupleNode("B3", (0,)))
        assert resident.last_graph_query.index_hit == 1
        assert conn.total_changes == changes
        assert conn.in_transaction is False


class TestLegacyStores:
    def test_forest_to_dag_store_with_stale_encoding_keys(self, tmp_path):
        # The wrong-answer window of the retired interval encoding: a
        # store that was a forest when its encoding was built gains a
        # second derivation of B3, and the encoding's epoch key is
        # committed for the new epoch before its tree-exact key is
        # refreshed.  Nothing may answer from those leftovers.
        _memory, resident = copy_chain_twins()
        path = str(tmp_path / "chain.db")
        resident.exchange(engine="sqlite", storage=path, resident=True)
        resident.lineage(TupleNode("B3", (0,)))
        resident.add_mapping("d1: B3(x) :- B1(x)")
        resident.insert_local("B1", (99,))
        resident.exchange(engine="sqlite", resident=True)
        store = resident.exchange_store
        store.meta_set("index_enc_epoch", store.reach_index.epoch)
        oracle = legacy_oracle(resident)
        with ReaderSession(path, resident.catalog) as reader:
            for probe in (TupleNode("B3", (99,)), TupleNode("B3", (0,))):
                expected = oracle.lineage(probe)[0]
                assert expected
                assert reader.lineage(probe) == expected
                assert resident.lineage(probe) == expected

    def test_ensure_schema_drops_the_legacy_encoding(self, tmp_path):
        _memory, resident = copy_chain_twins()
        path = str(tmp_path / "chain.db")
        resident.exchange(engine="sqlite", storage=path, resident=True)
        store = resident.exchange_store
        conn = store.connection
        with conn:
            conn.execute(
                'CREATE TABLE "__ridx_info" (id INTEGER PRIMARY KEY, '
                "layer INTEGER NOT NULL, tin INTEGER NOT NULL, "
                "tout INTEGER NOT NULL)"
            )
        store.meta_set("index_enc_epoch", 1)
        store.meta_set("index_tree_exact", 1)
        store.close()
        with ExchangeStore(path) as reopened:
            program, _ = resident.plan_cache.fetch(resident.program())
            queries = StoreGraphQueries(
                reopened, program, resident.catalog, resident.mappings
            )
            probe = TupleNode("B3", (0,))
            assert queries.lineage(probe)[0] == frozenset(
                {TupleNode("B0_l", (0,))}
            )
            assert not reopened.has_table("__ridx_info")
            assert reopened.meta_get("index_enc_epoch") is None
            assert reopened.meta_get("index_tree_exact") is None


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
        store.meta_set("index_epoch", store.reach_index.epoch + 1)
        resident.lineage(o_node(memory))
        assert store.prepared_misses == misses
        assert store.prepared_hits > 0
