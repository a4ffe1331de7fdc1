"""Integration tests: the SQL engine must agree with the reference
graph engine on acyclic settings (the paper's implementation scope)."""

import pytest

from repro.proql import GraphEngine, SQLEngine
from repro.provenance import TupleNode
from repro.storage import SQLiteStorage
from repro.workloads import chain, prepare_storage
from repro.workloads.topologies import target_relation

QUERIES = [
    "FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
    "FOR [O $x] <-+ [A $y] INCLUDE PATH [$x] <-+ [$y] RETURN $x",
    "FOR [O $x] <-+ [N $y] INCLUDE PATH [$x] <-+ [$y] RETURN $x, $y",
    "FOR [$x] <$p [], [$y] <- [$x] WHERE $p = m1 OR $p = m2 "
    "INCLUDE PATH [$y] <- [$x] RETURN $y",
    "FOR [O $x] <-+ [$z], [C $y] <-+ [$z] "
    "INCLUDE PATH [$x] <-+ [], [$y] <-+ [] RETURN $x, $y",
    "FOR [O $x] <m5 [C $y] INCLUDE PATH [$x] <m5 [$y] RETURN $x, $y",
    # two explicit steps: O <- C <- N
    "FOR [O $x] <- [C $y] <- [N $z] "
    "INCLUDE PATH [$x] <- [$y] <- [$z] RETURN $x, $z",
    # plus step followed by a named one-step
    "FOR [O $x] <-+ [C $y] <m1 [N $z] "
    "INCLUDE PATH [$x] <-+ [$y] <m1 [$z] RETURN $x, $z",
    "FOR [O $x] WHERE $x.h >= 6 INCLUDE PATH [$x] <-+ [] RETURN $x",
    "EVALUATE DERIVABILITY OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }",
    "EVALUATE COUNT OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }",
    "EVALUATE LINEAGE OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }",
    """EVALUATE TRUST OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }
       ASSIGNING EACH leaf_node $y {
         CASE $y in C : SET true
         CASE $y in A AND $y.len >= 6 : SET false
         DEFAULT : SET true }
       ASSIGNING EACH mapping $p($z) { CASE $p = m4 : SET false DEFAULT : SET $z }""",
    """EVALUATE WEIGHT OF { FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }
       ASSIGNING EACH leaf_node $y { DEFAULT : SET 1 }""",
    # the L_R step into a local contribution, as a path endpoint
    "FOR [O $x] <-+ [A_l $y] RETURN $x, $y",
    "FOR [A $x] <- [A_l $y] RETURN $x, $y",
]

#: rows each local-contribution endpoint query answers on the acyclic
#: running example (both engines; the SQL engine once answered none).
LOCAL_ENDPOINT_ROWS = {QUERIES[-2]: 4, QUERIES[-1]: 2}


#: The same check on :func:`conftest.null_chain`, where a NULL join
#: value sits beside a non-NULL one: the SQL joins must be null-safe.
NULL_QUERIES = [
    "FOR [C $x] INCLUDE PATH [$x] <-+ [] RETURN $x",
    "EVALUATE COUNT OF { FOR [C $x] INCLUDE PATH [$x] <-+ [] RETURN $x }",
    "EVALUATE DERIVABILITY OF { FOR [C $x] INCLUDE PATH [$x] <-+ [] RETURN $x }",
    "FOR [C $x] <m2 [A $y] INCLUDE PATH [$x] <m2 [$y] RETURN $x, $y",
    "FOR [C $x] <-+ [B $y] INCLUDE PATH [$x] <-+ [$y] RETURN $x, $y",
]

CASES = [
    pytest.param("engines", query, id=str(number))
    for number, query in enumerate(QUERIES)
] + [
    pytest.param("null_engines", query, id=f"null-{number}")
    for number, query in enumerate(NULL_QUERIES)
]


@pytest.fixture
def engines(acyclic_cdss, acyclic_storage):
    return (
        GraphEngine(acyclic_cdss.graph, acyclic_cdss.catalog),
        SQLEngine(acyclic_storage),
    )


@pytest.fixture
def null_engines(null_chain_cdss):
    system = null_chain_cdss
    with SQLiteStorage(system) as storage:
        storage.load()
        yield GraphEngine(system.graph, system.catalog), SQLEngine(storage)


def assert_same_answer(expected, actual):
    assert [tuple(map(str, r)) for r in expected.rows] == [
        tuple(map(str, r)) for r in actual.rows
    ]
    assert expected.graph == actual.graph
    assert expected.annotations == actual.annotations
    assert expected.annotated_rows == actual.annotated_rows


@pytest.mark.parametrize(("setting", "query"), CASES)
def test_engines_agree(request, setting, query):
    graph_engine, sql_engine = request.getfixturevalue(setting)
    expected = graph_engine.run(query)
    assert_same_answer(expected, sql_engine.run(query))
    if setting == "engines" and query in LOCAL_ENDPOINT_ROWS:
        assert len(expected.rows) == LOCAL_ENDPOINT_ROWS[query]


class TestStats:
    def test_stats_populated(self, engines):
        _, sql_engine = engines
        result = sql_engine.run(QUERIES[0])
        # One zero-step rule for the FOR path + three ancestry shapes
        # for the INCLUDE path.
        assert result.stats.unfolded_rules == 4
        assert result.stats.rows > 0
        assert result.stats.query_processing_seconds > 0
        assert result.stats.max_join_width >= 2

    def test_run_target_counts(self, engines):
        _, sql_engine = engines
        stats, graph = sql_engine.run_target("O", collect_graph=True)
        assert stats.unfolded_rules == 3
        assert graph is not None
        # Full ancestry of all O tuples.
        assert any(t.relation == "A_l" for t in graph.tuples)

    def test_run_target_without_graph(self, engines):
        _, sql_engine = engines
        stats, graph = sql_engine.run_target("O")
        assert graph is None
        assert stats.rows > 0

    def test_stats_merge(self):
        from repro.proql.sql_engine import SQLStats

        first = SQLStats(unfolded_rules=2, sql_seconds=0.5, max_join_width=3)
        second = SQLStats(unfolded_rules=3, sql_seconds=0.2, max_join_width=7)
        first.merge(second)
        assert first.unfolded_rules == 5
        assert first.sql_seconds == pytest.approx(0.7)
        assert first.max_join_width == 7


class TestWorkloadEquivalence:
    """Cross-check on the synthetic chain workload."""

    def test_target_query_graph_matches(self):
        system = chain(4, base_size=8)
        storage = prepare_storage(system)
        try:
            sql_engine = SQLEngine(storage)
            _, sql_graph = sql_engine.run_target(
                target_relation(), collect_graph=True
            )
            graph_engine = GraphEngine(system.graph, system.catalog)
            expected = graph_engine.run(
                f"FOR [{target_relation()} $x] "
                f"INCLUDE PATH [$x] <-+ [] RETURN $x"
            )
            assert expected.graph == sql_graph
        finally:
            storage.close()

    def test_annotation_counts_match_derivation_trees(self):
        system = chain(3, data_peers=[0, 1, 2], base_size=5)
        storage = prepare_storage(system)
        try:
            sql_engine = SQLEngine(storage)
            result = sql_engine.run(
                f"EVALUATE COUNT OF {{ FOR [{target_relation()} $x] "
                f"INCLUDE PATH [$x] <-+ [] RETURN $x }}"
            )
            graph_engine = GraphEngine(system.graph, system.catalog)
            expected = graph_engine.run(
                f"EVALUATE COUNT OF {{ FOR [{target_relation()} $x] "
                f"INCLUDE PATH [$x] <-+ [] RETURN $x }}"
            )
            assert result.annotations == expected.annotations
        finally:
            storage.close()


def test_null_beside_value_runs_on_every_entry_point(null_chain_cdss):
    # Tuple nodes whose values mix None and int must still sort.
    system = null_chain_cdss
    query = NULL_QUERIES[0]
    expected = [
        (TupleNode("C", (2, "x")),),
        (TupleNode("C", (None, "w")),),
    ]
    with SQLiteStorage(system) as storage:
        storage.load()
        results = [
            GraphEngine(system.graph, system.catalog).run(query),
            SQLEngine(storage).run(query),
            system.query(query),
            system.query(query, engine="sqlite"),
        ]
    for result in results:
        assert result.rows == expected
        assert result.graph.size() == (8, 6)


#: Per system (a ``builders`` name): query shapes, a local insertion
#: batch for the incremental exchange, and the local deletions to
#: propagate.
RESIDENT_TWINS = {
    "example": (
        QUERIES,
        [("A", (3, "sn3", 6)), ("N", (3, "cn3", False)), ("C", (4, "cn4"))],
        [("A", (1, "sn1", 7)), ("C", (2, "cn2"))],
    ),
    "null": (NULL_QUERIES, [("A", (None, "y"))], [("A", (None, "w"))]),
}


class TestResidentStore:
    """ProQL over a store-resident system reads its pinned store and
    answers as the graph engine does over the memory twin."""

    @pytest.fixture(params=sorted(RESIDENT_TWINS))
    def twins(self, request, builders, tmp_path):
        build = builders[request.param]
        queries, inserts, deletes = RESIDENT_TWINS[request.param]
        memory = build()
        resident = build(
            engine="sqlite", storage=str(tmp_path / "store.db"), resident=True
        )
        yield memory, resident, queries, inserts, deletes
        resident.exchange_store.close()

    @staticmethod
    def check(memory, resident, queries):
        for query in queries:
            assert_same_answer(
                memory.query(query), resident.query(query, engine="sqlite")
            )

    def test_agrees_with_memory_twin_across_lifecycle(self, twins):
        memory, resident, queries, inserts, deletes = twins
        self.check(memory, resident, queries)
        for system in (memory, resident):
            for relation, row in inserts:
                system.insert_local(relation, row)
            system.exchange()
        self.check(memory, resident, queries)
        for system in (memory, resident):
            for relation, row in deletes:
                assert system.delete_local(relation, row)
            system.propagate_deletions()
        self.check(memory, resident, queries)
        assert resident.graph.size() == (0, 0)

    def test_binding_is_the_pinned_store(self, twins, tmp_path):
        from repro.cdss import CDSS
        from repro.errors import ExchangeError, IndexingError
        from repro.indexing import ASRManager

        _, resident, queries, _, _ = twins
        store = resident.exchange_store
        storage = prepare_storage(resident)
        assert storage.store is store and storage.load() == 0
        assert SQLEngine(storage).run(queries[0]).rows
        storage.close()
        assert not store.closed
        with pytest.raises(ExchangeError):
            resident.query(queries[0])  # no Python graph to walk
        with pytest.raises(ExchangeError):
            SQLiteStorage(resident, str(tmp_path / "other.db"))
        with SQLiteStorage(CDSS([])) as other:
            with pytest.raises(ExchangeError):
                resident.query(queries[0], engine="sqlite", storage=other)
        with pytest.raises(IndexingError):
            ASRManager(storage)
