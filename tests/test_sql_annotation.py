"""EVALUATE on the SQL engine (Section 4.2.4): the annotations of the
subgraph the SQL pipeline reconstructs must equal the graph engine's,
per semiring."""

import math

import pytest

from repro.proql import GraphEngine, SQLEngine
from repro.workloads import chain, prepare_storage
from repro.workloads.topologies import target_relation


@pytest.fixture(scope="module")
def setting():
    system = chain(4, data_peers=[1, 2, 3], base_size=6)
    storage = prepare_storage(system)
    yield system, SQLEngine(storage), GraphEngine(system.graph, system.catalog)
    storage.close()


def ancestry_query(semiring: str, rel: str, suffix: str = "") -> str:
    return (
        f"EVALUATE {semiring} OF {{ FOR [{rel} $x] "
        f"INCLUDE PATH [$x] <-+ [] RETURN $x }}{suffix}"
    )


class TestAgreementWithGraphEngine:
    def check(self, setting, query, zero):
        system, sql_engine, graph_engine = setting
        result = sql_engine.run(query)
        sql_annotations, stats = result.annotations, result.stats
        expected = graph_engine.run(query).annotations
        for node in system.graph.tuples_in(target_relation()):
            got = sql_annotations.get(node, zero)
            assert got == expected[node], str(node)
        assert stats.rows > 0
        return stats

    def test_count(self, setting):
        self.check(setting, ancestry_query("COUNT", target_relation()), 0)

    def test_derivability(self, setting):
        self.check(
            setting, ancestry_query("DERIVABILITY", target_relation()), False
        )

    def test_weight_with_leaf_assignment(self, setting):
        query = ancestry_query(
            "WEIGHT",
            target_relation(),
            " ASSIGNING EACH leaf_node $y { DEFAULT : SET 1 }",
        )
        self.check(setting, query, math.inf)

    def test_trust_with_distrusted_mapping(self, setting):
        query = ancestry_query(
            "TRUST",
            target_relation(),
            " ASSIGNING EACH mapping $p($z) "
            "{ CASE $p = m3 : SET false DEFAULT : SET $z }",
        )
        self.check(setting, query, False)

    def test_leaf_case_conditions_compile_to_sql(self, setting):
        # Trust leaves of peer 3's first relation only if attribute a1
        # is even; everything else is trusted.
        query = ancestry_query(
            "TRUST",
            target_relation(),
            """ ASSIGNING EACH leaf_node $y {
                  CASE $y in P3_R1 AND $y.a1 >= 1073741824 : SET false
                  DEFAULT : SET true
                }""",
        )
        self.check(setting, query, False)

