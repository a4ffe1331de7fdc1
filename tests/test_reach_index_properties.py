"""Property-based cross-check of the maintained reachability index.

Random chain/branched/diamond mapping topologies under random
interleavings of insert / exchange / delete / propagate / query: the
indexed answers
must equal the unindexed relational path on every query, and the
memory engine whenever no divergence window is open (un-propagated
deletes: resident victim marking removes rows immediately while the
graph keeps leaves until propagation; un-exchanged inserts: a row
deleted and inserted again before a propagation keeps its consequences
alive there, but the index pruned its fires at the delete).  After
every propagation the public relations equal the memory engine's,
window or not.  After the lifecycle, a
store reopened by path must still know its index epoch and state and
answer queries without a rebuild."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdss import CDSS, Peer, TrustPolicy
from repro.exchange.graph_queries import StoreGraphQueries
from repro.exchange.sql_executor import ExchangeStore
from repro.relational import RelationSchema
from repro.relational.schema import is_local_name

LENGTH = 4


def build_twins(kind):
    """Memory twin + (to-be) resident twin over a small topology."""
    copy_chain = [f"c{i}: B{i}(x) :- B{i - 1}(x)" for i in range(1, LENGTH)]
    if kind == "chain":
        # single-body copy chain: every firing has one body node and
        # every tuple one derivation — a provenance forest.
        mappings = copy_chain
        data = ["B0"]
    elif kind == "diamond":
        # the copy chain plus a shortcut: still single-body, but B3
        # rows fed from B0 are derived twice, and rows inserted at B1
        # turn a forest store into a DAG mid-lifecycle.
        mappings = copy_chain + ["d3: B3(x) :- B1(x)"]
        data = ["B0", "B1"]
    else:  # branched: B0 and B1 join into B2, then a chain tail
        mappings = ["j2: B2(x) :- B0(x), B1(x)", "c3: B3(x) :- B2(x)"]
        data = ["B0", "B1"]
    out = []
    for _ in range(2):
        system = CDSS(
            [
                Peer.of(f"P{i}", [RelationSchema.of(f"B{i}", ["x"])])
                for i in range(LENGTH)
            ]
        )
        system.add_mappings(mappings)
        out.append(system)
    return out[0], out[1], data, mappings[0].split(":")[0]


def legacy_oracle(resident):
    program, _ = resident.plan_cache.fetch(resident.program())
    return StoreGraphQueries(
        resident.exchange_store,
        program,
        resident.catalog,
        resident.mappings,
        use_index=False,
    )


def public_nodes(memory):
    return sorted(
        node
        for node in memory.graph.tuples
        if not is_local_name(node.relation)
    )


def compare_queries(memory, resident, pick, distrusted, window_open):
    oracle = legacy_oracle(resident)
    indexed = resident.derivability()
    assert indexed == oracle.derivability()[0]
    policy = TrustPolicy()
    policy.distrust_mapping(distrusted)
    indexed_trust = resident.trusted(policy)
    assert indexed_trust == oracle.trusted(policy)[0]
    nodes = public_nodes(memory)
    node = nodes[pick % len(nodes)] if nodes else None
    if node is not None:
        try:
            from_index = resident.lineage(node)
        except KeyError:
            from_index = KeyError
        try:
            from_oracle = oracle.lineage(node)[0]
        except KeyError:
            from_oracle = KeyError
        assert from_index == from_oracle
    if window_open:
        return
    # No divergence window open: the memory engine must agree too.
    assert indexed == memory.derivability()
    assert indexed_trust == memory.trusted(policy)
    if node is not None:
        assert from_index == memory.lineage(node)


def assert_public_relations_match(memory, resident):
    store = resident.exchange_store
    for schema in resident.catalog:
        if not is_local_name(schema.name):
            assert store.relation_rows(schema) == set(
                memory.instance[schema.name]
            ), schema.name


ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 1), st.integers(0, 11)),
        st.tuples(st.just("exchange"), st.just(0)),
        st.tuples(st.just("delete"), st.integers(0, 7)),
        st.tuples(st.just("propagate"), st.just(0)),
        st.tuples(st.just("query"), st.integers(0, 7)),
    ),
    max_size=10,
)


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(["chain", "branched", "diamond"]),
    rows=st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
    operations=ops,
)
def test_indexed_lifecycle_matches_both_oracles(kind, rows, operations):
    memory, resident, data, distrusted = build_twins(kind)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "resident.db")
        for relation in data:
            for value in rows:
                for system in (memory, resident):
                    system.insert_local(relation, (value,))
        memory.exchange()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        # Divergence windows vs the memory engine: un-exchanged
        # inserts (a row deleted and inserted again keeps its
        # consequences alive at the next propagation, but the index
        # pruned its fires at the delete) and un-propagated deletes
        # (the graph keeps victim leaves until propagation).
        pending_inserts = False
        pending_deletes = False
        for op, arg, *rest in (operations or []):
            if op == "insert":
                relation = data[arg % len(data)]
                for system in (memory, resident):
                    system.insert_local(relation, (rest[0],))
                pending_inserts = True
            elif op == "exchange":
                memory.exchange()
                resident.exchange(engine="sqlite", resident=True)
                pending_inserts = False
            elif op == "delete":
                candidates = [
                    (relation, row)
                    for relation in data
                    for row in sorted(memory.instance[f"{relation}_l"])
                ]
                if not candidates:
                    continue
                relation, row = candidates[arg % len(candidates)]
                for system in (memory, resident):
                    system.delete_local(relation, row)
                pending_deletes = True
            elif op == "propagate":
                removed = memory.propagate_deletions()
                assert removed == resident.propagate_deletions()
                assert_public_relations_match(memory, resident)
                pending_deletes = False
            else:
                compare_queries(
                    memory,
                    resident,
                    arg,
                    distrusted,
                    pending_inserts or pending_deletes,
                )
        if pending_deletes:
            assert memory.propagate_deletions() == (
                resident.propagate_deletions()
            )
            assert_public_relations_match(memory, resident)
        if pending_inserts:
            memory.exchange()
            resident.exchange(engine="sqlite", resident=True)
        compare_queries(memory, resident, 0, distrusted, False)
        # Epoch/state survive a reopen-by-path; queries answer from
        # the persisted index with no rebuild.
        store = resident.exchange_store
        state = store.meta_get("index_state")
        epoch = store.meta_get("index_epoch")
        assert state == "current"
        store.close()
        with ExchangeStore(path) as reopened:
            assert reopened.meta_get("index_state") == state
            assert int(reopened.meta_get("index_epoch")) == int(epoch)
            program, _ = resident.plan_cache.fetch(resident.program())
            queries = StoreGraphQueries(
                reopened, program, resident.catalog, resident.mappings
            )
            verdicts, stats = queries.derivability()
            assert stats.index_hit == 1 and stats.index_miss == 0
            assert verdicts == memory.derivability()
