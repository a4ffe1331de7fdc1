"""Property-based cross-check of every index-backed answer.

Random interleavings of writer operations (insert / exchange / delete /
propagate) with queries over chain and branched topologies: the
writer's own indexed queries and persistent read-only
:class:`ReaderSession` instances run the same read core, and each must
answer every ``lineage`` / ``derivability`` / ``trusted`` query exactly
like the unindexed relational oracle at the same epoch — across epoch
drift, per-epoch cache reuse, and index invalidation (a stale index
makes a reader *refuse*, never answer wrongly, until the writer's next
indexed query rebuilds it).
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdss import CDSS, Peer, TrustPolicy
from repro.errors import ServeUnavailable
from repro.exchange.graph_queries import StoreGraphQueries
from repro.provenance.graph import TupleNode
from repro.relational import RelationSchema
from repro.relational.schema import is_local_name
from repro.serve import BackoffPolicy, ReaderSession

LENGTH = 4

FAST_RETRY = BackoffPolicy(attempts=2, base_delay=0.0, multiplier=1.0)


def build_resident(kind):
    if kind == "chain":
        mappings = [f"c{i}: B{i}(x) :- B{i - 1}(x)" for i in range(1, LENGTH)]
        data = ["B0"]
    else:  # branched: B0 and B1 join into B2, then a chain tail
        mappings = ["j2: B2(x) :- B0(x), B1(x)", "c3: B3(x) :- B2(x)"]
        data = ["B0", "B1"]
    system = CDSS(
        [
            Peer.of(f"P{i}", [RelationSchema.of(f"B{i}", ["x"])])
            for i in range(LENGTH)
        ]
    )
    system.add_mappings(mappings)
    return system, data, mappings[0].split(":")[0]


def unindexed_oracle(resident):
    program, _ = resident.plan_cache.fetch(resident.program())
    return StoreGraphQueries(
        resident.exchange_store,
        program,
        resident.catalog,
        resident.mappings,
        use_index=False,
    )


def stored_rows(resident, relation):
    return resident.exchange_store.relation_rows(
        resident.catalog[relation]
    )


def compare_with_oracle(resident, readers, pick, distrusted):
    """The writer's indexed answers and every reader's equal the
    unindexed oracle's, at the epoch all observe (the writer is
    quiescent between ops, so the latest epoch is the only servable
    one)."""
    store = resident.exchange_store
    if store.meta_get("index_state") != "current":
        # A stale index (a run died mid-flight): the reader must
        # refuse rather than extrapolate, until the writer's own next
        # indexed query rebuilds the index.
        with pytest.raises(ServeUnavailable):
            ReaderSession(
                store.path, resident.catalog, retry=FAST_RETRY
            ).derivability()
        resident.derivability()  # writer-side rebuild
        assert store.meta_get("index_state") == "current"
    oracle = unindexed_oracle(resident)
    epoch = int(store.meta_get("index_epoch") or 0)
    expected_derivability = oracle.derivability()[0]
    policy = TrustPolicy()
    policy.distrust_mapping(distrusted)
    expected_trusted = oracle.trusted(policy)[0]
    nodes = sorted(
        node
        for node in expected_derivability
        if not is_local_name(node.relation)
    )
    probe = nodes[pick % len(nodes)] if nodes else None
    unknown = TupleNode(f"B{LENGTH - 1}", (987_654,))
    if probe is not None:
        try:
            expected_lineage = oracle.lineage(probe)[0]
        except KeyError:
            expected_lineage = KeyError
    for subject in (resident, *readers):
        assert subject.derivability() == expected_derivability
        assert subject.trusted(policy) == expected_trusted
        if probe is not None:
            try:
                got = subject.lineage(probe)
            except KeyError:
                got = KeyError
            assert got == expected_lineage
        with pytest.raises(KeyError):
            subject.lineage(unknown)
        if subject is resident:
            # Index reads neither rebuild a current index nor leave a
            # transaction open on the writer connection.
            assert resident.last_graph_query.index_miss == 0
            assert not store.connection.in_transaction
        else:
            assert subject.last_read.epoch == epoch
    assert int(store.meta_get("index_epoch") or 0) == epoch


ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 1), st.integers(6, 11)),
        st.tuples(st.just("exchange"), st.just(0)),
        st.tuples(st.just("delete"), st.integers(0, 7)),
        st.tuples(st.just("propagate"), st.just(0)),
        st.tuples(st.just("query"), st.integers(0, 7)),
    ),
    max_size=8,
)


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(["chain", "branched"]),
    rows=st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True),
    operations=ops,
)
def test_reader_matches_oracle_under_interleavings(kind, rows, operations):
    resident, data, distrusted = build_resident(kind)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "resident.db")
        for relation in data:
            for value in rows:
                resident.insert_local(relation, (value,))
        resident.exchange(engine="sqlite", storage=path, resident=True)
        readers = [
            ReaderSession(path, resident.catalog) for _ in range(2)
        ]
        try:
            compare_with_oracle(resident, readers, 0, distrusted)
            for op, arg, *rest in (operations or []):
                if op == "insert":
                    relation = data[arg % len(data)]
                    resident.insert_local(relation, (rest[0],))
                elif op == "exchange":
                    resident.exchange(engine="sqlite", resident=True)
                elif op == "delete":
                    candidates = [
                        (relation, row)
                        for relation in data
                        for row in sorted(
                            stored_rows(resident, f"{relation}_l")
                        )
                    ]
                    if not candidates:
                        continue
                    relation, row = candidates[arg % len(candidates)]
                    resident.delete_local(relation, row)
                elif op == "propagate":
                    resident.propagate_deletions()
                else:
                    compare_with_oracle(
                        resident, readers, arg, distrusted
                    )
            compare_with_oracle(resident, readers, 1, distrusted)
        finally:
            for reader in readers:
                reader.close()
