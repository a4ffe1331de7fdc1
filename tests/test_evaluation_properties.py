"""Property-based cross-checks of the evaluation engines.

Random small workloads; the semi-naive engine must agree with the
naive oracle on both the materialized instance and the full provenance
graph, and graph annotations must equal the provenance polynomial's
evaluation (the universal property on real data)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdss import CDSS, Peer
from repro.datalog import evaluate, evaluate_naive, parse_program
from repro.provenance import TupleNode, annotate, provenance_polynomial
from repro.relational import Catalog, Instance, RelationSchema
from repro.relational.schema import local_name
from repro.semirings import get_semiring
from repro.workloads.topologies import branched_edges, chain_edges

from store_state import assert_store_matches

PROGRAM = parse_program(
    """
    L_R: R(x, y) :- R_l(x, y)
    L_S: S(x, y) :- S_l(x, y)
    join: T(x, z) :- R(x, y), S(y, z)
    copy: T(x, y) :- R(x, y)
    chain: U(x, z) :- T(x, y), T(y, z)
    """
)

edges = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10, unique=True
)


def build_instance(r_rows, s_rows) -> Instance:
    catalog = Catalog(
        [
            RelationSchema.of("R_l", ["a", "b"]),
            RelationSchema.of("S_l", ["a", "b"]),
            RelationSchema.of("R", ["a", "b"]),
            RelationSchema.of("S", ["a", "b"]),
            RelationSchema.of("T", ["a", "b"]),
            RelationSchema.of("U", ["a", "b"]),
        ]
    )
    instance = Instance(catalog)
    instance.insert_many("R_l", r_rows)
    instance.insert_many("S_l", s_rows)
    return instance


@settings(max_examples=25, deadline=None)
@given(r_rows=edges, s_rows=edges)
def test_semi_naive_equals_naive(r_rows, s_rows):
    first = build_instance(r_rows, s_rows)
    second = build_instance(r_rows, s_rows)
    semi = evaluate(PROGRAM, first)
    naive = evaluate_naive(PROGRAM, second)
    assert first == second
    assert semi.graph == naive.graph


@settings(max_examples=15, deadline=None)
@given(r_rows=edges, s_rows=edges)
def test_polynomial_universal_property_on_real_graphs(r_rows, s_rows):
    instance = build_instance(r_rows, s_rows)
    result = evaluate(PROGRAM, instance)
    graph = result.graph
    if not graph.is_acyclic():  # pragma: no cover - program is acyclic
        return
    count = get_semiring("COUNT")
    counts = annotate(graph, count)
    for node in list(graph.tuples_in("U"))[:3]:
        poly = provenance_polynomial(graph, node)
        assert poly.evaluate(count, lambda leaf: 1) == counts[node]


@settings(max_examples=15, deadline=None)
@given(r_rows=edges, s_rows=edges)
def test_derivability_matches_membership(r_rows, s_rows):
    """Everything materialized is derivable; derivability over the
    graph must be uniformly true (the least-model property)."""
    instance = build_instance(r_rows, s_rows)
    result = evaluate(PROGRAM, instance)
    values = annotate(result.graph, get_semiring("DERIVABILITY"))
    assert all(values[node] for node in result.graph.tuples)


def _topology_cdss(kind: str, num_peers: int) -> CDSS:
    """A miniature chain/branched CDSS with 2-ary SWISS-PROT-style
    partitions (same mapping shape as the benchmark workloads)."""
    edge_fn = chain_edges if kind == "chain" else branched_edges
    cdss = CDSS(
        Peer.of(
            f"P{i}",
            [
                RelationSchema.of(f"P{i}_R1", ["k", "a"]),
                RelationSchema.of(f"P{i}_R2", ["k", "b"]),
            ],
        )
        for i in range(num_peers)
    )
    for number, (src, dst) in enumerate(edge_fn(num_peers), start=1):
        cdss.add_mapping(
            f"P{dst}_R1(k, a), P{dst}_R2(k, b) :- "
            f"P{src}_R1(k, a), P{src}_R2(k, b)",
            name=f"m{number}",
        )
    return cdss


def _insert_rows(instance, num_peers, rows):
    inserted = {}
    for peer, k, v in rows:
        peer %= num_peers
        for suffix in ("R1", "R2"):
            relation = local_name(f"P{peer}_{suffix}")
            if instance.insert(relation, (k, v)):
                inserted.setdefault(relation, set()).add((k, v))
    return inserted


topology_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 3)),
    max_size=8,
    unique=True,
)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["chain", "branched"]),
    num_peers=st.integers(2, 5),
    rows=topology_rows,
)
def test_planned_evaluate_matches_naive_on_topologies(kind, num_peers, rows):
    """The compiled-plan engine and the naive oracle agree on instance
    and provenance graph (node/edge sets) for the workload shapes."""
    cdss = _topology_cdss(kind, num_peers)
    program = cdss.program()
    first = Instance(cdss.catalog)
    second = Instance(cdss.catalog)
    _insert_rows(first, num_peers, rows)
    _insert_rows(second, num_peers, rows)
    semi = evaluate(program, first)
    naive = evaluate_naive(program, second)
    assert first == second
    assert semi.graph.tuples == naive.graph.tuples
    assert semi.graph.derivations == naive.graph.derivations


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["chain", "branched"]),
    num_peers=st.integers(2, 4),
    base_rows=topology_rows,
    extra_rows=topology_rows,
)
def test_incremental_exchange_matches_from_scratch(
    kind, num_peers, base_rows, extra_rows
):
    """Full exchange + initial_delta increment == one exchange over all
    the data (instance and graph), for both topology shapes."""
    cdss = _topology_cdss(kind, num_peers)
    program = cdss.program()

    incremental = Instance(cdss.catalog)
    _insert_rows(incremental, num_peers, base_rows)
    result = evaluate(program, incremental)
    delta = _insert_rows(incremental, num_peers, extra_rows)
    evaluate(program, incremental, graph=result.graph, initial_delta=delta)

    scratch = Instance(cdss.catalog)
    _insert_rows(scratch, num_peers, base_rows)
    _insert_rows(scratch, num_peers, extra_rows)
    oracle = evaluate_naive(program, scratch)

    assert incremental == scratch
    assert result.graph.tuples == oracle.graph.tuples
    assert result.graph.derivations == oracle.graph.derivations


def _insert_local_rows(cdss: CDSS, num_peers, rows):
    """CDSS-level twin of :func:`_insert_rows` (queues pending rows)."""
    for peer, k, v in rows:
        peer %= num_peers
        for suffix in ("R1", "R2"):
            cdss.insert_local(f"P{peer}_{suffix}", (k, v))


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(["chain", "branched"]),
    num_peers=st.integers(2, 4),
    base_rows=topology_rows,
    extra_rows=topology_rows,
)
def test_sqlite_engine_matches_memory_engine(
    kind, num_peers, base_rows, extra_rows
):
    """The set-oriented SQLite engine's store holds exactly the
    in-memory engine's relations, P_m rows and derivations on both
    topology shapes,
    for the full exchange AND the incremental (initial_delta) call —
    and the second exchange compiles 0 plans (program-cache hit) in
    both engines."""
    systems = {}
    for engine in ("memory", "sqlite"):
        system = _topology_cdss(kind, num_peers)
        _insert_local_rows(system, num_peers, base_rows)
        first = system.exchange(engine=engine)
        assert not first.plan_cache_hit
        _insert_local_rows(system, num_peers, extra_rows)
        second = system.exchange(engine=engine)
        assert second.plan_cache_hit
        assert second.plans_compiled == 0
        systems[engine] = system
    assert_store_matches(systems["memory"], systems["sqlite"])


@settings(max_examples=15, deadline=None)
@given(r_rows=edges, s_rows=edges, drop=st.integers(0, 9))
def test_deletion_propagation_equals_recomputation(r_rows, s_rows, drop):
    """Deleting one base tuple + propagate == evaluating from scratch
    without it (the Q5 maintenance invariant)."""
    if not r_rows:
        return
    victim = r_rows[drop % len(r_rows)]

    # From-scratch world without the victim.
    reference = build_instance([r for r in r_rows if r != victim], s_rows)
    evaluate(PROGRAM, reference)

    # Incremental world: full exchange, then delete + propagate.
    from repro.cdss import CDSS, Peer

    system = CDSS(
        [
            Peer.of(
                "P",
                [
                    RelationSchema.of("R", ["a", "b"]),
                    RelationSchema.of("S", ["a", "b"]),
                    RelationSchema.of("T", ["a", "b"]),
                    RelationSchema.of("U", ["a", "b"]),
                ],
            )
        ]
    )
    system.add_mapping("join: T(x, z) :- R(x, y), S(y, z)", name="join")
    system.add_mapping("copy: T(x, y) :- R(x, y)", name="copy")
    system.add_mapping("chain: U(x, z) :- T(x, y), T(y, z)", name="chain")
    system.insert_local_many("R", r_rows)
    system.insert_local_many("S", s_rows)
    system.exchange()
    system.delete_local("R", victim)
    system.propagate_deletions()

    for relation in ("T", "U"):
        assert system.instance[relation] == reference[relation], relation


@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(["chain", "branched"]),
    num_peers=st.integers(2, 4),
    base_rows=topology_rows,
    extra_rows=topology_rows,
    drop=st.integers(0, 7),
)
def test_engines_agree_after_deletions_with_incremental_sync(
    kind, num_peers, base_rows, extra_rows, drop
):
    """Full exchange, delete_local + propagate_deletions, then an
    incremental exchange: the SQLite store — sent only the pending
    local rows by each exchange — ends with exactly the memory engine's
    relations, P_m rows and derivations."""
    victims = base_rows[: drop % (len(base_rows) + 1)]
    systems = {}
    for engine in ("memory", "sqlite"):
        system = _topology_cdss(kind, num_peers)
        _insert_local_rows(system, num_peers, base_rows)
        system.exchange(engine=engine)
        for peer, k, v in victims:
            peer %= num_peers
            for suffix in ("R1", "R2"):
                system.delete_local(f"P{peer}_{suffix}", (k, v))
        system.propagate_deletions()
        _insert_local_rows(system, num_peers, extra_rows)
        second = system.exchange(engine=engine)
        assert second.plan_cache_hit
        systems[engine] = system
    assert_store_matches(systems["memory"], systems["sqlite"])


@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(["chain", "branched"]),
    num_peers=st.integers(2, 4),
    base_rows=topology_rows,
    extra_rows=topology_rows,
    drop=st.integers(0, 7),
)
def test_resident_sql_deletion_matches_graph_engine(
    kind, num_peers, base_rows, extra_rows, drop
):
    """Store-resident deletion propagation (the SQL derivability
    fixpoint over P_m) and the memory engine's graph-based
    propagate_deletions agree on the surviving instance, on the
    surviving P_m firing history, and on the deletion statistics — and
    a post-delete incremental exchange still ships only the changed
    relations into the store."""
    import tempfile
    from pathlib import Path

    victims = base_rows[: drop % (len(base_rows) + 1)]

    def seed(system):
        for peer, k, v in base_rows:
            peer %= num_peers
            for suffix in ("R1", "R2"):
                system.insert_local(f"P{peer}_{suffix}", (k, v))

    def delete(system):
        for peer, k, v in victims:
            peer %= num_peers
            for suffix in ("R1", "R2"):
                system.delete_local(f"P{peer}_{suffix}", (k, v))

    memory = _topology_cdss(kind, num_peers)
    seed(memory)
    memory.exchange()
    delete(memory)
    memory.propagate_deletions()

    with tempfile.TemporaryDirectory() as tmpdir:
        resident = _topology_cdss(kind, num_peers)
        seed(resident)
        resident.exchange(
            engine="sqlite",
            storage=str(Path(tmpdir) / "resident.db"),
            resident=True,
        )
        delete(resident)
        resident.propagate_deletions()

        assert (
            resident.last_deletion.rows_deleted
            == memory.last_deletion.rows_deleted
        )
        assert (
            resident.last_deletion.pm_rows_collected
            == memory.last_deletion.pm_rows_collected
        )
        assert_store_matches(memory, resident)

        # Post-delete incremental exchange: rows_mirrored counts only
        # the pending local rows — a deletion never reloads a
        # relation.
        appended = {}
        for peer, k, v in extra_rows:
            peer %= num_peers
            for suffix in ("R1", "R2"):
                relation = local_name(f"P{peer}_{suffix}")
                for system in (memory, resident):
                    if system.insert_local(relation, (k, v)) and system is resident:
                        appended.setdefault(relation, set()).add((k, v))
        memory.exchange()
        result = resident.exchange(engine="sqlite", resident=True)
        assert result.rows_mirrored == sum(
            len(rows) for rows in appended.values()
        )
        assert result.relations_synced == len(appended)
        assert_store_matches(memory, resident)


@settings(max_examples=10, deadline=None)
@given(
    kind=st.sampled_from(["chain", "branched"]),
    num_peers=st.integers(2, 4),
    base_rows=topology_rows,
    drop=st.integers(0, 7),
    node_pick=st.integers(0, 9999),
    distrust_pick=st.integers(0, 9),
)
def test_resident_graph_queries_match_graph_engine(
    kind, num_peers, base_rows, drop, node_pick, distrust_pick
):
    """Store-resident graph queries (SQL over the P_m firing history)
    and the graph engine agree node-for-node: same lineage set for a
    random query node, same trusted verdicts under a random policy,
    same derivability annotation over the same node set — on the fresh
    store AND again after delete_local + propagate_deletions."""
    import tempfile
    from pathlib import Path

    from repro.cdss.trust import TrustPolicy

    victims = base_rows[: drop % (len(base_rows) + 1)]

    def seed(system):
        for peer, k, v in base_rows:
            peer %= num_peers
            for suffix in ("R1", "R2"):
                system.insert_local(f"P{peer}_{suffix}", (k, v))

    def delete(system):
        for peer, k, v in victims:
            peer %= num_peers
            for suffix in ("R1", "R2"):
                system.delete_local(f"P{peer}_{suffix}", (k, v))

    def policy_for(system):
        policy = TrustPolicy()
        # Condition keyed on the public relation name: applies to the
        # local leaves of the most-upstream peer's first partition.
        policy.trust_if(
            f"P{num_peers - 1}_R1", lambda values: values[1] % 2 == 0
        )
        names = sorted(system.mappings)
        if names:
            policy.distrust_mapping(names[distrust_pick % len(names)])
        return policy

    def check(memory, resident):
        assert resident.derivability() == memory.derivability()
        assert resident.trusted(policy_for(resident)) == memory.trusted(
            policy_for(memory)
        )
        nodes = sorted(memory.graph.tuples)
        if nodes:
            node = nodes[node_pick % len(nodes)]
            assert resident.lineage(node) == memory.lineage(node), node
        # The resident side answered relationally, graph still empty.
        assert resident.graph.size() == (0, 0)
        assert resident.last_graph_query.engine == "sqlite"

    memory = _topology_cdss(kind, num_peers)
    seed(memory)
    memory.exchange()
    with tempfile.TemporaryDirectory() as tmpdir:
        resident = _topology_cdss(kind, num_peers)
        seed(resident)
        resident.exchange(
            engine="sqlite",
            storage=str(Path(tmpdir) / "resident.db"),
            resident=True,
        )
        check(memory, resident)

        for system in (memory, resident):
            delete(system)
            system.propagate_deletions()
        check(memory, resident)
