"""Tests for the SQL-backed update-exchange engine.

The acceptance bar: the store of an ``engine="sqlite"`` system must
hold relations, ``P_m`` rows and derivations *identical* to an
``engine="memory"`` twin's instance and provenance graph — on the
paper's running example (cyclic and acyclic), with labeled nulls,
across incremental calls, on disk and in ``:memory:``.
"""

import contextlib

import pytest

from repro.cdss import CDSS, Peer
from repro.errors import ExchangeError
from repro.exchange.sql_executor import ExchangeStore, SQLiteExchangeEngine
from repro.relational import RelationSchema
from repro.storage import provenance_rows
from repro.storage.encoding import quote_identifier

from store_state import (
    assert_store_matches,
    graph_fires,
    stored_fires,
    stored_pm_rows,
)

# The running example (Example 2.1 / Figure 1), self-contained so this
# module imports identically from the repo root and from tests/.
EXAMPLE_MAPPINGS = [
    "m1: C(i, n) :- A(i, s, _), N(i, n, false)",
    "m2: N(i, n, true) :- A(i, n, _)",
    "m3: N(i, n, false) :- C(i, n)",
    "m4: O(n, h, true) :- A(i, n, h)",
    "m5: O(n, h, true) :- A(i, _, h), C(i, n)",
]

#: the two places a sqlite-engine store lives: a file, or RAM.
STORES = ("disk", ":memory:")


def store_path(tmp_path, store, name="resident.db"):
    """The ``storage=`` argument for one of :data:`STORES`."""
    return str(tmp_path / name) if store == "disk" else store


def example_peers() -> list[Peer]:
    return [
        Peer.of(
            "P1",
            [
                RelationSchema.of("A", ["id", ("sn", "str"), "len"], key=["id"]),
                RelationSchema.of("C", ["id", ("name", "str")], key=["id", "name"]),
            ],
        ),
        Peer.of(
            "P2",
            [
                RelationSchema.of(
                    "N",
                    ["id", ("name", "str"), ("canon", "bool")],
                    key=["id", "name"],
                )
            ],
        ),
        Peer.of(
            "P3",
            [
                RelationSchema.of(
                    "O", [("name", "str"), "h", ("animal", "bool")], key=["name"]
                )
            ],
        ),
    ]


def populate_example(system: CDSS) -> CDSS:
    insert_example_data(system)
    system.exchange()
    return system


def example_twins(mappings=EXAMPLE_MAPPINGS):
    """Two structurally identical CDSSs over the running example."""
    out = []
    for _ in range(2):
        system = CDSS(example_peers())
        system.add_mappings(mappings)
        out.append(system)
    return out


def insert_example_data(system: CDSS) -> None:
    """Figure 1's base data, without running an exchange."""
    system.insert_local("A", (1, "sn1", 7))
    system.insert_local("A", (2, "sn1", 5))
    system.insert_local("N", (1, "cn1", False))
    system.insert_local("C", (2, "cn2"))


class TestEngineEquivalence:
    def test_running_example_cyclic(self):
        memory, sql = example_twins()
        populate_example(memory)
        insert_example_data(sql)
        result = sql.exchange(engine="sqlite")
        assert result.engine == "sqlite"
        assert result.firings == memory.last_exchange.firings
        assert result.inserted == memory.last_exchange.inserted
        assert_store_matches(memory, sql)

    def test_running_example_acyclic(self):
        mappings = [m for m in EXAMPLE_MAPPINGS if not m.startswith("m3")]
        memory, sql = example_twins(mappings)
        populate_example(memory)
        insert_example_data(sql)
        sql.exchange(engine="sqlite")
        assert_store_matches(memory, sql)

    def test_incremental_updates(self):
        memory, sql = example_twins()
        for system, engine in ((memory, "memory"), (sql, "sqlite")):
            system.insert_local("A", (1, "sn1", 7))
            system.insert_local("N", (1, "cn1", False))
            system.exchange(engine=engine)
            system.insert_local("A", (2, "sn1", 5))
            system.insert_local("C", (2, "cn2"))
            system.exchange(engine=engine)
        assert_store_matches(memory, sql)

    def test_skolem_values_join_in_sql(self):
        def build():
            system = CDSS(
                [
                    Peer.of(
                        "P",
                        [
                            RelationSchema.of("A", ["x"]),
                            RelationSchema.of("B", ["x", "y"]),
                            RelationSchema.of("D", ["x", "y"]),
                        ],
                    )
                ]
            )
            # Existential y becomes a labeled null; m2 must join on it.
            system.add_mapping("m1: B(x, y) :- A(x)", name="m1")
            system.add_mapping("m2: D(x, y) :- B(x, y), A(x)", name="m2")
            system.insert_local_many("A", [(1,), (2,)])
            return system

        memory, sql = build(), build()
        memory.exchange()
        sql.exchange(engine="sqlite")
        assert_store_matches(memory, sql)
        assert memory.instance.size("D") == 2

    def test_empty_incremental_exchange(self):
        memory, sql = example_twins()
        populate_example(memory)
        insert_example_data(sql)
        sql.exchange(engine="sqlite")
        memory.exchange()  # no pending rows
        result = sql.exchange(engine="sqlite")  # no pending rows
        assert result.iterations == 0
        assert result.inserted == 0
        assert_store_matches(memory, sql)


class TestProvenanceRelations:
    def test_pm_rows_match_graph_encoding(self):
        memory, system = example_twins()
        populate_example(memory)
        insert_example_data(system)
        system.exchange(engine="sqlite")
        # P_m as written by SQL equals the graph encoding of the
        # memory twin's derivations, mapping by mapping.
        assert_store_matches(memory, system)
        assert stored_fires(system) == graph_fires(memory.graph)

    def test_pm_rows_accumulate_incrementally(self):
        memory, system = example_twins()
        for target, engine in ((memory, "memory"), (system, "sqlite")):
            target.insert_local("A", (1, "sn1", 7))
            target.insert_local("N", (1, "cn1", False))
            target.exchange(engine=engine)
            target.insert_local("A", (2, "sn1", 5))
            target.insert_local("C", (2, "cn2"))
            target.exchange(engine=engine)
        assert_store_matches(memory, system)


class TestExchangeStore:
    def test_on_disk_store(self, tmp_path):
        path = str(tmp_path / "exchange.db")
        memory, sql = example_twins()
        populate_example(memory)
        insert_example_data(sql)
        sql.exchange(engine="sqlite", storage=path)
        assert sql.exchange_store.path == path
        # Incremental call with the same path reuses the store.
        store = sql.exchange_store
        sql.insert_local("A", (3, "sn3", 9))
        memory.insert_local("A", (3, "sn3", 9))
        sql.exchange(engine="sqlite", storage=path)
        memory.exchange()
        assert sql.exchange_store is store
        assert_store_matches(memory, sql)

    def test_store_context_manager(self):
        with ExchangeStore() as store:
            assert not store.closed
        assert store.closed
        store.close()  # idempotent

    def test_engine_rejects_closed_store(self):
        store = ExchangeStore()
        store.close()
        with pytest.raises(ExchangeError):
            SQLiteExchangeEngine(store)

    def test_explicit_store_hook(self):
        _, system = example_twins()
        system.insert_local("A", (1, "sn1", 7))
        with ExchangeStore() as store:
            system.exchange(engine="sqlite", storage=store)
            assert system.exchange_store is store

    def test_default_store_is_pinned_in_memory(self, tmp_path):
        memory, system = example_twins()
        for target in (memory, system):
            target.insert_local("A", (1, "sn1", 7))
        memory.exchange()
        system.exchange(engine="sqlite")
        store = system.exchange_store
        assert store.path == ":memory:" and system.resident
        for target in (memory, system):
            target.insert_local("A", (2, "sn2", 8))
        # The in-memory store holds the only copy of the derived
        # tuples: a later call cannot move the system to a file.
        with pytest.raises(ExchangeError):
            system.exchange(engine="sqlite", storage=str(tmp_path / "a.db"))
        assert system.exchange_store is store and not store.closed
        memory.exchange()
        system.exchange()
        assert_store_matches(memory, system)

    def test_caller_store_not_closed_on_replacement(self, tmp_path):
        _, system = example_twins()
        system.insert_local("A", (1, "sn1", 7))
        with ExchangeStore() as caller_store:
            system.exchange(engine="sqlite", storage=caller_store)
            system.insert_local("A", (2, "sn2", 8))
            with pytest.raises(ExchangeError):
                system.exchange(
                    engine="sqlite", storage=str(tmp_path / "b.db")
                )
            # The refused replacement leaves the caller's store alone.
            assert not caller_store.closed
            assert system.exchange_store is caller_store

    def test_memory_engine_rejects_storage(self):
        _, system = example_twins()
        system.insert_local("A", (1, "sn1", 7))
        with pytest.raises(ExchangeError):
            system.exchange(engine="memory", storage="somewhere.db")


class TestStoreFormat:
    """The store stamps its layout version into ``__meta`` and both
    openers — the writer and a read-only serving session — refuse a
    file with another number."""

    def test_fresh_store_carries_the_current_format(self, tmp_path):
        from repro.exchange.sql_executor import STORE_FORMAT

        assert STORE_FORMAT == 1
        for path in (str(tmp_path / "fresh.db"), ":memory:"):
            with ExchangeStore(path) as store:
                assert store.meta_get("store_format") == 1

    def test_both_openers_refuse_another_format(self, tmp_path):
        from repro.errors import StorageError
        from repro.serve import ReaderSession
        from repro.provenance.graph import TupleNode

        path = str(tmp_path / "resident.db")
        _, system = example_twins()
        insert_example_data(system)
        system.exchange(engine="sqlite", storage=path)
        system.exchange_store.meta_set("store_format", 2)
        system.exchange_store.close()
        with pytest.raises(StorageError, match=r"format 2.*format 1"):
            ExchangeStore(path)
        with pytest.raises(StorageError, match=r"format 2.*format 1"):
            system.exchange(engine="sqlite", storage=path)
        with ReaderSession(path, system.catalog) as reader:
            with pytest.raises(StorageError, match=r"format 2.*format 1"):
                reader.lineage(TupleNode("A", (1, "sn1", 7)))
            with pytest.raises(StorageError):
                reader.derivability()


class TestLoweringLimits:
    def test_skolem_body_rule_rejected(self):
        from repro.datalog.parser import parse_rule
        from repro.datalog.rules import Rule
        from repro.datalog.terms import SkolemTerm, Variable
        from repro.datalog.atoms import Atom
        from repro.exchange.cache import compile_exchange_program
        from repro.exchange.sql_plans import lower_program
        from repro.relational.instance import Catalog
        from repro.storage.encoding import ValueCodec

        x = Variable("x")
        body_atom = Atom("R", (SkolemTerm("f", (x,)), x))
        rule = Rule("weird", (Atom("T", (x,)),), (body_atom,))
        catalog = Catalog(
            [
                RelationSchema.of("R", ["a", "b"]),
                RelationSchema.of("T", ["a"]),
            ]
        )
        from repro.datalog.planner import compile_rule

        compiled = compile_rule(rule)
        assert not compiled.plans  # planner falls back -> SQL must refuse
        with pytest.raises(ExchangeError):
            lower_program([compiled], catalog, {}, ValueCodec())


class TestIncrementalMirror:
    """An exchange ships exactly the pending local rows into the store,
    never the whole instance."""

    def test_second_exchange_over_unchanged_relations_ships_nothing(self):
        memory, system = example_twins()
        populate_example(memory)
        insert_example_data(system)
        first = system.exchange(engine="sqlite")
        assert first.rows_mirrored > 0
        assert first.relations_synced > 0
        repeat = system.exchange(engine="sqlite")
        assert repeat.rows_mirrored == 0
        assert repeat.relations_synced == 0
        assert repeat.plans_compiled == 0
        assert_store_matches(memory, system)

    def test_incremental_exchange_ships_only_the_delta(self):
        memory, system = example_twins()
        insert_example_data(system)
        system.exchange(engine="sqlite")
        baseline = system.instance_size()
        for target in (memory, system):
            target.insert_local("A", (3, "sn3", 9))
        populate_example(memory)
        result = system.exchange(engine="sqlite")
        # One appended local row — nowhere near a full instance reload.
        assert result.rows_mirrored == 1
        assert result.relations_synced == 1
        assert system.instance_size() > baseline
        assert_store_matches(memory, system)

    def test_memory_engine_reports_zero_mirroring(self):
        memory, _ = example_twins()
        insert_example_data(memory)
        result = memory.exchange()
        assert result.rows_mirrored == 0
        assert result.relations_synced == 0

    def test_propagation_ships_nothing_exchange_ships_pending(self):
        memory, system = example_twins()
        populate_example(memory)
        insert_example_data(system)
        system.exchange(engine="sqlite")
        a_l = system.catalog["A_l"]
        for target in (memory, system):
            # A pending insertion beside a deletion of the same
            # relation: the propagation writes no R_l row, and the
            # pending row stays out of the store until the exchange.
            target.insert_local("A", (3, "sn3", 9))
            target.delete_local("A", (2, "sn1", 5))
            target.propagate_deletions()
            target.insert_local("C", (1, "cn9"))
        deletion = system.last_deletion
        assert deletion.rows_mirrored == deletion.relations_synced == 0
        assert system.exchange_store.relation_rows(a_l) == {(1, "sn1", 7)}
        result = system.exchange(engine="sqlite")
        memory.exchange()
        assert result.rows_mirrored == result.relations_synced == 2
        assert_store_matches(memory, system)

    def test_on_disk_incremental_sync(self, tmp_path):
        path = str(tmp_path / "incr.db")
        memory, system = example_twins()
        populate_example(memory)
        insert_example_data(system)
        system.exchange(engine="sqlite", storage=path)
        repeat = system.exchange(engine="sqlite", storage=path)
        assert repeat.rows_mirrored == 0
        assert_store_matches(memory, system)

    def test_aborted_run_invalidates_sync_and_self_heals(self):
        from repro.errors import EvaluationError

        memory, system = example_twins()
        insert_example_data(system)
        program, _ = system.plan_cache.fetch(system.program())
        system.exchange_store = store = ExchangeStore()
        engine = SQLiteExchangeEngine(store)
        with pytest.raises(EvaluationError):
            # The run ships the system's pending rows and consumes them.
            engine.run(
                program,
                system.catalog,
                system.mappings,
                system.instance,
                system._pending,
                max_iterations=1,
            )
        # The aborted run committed its first round: derived rows the
        # count cache never saw.  The next run must re-seed, converge
        # and count every stored row.
        assert store.dirty_run
        assert store.count("A_l") == 2
        result = system.exchange(engine="sqlite")
        assert result.rows_mirrored == 0  # the local rows were shipped
        assert store.count("A_l") == 2  # ...and only once
        assert not store.dirty_run
        populate_example(memory)
        assert_store_matches(memory, system)
        assert system.instance_size() == memory.instance_size()
        assert system.instance_size(public_only=False) == (
            memory.instance_size(public_only=False)
        )


def stored_tables(path):
    """Every row of every table of the store file at *path*, rowids
    included — what "the store is unchanged" compares."""
    import sqlite3

    connection = sqlite3.connect(path)
    try:
        names = [
            name
            for (name,) in connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY name"
            )
        ]
        tables = {}
        for name in names:
            table = quote_identifier(name)
            try:
                rows = connection.execute(
                    f"SELECT rowid, * FROM {table}"
                ).fetchall()
            except sqlite3.OperationalError:  # a WITHOUT ROWID table
                rows = connection.execute(f"SELECT * FROM {table}").fetchall()
            tables[name] = sorted(rows, key=repr)
        return tables
    finally:
        connection.close()


class TestPendingLocalRows:
    """The pending set is the one record of the local rows a store has
    not seen: an exchange ships exactly those, a propagation ships
    none, and a first exchange onto a populated store ships only what
    it lacks — or refuses."""

    def test_pending_row_does_not_keep_a_dying_tuple(self, tmp_path):
        memory, resident = build_resident_deletion_pair(tmp_path)
        for system in (memory, resident):
            system.insert_local("A", (5, "x", 1))
            system.exchange()
            # m2 derives N(5, x, true); the same tuple is now also
            # inserted locally, but not exchanged.
            system.insert_local("N", (5, "x", True))
            assert system.delete_local("A", (5, "x", 1))
        removed = [memory.propagate_deletions(), resident.propagate_deletions()]
        store = resident.exchange_store
        for schema in resident.catalog:
            if not schema.name.endswith("_l"):
                assert store.relation_rows(schema) == set(
                    memory.instance[schema.name]
                ), schema.name
        assert (5, "x", True) not in store.relation_rows(resident.catalog["N"])
        for name, mapping in resident.mappings.items():
            if mapping.stores_provenance:
                assert stored_pm_rows(store, mapping) == set(
                    provenance_rows(memory.mappings[name], memory.graph)
                ), name
        assert resident.derivability() == memory.derivability()
        assert removed[0] == removed[1]
        # The exchange ships the pending N_l row, which derives the
        # tuple again.
        result = resident.exchange()
        memory.exchange()
        assert result.rows_mirrored == 1
        assert_store_matches(memory, resident)

    def build_store(self, tmp_path):
        """A memory twin and the path of a closed store holding the
        exchanged running example."""
        path = str(tmp_path / "existing.db")
        memory, resident = example_twins()
        for system in (memory, resident):
            insert_example_data(system)
        memory.exchange()
        resident.exchange(engine="sqlite", storage=path)
        resident.exchange_store.close()
        return memory, path

    def test_fresh_system_without_rows_is_refused(self, tmp_path):
        from repro.errors import StorageError

        memory, path = self.build_store(tmp_path)
        before = stored_tables(path)
        fresh, _ = example_twins()
        with pytest.raises(StorageError, match="A_l"):
            fresh.exchange(engine="sqlite", storage=path)
        assert stored_tables(path) == before
        assert fresh.exchange_store is None and not fresh.resident
        assert fresh.last_exchange is None
        # The refused system is untouched: it still exchanges onto a
        # store of its own.
        fresh.insert_local("A", (3, "sn3", 9))
        result = fresh.exchange(engine="sqlite")
        assert result.rows_mirrored == 1

    def test_replaying_system_adopts_the_store(self, tmp_path):
        memory, path = self.build_store(tmp_path)
        replay, _ = example_twins()
        insert_example_data(replay)
        result = replay.exchange(engine="sqlite", storage=path)
        assert result.rows_mirrored == result.relations_synced == 0
        store = replay.exchange_store
        assert store.count("A_l") == 2
        assert_store_matches(memory, replay)
        assert replay.derivability() == memory.derivability()

    def test_superset_replay_ships_only_the_missing_rows(self, tmp_path):
        memory, path = self.build_store(tmp_path)
        replay, _ = example_twins()
        insert_example_data(replay)
        for system in (memory, replay):
            system.insert_local("A", (3, "sn3", 9))
        memory.exchange()
        result = replay.exchange(engine="sqlite", storage=path)
        assert result.rows_mirrored == result.relations_synced == 1
        assert replay.exchange_store.count("A_l") == 3
        assert_store_matches(memory, replay)


class TestResidentMode:
    """The sqlite engine's store is the authoritative instance; Python
    holds only local contributions.  Store-agnostic tests run once per
    entry of :data:`STORES`."""

    def build_pair(self, tmp_path, store="disk"):
        resident, plain = example_twins()
        insert_example_data(resident)
        insert_example_data(plain)
        resident.exchange(
            engine="sqlite", storage=store_path(tmp_path, store)
        )
        plain.exchange()
        return resident, plain

    def pairs(self, tmp_path):
        """One (resident, memory twin) pair per :data:`STORES` entry."""
        for store in STORES:
            yield self.build_pair(tmp_path, store)

    def test_derived_tuples_live_only_in_the_store(self, tmp_path):
        for resident, plain in self.pairs(tmp_path):
            # Python side: local contributions only.
            for schema in resident.catalog:
                if not schema.name.endswith("_l"):
                    assert resident.instance.size(schema.name) == 0, (
                        schema.name
                    )
            # Store side: exactly the twin's materialized instance.
            assert_store_matches(plain, resident)
            assert len(resident.graph.tuples) == 0

    def test_instance_size_counts_store_rows(self, tmp_path):
        for resident, plain in self.pairs(tmp_path):
            assert resident.instance_size() == plain.instance_size()
            assert resident.instance_size(
                public_only=False
            ) == plain.instance_size(public_only=False)

    def test_incremental_resident_exchange(self, tmp_path):
        for resident, plain in self.pairs(tmp_path):
            for system in (resident, plain):
                system.insert_local("A", (3, "sn3", 9))
            r = resident.exchange(engine="sqlite", resident=True)
            plain.exchange()
            assert r.rows_mirrored == 1
            assert r.inserted == plain.last_exchange.inserted
            assert_store_matches(plain, resident)

    def test_resident_requires_sqlite_engine(self):
        _, system = example_twins()
        insert_example_data(system)
        with pytest.raises(ExchangeError):
            system.exchange(engine="memory", resident=True)
        # resident=False contradicts the sqlite engine just as much.
        with pytest.raises(ExchangeError):
            system.exchange(engine="sqlite", resident=False)
        assert system.exchange_store is None
        system.exchange(engine="sqlite", resident=True)
        assert system.resident

    def test_mode_is_sticky(self, tmp_path):
        for resident, plain in self.pairs(tmp_path):
            # Explicit conflicting arguments are refused...
            with pytest.raises(ExchangeError):
                resident.exchange(engine="sqlite", resident=False)
            with pytest.raises(ExchangeError):
                resident.exchange(engine="memory")
            # ...while unspecified ones continue on the pinned store.
            for system in (resident, plain):
                system.insert_local("A", (3, "sn3", 9))
            r = resident.exchange()
            plain.exchange()
            assert r.engine == "sqlite" and r.rows_mirrored == 1
            assert r.inserted == plain.last_exchange.inserted
            assert resident.exchange(engine="sqlite").rows_mirrored == 0
            # A memory-engine system cannot move to the sqlite engine.
            with pytest.raises(ExchangeError):
                plain.exchange(engine="sqlite")
            with pytest.raises(ExchangeError):
                plain.exchange(resident=True)
            assert plain.exchange_store is None

    def test_deletions_require_an_open_store(self, tmp_path):
        # Deletions are supported on the sqlite engine, but the victim
        # marking and the SQL derivability fixpoint both need the
        # authoritative store — with it closed they must fail loudly
        # instead of silently diverging from the stored instance.
        for resident, _ in self.pairs(tmp_path):
            resident.exchange_store.close()
            with pytest.raises(ExchangeError):
                resident.delete_local("A", (2, "sn1", 5))
            with pytest.raises(ExchangeError):
                resident.delete_local_many("A", [(2, "sn1", 5)])
            with pytest.raises(ExchangeError):
                resident.propagate_deletions()

    def test_closed_memory_store_refuses_every_operation(self, tmp_path):
        # A closed :memory: store took the derived instance with it:
        # nothing can reopen it, and nothing may answer from the empty
        # Python side.
        from repro.cdss.trust import TrustPolicy

        resident, _ = self.build_pair(tmp_path, ":memory:")
        resident.insert_local("A", (3, "sn3", 9))
        resident.exchange_store.close()
        for storage in (None, ":memory:", resident.exchange_store):
            with pytest.raises(ExchangeError):
                resident.exchange(engine="sqlite", storage=storage)
        calls = [
            lambda: resident.delete_local("A", (2, "sn1", 5)),
            resident.propagate_deletions,
            resident.derivability,
            lambda: resident.lineage(None),
            lambda: resident.trusted(TrustPolicy()),
            lambda: resident.query("FOR [O $x] RETURN $x", engine="sqlite"),
            resident.instance_size,
            resident.serving_session,
        ]
        for call in calls:
            with pytest.raises(ExchangeError):
                call()

    def test_memory_store_is_not_servable(self, tmp_path):
        resident, _ = self.build_pair(tmp_path, ":memory:")
        assert resident.resident
        with pytest.raises(ExchangeError, match="in-memory"):
            resident.serving_session()
        with pytest.raises(ExchangeError, match="in-memory"):
            resident.serve()

    def test_graph_queries_answered_relationally(self, tmp_path):
        # The graph is deliberately never built on the sqlite engine;
        # lineage/derivability/trusted are answered by SQL over the
        # stored firing history and must match the graph engine
        # node-for-node — while the graph stays empty.
        from repro.cdss.trust import TrustPolicy

        for resident, plain in self.pairs(tmp_path):
            assert resident.derivability() == plain.derivability()
            for node in plain.graph.tuples:
                assert resident.lineage(node) == plain.lineage(node), node
            policy = TrustPolicy()
            policy.trust_if("A", lambda values: values[2] < 6)
            policy.distrust_mapping("m4")
            assert resident.trusted(policy) == plain.trusted(policy)
            assert resident.graph.size() == (0, 0)
            stats = resident.last_graph_query
            assert stats is not None and stats.engine == "sqlite"
            assert plain.last_graph_query.engine == "memory"

    def test_graph_queries_need_an_open_store(self, tmp_path):
        # Relational queries consult the authoritative store; with it
        # closed they must fail loudly, not answer from nothing.
        for resident, _ in self.pairs(tmp_path):
            resident.exchange_store.close()
            with pytest.raises(ExchangeError):
                resident.derivability()
            with pytest.raises(ExchangeError):
                resident.lineage(None)
            with pytest.raises(ExchangeError):
                resident.trusted(None)

    def test_storage_switch_rejected(self, tmp_path):
        # The store holds the only copy of the derived instance;
        # pointing a later exchange at a different store would silently
        # abandon it.
        for store in STORES:
            resident, _ = self.build_pair(tmp_path, store)
            with pytest.raises(ExchangeError):
                resident.exchange(
                    engine="sqlite",
                    storage=str(tmp_path / "other.db"),
                    resident=True,
                )
            with pytest.raises(ExchangeError):
                resident.exchange(
                    engine="sqlite", storage=ExchangeStore(), resident=True
                )
            # Re-naming the same store (by path or by object) stays legal.
            r = resident.exchange(
                engine="sqlite",
                storage=store_path(tmp_path, store),
                resident=True,
            )
            assert r.rows_mirrored == 0
            resident.exchange(
                engine="sqlite", storage=resident.exchange_store, resident=True
            )

    def test_closed_store_rejected_but_reopenable_by_path(self, tmp_path):
        # Once the pinned store is closed, an exchange must not
        # silently adopt a fresh empty store (that would abandon the
        # only copy of the derived instance) — but the on-disk file
        # still holds the data, so reopening by path continues the
        # incremental run.
        path = str(tmp_path / "resident.db")
        resident, plain = self.build_pair(tmp_path)
        size_before = resident.instance_size()
        resident.exchange_store.close()
        with pytest.raises(ExchangeError):
            resident.exchange(engine="sqlite", resident=True)
        for system in (resident, plain):
            system.insert_local("A", (3, "sn3", 9))
        r = resident.exchange(engine="sqlite", storage=path, resident=True)
        plain.exchange()
        assert r.inserted == plain.last_exchange.inserted
        assert resident.instance_size() > size_before
        assert resident.instance_size() == plain.instance_size()

    def test_aborted_resident_run_recovers_by_full_reseed(self, tmp_path):
        # A run that aborts mid-fixpoint leaves its committed rounds in
        # the store (they cannot be rolled back across round
        # transactions).  Those orphan rows are sound but incomplete —
        # and an incremental retry would dedup them out of the delta,
        # never deriving their consequences.  The dirty-run flag makes
        # the retry re-seed from the full store extension instead, so
        # it converges to the complete fixpoint.
        from repro.errors import EvaluationError

        for resident, plain in self.pairs(tmp_path):
            for system in (resident, plain):
                system.insert_local("A", (3, "sn3", 9))
            program, _ = resident.plan_cache.fetch(resident.program())
            store = resident.exchange_store
            engine = SQLiteExchangeEngine(store)
            with pytest.raises(EvaluationError):
                engine.run(
                    program,
                    resident.catalog,
                    resident.mappings,
                    resident.instance,
                    resident._pending,
                    incremental=True,
                    max_iterations=1,
                )
            assert store.dirty_run
            assert store.count("A_l") == 3
            result = resident.exchange(engine="sqlite", resident=True)
            plain.exchange()
            # The aborted run shipped A(3, sn3, 9); nobody ships it again.
            assert result.rows_mirrored == 0
            assert store.count("A_l") == 3
            assert not store.dirty_run
            assert_store_matches(plain, resident)
            assert resident.instance_size() == plain.instance_size()

    def test_reopen_decodes_persisted_labeled_nulls(self, tmp_path):
        # The codec caching labeled nulls dies with the store
        # connection, but the @sk: encoding is self-describing, so a
        # reopened store decodes persisted nulls on the fly — even in
        # the adversarial registration order where the Skolem-consuming
        # mapping (m2, whose z-Skolem takes m1's y-Skolem as argument)
        # runs before its producer in every round.
        path = str(tmp_path / "resident.db")

        def build():
            system = CDSS(
                [
                    Peer.of(
                        "P",
                        [
                            RelationSchema.of("A", ["a"]),
                            RelationSchema.of("E", ["a"]),
                            RelationSchema.of("B", ["a", "b"]),
                            RelationSchema.of("C", ["a", "b"]),
                        ],
                    )
                ]
            )
            system.add_mapping("m2: C(y, z) :- E(x), B(x, y)", name="m2")
            system.add_mapping("m1: B(x, y) :- A(x)", name="m1")
            system.insert_local("A", (1,))
            return system

        resident, plain = build(), build()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        plain.exchange()
        resident.exchange_store.close()

        for system in (resident, plain):
            system.insert_local("E", (1,))
        resident.exchange(engine="sqlite", storage=path, resident=True)
        plain.exchange()

        # Reconstructed SkolemValues are value-equal to the originals
        # (frozen dataclass), so the reopened store's extension matches
        # the twin exactly, nested Skolem arguments included.
        assert_store_matches(plain, resident)

    def test_reopen_of_deleted_file_rejected(self, tmp_path):
        # Naming the right path is not enough — if the file is gone,
        # reopening would hand back a fresh empty database, silently
        # losing the authoritative instance.
        import os

        path = str(tmp_path / "resident.db")
        resident, _ = self.build_pair(tmp_path)
        resident.exchange_store.close()
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(path + suffix):
                os.remove(path + suffix)
        with pytest.raises(ExchangeError):
            resident.exchange(engine="sqlite", storage=path, resident=True)

    def test_resident_store_upgrades_durability(self, tmp_path):
        # An on-disk store is the only copy of the data, so it trades
        # SQLite's fast pragmas for crash-safe WAL; an in-memory store
        # dies with the process regardless and keeps the fast settings.
        for (resident, _), expected in zip(
            self.pairs(tmp_path), ("wal", "memory")
        ):
            (mode,) = resident.exchange_store.connection.execute(
                "PRAGMA journal_mode"
            ).fetchone()
            assert mode == expected

    def test_store_pinning_is_spelling_insensitive(self, tmp_path, monkeypatch):
        # Relative and absolute spellings of the same file are the same
        # store (paths are normalized at construction and comparison).
        monkeypatch.chdir(tmp_path)
        resident, _ = example_twins()
        insert_example_data(resident)
        resident.exchange(engine="sqlite", storage="resident.db", resident=True)
        r = resident.exchange(
            engine="sqlite",
            storage=str(tmp_path / "resident.db"),
            resident=True,
        )
        assert r.rows_mirrored == 0

    def test_dirty_run_survives_store_reopen(self, tmp_path):
        # The dirty-run flag lives in the store file: an abort followed
        # by close + reopen-by-path (the cross-connection recovery
        # story) must still trigger the full re-seed.
        from repro.errors import EvaluationError

        path = str(tmp_path / "resident.db")
        resident, plain = self.build_pair(tmp_path)
        for system in (resident, plain):
            system.insert_local("A", (3, "sn3", 9))
        program, _ = resident.plan_cache.fetch(resident.program())
        engine = SQLiteExchangeEngine(resident.exchange_store)
        with pytest.raises(EvaluationError):
            engine.run(
                program,
                resident.catalog,
                resident.mappings,
                resident.instance,
                resident._pending,
                incremental=True,
                max_iterations=1,
            )
        resident.exchange_store.close()
        result = resident.exchange(engine="sqlite", storage=path, resident=True)
        plain.exchange()
        assert result.rows_mirrored == 0
        assert resident.exchange_store.count("A_l") == 3
        assert not resident.exchange_store.dirty_run
        assert_store_matches(plain, resident)

    def test_instance_size_rejects_closed_store(self, tmp_path):
        # The Python side is deliberately empty on the sqlite engine,
        # so a closed store must fail loudly instead of reporting ~0.
        for resident, _ in self.pairs(tmp_path):
            resident.exchange_store.close()
            with pytest.raises(ExchangeError):
                resident.instance_size()

    def test_closed_store_rejection_names_the_operation(self, tmp_path):
        for resident, _ in self.pairs(tmp_path):
            resident.exchange_store.close()
            with pytest.raises(ExchangeError, match="lineage"):
                resident.lineage(None)

    def test_resident_exchange_never_rescans_relation_tables(
        self, tmp_path, monkeypatch
    ):
        # rel_counts come from the store's count cache (maintained by
        # ship and publish), so incremental exchanges must not COUNT(*)
        # over relation tables — only over the `__`-prefixed staging
        # tables, whose size is the per-round delta.
        real_count = ExchangeStore.count

        def staging_only(store, table):
            assert table.startswith("__"), (
                f"full COUNT(*) rescan of relation table {table!r}"
            )
            return real_count(store, table)

        for resident, plain in self.pairs(tmp_path):
            with monkeypatch.context() as patch:
                patch.setattr(ExchangeStore, "count", staging_only)
                for system in (resident, plain):
                    system.insert_local("A", (3, "sn3", 9))
                r = resident.exchange(engine="sqlite", resident=True)
                plain.exchange()
            assert r.inserted == plain.last_exchange.inserted


def _mini_topology(kind: str, num_peers: int) -> CDSS:
    """A miniature chain/branched CDSS (2-ary SWISS-PROT-style
    partitions, the benchmark mapping shape)."""
    from repro.workloads.topologies import branched_edges, chain_edges

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


def _seed_topology(system: CDSS, num_peers: int, rows) -> None:
    for peer, k, v in rows:
        for suffix in ("R1", "R2"):
            system.insert_local(f"P{peer % num_peers}_{suffix}", (k, v))


class TestResidentDeletion:
    """Relational deletion propagation: ``delete_local`` +
    ``propagate_deletions`` on the sqlite engine must match the memory
    engine's graph-based propagation tuple for tuple, garbage-collect
    the dead P_m firing-history rows, and leave the store ready for
    further incremental exchanges — on disk and in ``:memory:``."""

    ROWS = [(4, 0, 10), (4, 1, 11), (3, 0, 12), (2, 5, 13)]
    VICTIMS = [(4, 0, 10), (3, 0, 12)]

    def build_twins(self, kind, num_peers, tmp_path, store="disk"):
        memory = _mini_topology(kind, num_peers)
        resident = _mini_topology(kind, num_peers)
        _seed_topology(memory, num_peers, self.ROWS)
        _seed_topology(resident, num_peers, self.ROWS)
        memory.exchange()
        resident.exchange(
            engine="sqlite", storage=store_path(tmp_path, store, f"{kind}.db")
        )
        return memory, resident

    def twins(self, kind, num_peers, tmp_path):
        """One (memory, resident) pair per :data:`STORES` entry."""
        for store in STORES:
            yield self.build_twins(kind, num_peers, tmp_path, store)

    def delete_victims(self, system, num_peers):
        for peer, k, v in self.VICTIMS:
            for suffix in ("R1", "R2"):
                system.delete_local(f"P{peer % num_peers}_{suffix}", (k, v))

    @pytest.mark.parametrize("kind", ["chain", "branched"])
    def test_matches_memory_engine(self, tmp_path, kind):
        num_peers = 5
        for memory, resident in self.twins(kind, num_peers, tmp_path):
            size_before = resident.instance_size()
            self.delete_victims(memory, num_peers)
            self.delete_victims(resident, num_peers)
            removed_memory = memory.propagate_deletions()
            removed_resident = resident.propagate_deletions()
            assert removed_resident == removed_memory > 0
            stats = resident.last_deletion
            assert stats.engine == "sqlite"
            assert stats.rows_deleted == removed_resident
            assert stats.pm_rows_collected > 0
            assert (
                stats.pm_rows_collected
                == memory.last_deletion.pm_rows_collected
            )
            # Store rows, P_m rows and derivations shrink accordingly,
            # and the maintained count cache stays truthful (no
            # COUNT(*) drift).
            assert_store_matches(memory, resident)
            store = resident.exchange_store
            for schema in resident.catalog:
                assert store.cached_count(schema.name) == store.count(
                    schema.name
                ), schema.name
            assert resident.instance_size() < size_before
            assert resident.instance_size() == memory.instance_size()

    @pytest.mark.parametrize("kind", ["chain", "branched"])
    def test_post_delete_incremental_exchange(self, tmp_path, kind):
        num_peers = 4
        for memory, resident in self.twins(kind, num_peers, tmp_path):
            self.delete_victims(memory, num_peers)
            self.delete_victims(resident, num_peers)
            memory.propagate_deletions()
            resident.propagate_deletions()
            extra = [(num_peers - 1, 9, 99)]
            _seed_topology(memory, num_peers, extra)
            _seed_topology(resident, num_peers, extra)
            memory.exchange()
            result = resident.exchange(engine="sqlite", resident=True)
            # The incremental exchange ships only the two pending local
            # rows — deletions must not force full reloads of their
            # relations.
            assert result.rows_mirrored == 2
            assert result.relations_synced == 2
            assert_store_matches(memory, resident)

    def test_cyclic_program_uses_least_fixpoint(self, tmp_path):
        # m1/m3 of the running example form a cycle (C -> N -> C):
        # after the local C contribution dies, the pair supports only
        # itself, and the least fixpoint (like the graph engine's
        # Kleene iteration from all-false) must kill both — a
        # greatest-fixpoint "kill only when every firing has a killed
        # antecedent" sweep would wrongly keep them alive.
        memory, resident = example_twins()
        insert_example_data(memory)
        insert_example_data(resident)
        memory.exchange()
        resident.exchange(
            engine="sqlite", storage=str(tmp_path / "cyc.db"), resident=True
        )
        for system in (memory, resident):
            assert system.delete_local("C", (2, "cn2"))
        assert resident.propagate_deletions() == memory.propagate_deletions()
        store = resident.exchange_store
        assert_store_matches(memory, resident)
        # The cyclic pair died: neither C(2,cn2) nor its m3-companion
        # N(2,cn2,false) survives on its self-support.
        assert (2, "cn2") not in store.relation_rows(resident.catalog["C"])
        assert (2, "cn2", False) not in store.relation_rows(
            resident.catalog["N"]
        )

    def test_pm_gc_matches_graph_projection(self, tmp_path):
        from repro.storage import provenance_rows

        num_peers = 4
        for memory, resident in self.twins("chain", num_peers, tmp_path):
            self.delete_victims(memory, num_peers)
            self.delete_victims(resident, num_peers)
            memory.propagate_deletions()
            resident.propagate_deletions()
            store = resident.exchange_store
            for name, mapping in resident.mappings.items():
                if mapping.is_superfluous or not mapping.provenance_columns:
                    continue
                assert stored_pm_rows(store, mapping) == set(
                    provenance_rows(memory.mappings[name], memory.graph)
                ), name
            assert stored_fires(resident) == graph_fires(memory.graph)

    def test_propagate_without_deletions_is_a_noop(self, tmp_path):
        for _, resident in self.twins("chain", 4, tmp_path):
            size = resident.instance_size()
            assert resident.propagate_deletions() == 0
            assert resident.last_deletion.rows_deleted == 0
            assert resident.last_deletion.pm_rows_collected == 0
            assert resident.instance_size() == size

    def test_delete_of_absent_row_returns_false(self, tmp_path):
        for _, resident in self.twins("chain", 4, tmp_path):
            assert not resident.delete_local("P2_R1", (123, 456))


class TestDeletionStats:
    """Satellite: both engines surface deletion statistics."""

    def test_memory_engine_reports_rows_deleted(self):
        memory, _ = example_twins()
        populate_example(memory)
        assert memory.last_deletion is None
        memory.delete_local("A", (2, "sn1", 5))
        removed = memory.propagate_deletions()
        stats = memory.last_deletion
        assert stats is not None
        assert stats.engine == "memory"
        assert stats.rows_deleted == removed > 0
        assert stats.pm_rows_collected > 0

    def test_nonresident_sqlite_store_pm_is_garbage_collected(self):
        # A default (:memory:) sqlite store garbage-collects its firing
        # history like an on-disk one: P_m holds exactly the memory
        # twin's surviving derivations.
        memory, system = example_twins()
        populate_example(memory)
        insert_example_data(system)
        system.exchange(engine="sqlite")
        for target in (memory, system):
            target.delete_local("A", (2, "sn1", 5))
            target.propagate_deletions()
        assert_store_matches(memory, system)
        assert system.last_deletion.pm_rows_collected > 0
        assert system.last_deletion.pm_rows_collected == (
            memory.last_deletion.pm_rows_collected
        )

    def test_experiment_result_threads_deletion_stats(self, tmp_path):
        from repro.workloads import chain, run_target_query
        from repro.workloads.swissprot import generate_entries

        system = chain(3, base_size=5)
        peer = 2
        victim = generate_entries(5, seed=peer, key_offset=peer * 10_000_000)[0]
        system.delete_local(f"P{peer}_R1", victim.first_row())
        system.delete_local(f"P{peer}_R2", victim.second_row())
        system.propagate_deletions()
        result = run_target_query(system)
        assert result.rows_deleted == system.last_deletion.rows_deleted > 0
        assert result.pm_rows_collected > 0
        assert result.deletion_engine == "memory"

    def test_deletion_through_labeled_nulls(self, tmp_path):
        # Derivations through Skolem heads: deleting A(2) must kill
        # B(2, sk) and D(2, sk) — the liveness fixpoint rebuilds the
        # labeled nulls inside SQL (repro_skolem) so the candidate rows
        # compare equal to the stored ones.
        def build():
            system = CDSS(
                [
                    Peer.of(
                        "P",
                        [
                            RelationSchema.of("A", ["x"]),
                            RelationSchema.of("B", ["x", "y"]),
                            RelationSchema.of("D", ["x", "y"]),
                        ],
                    )
                ]
            )
            system.add_mapping("m1: B(x, y) :- A(x)", name="m1")
            system.add_mapping("m2: D(x, y) :- B(x, y), A(x)", name="m2")
            system.insert_local_many("A", [(1,), (2,)])
            return system

        memory, resident = build(), build()
        memory.exchange()
        resident.exchange(
            engine="sqlite", storage=str(tmp_path / "sk.db"), resident=True
        )
        for system in (memory, resident):
            assert system.delete_local("A", (2,))
        assert resident.propagate_deletions() == memory.propagate_deletions()
        store = resident.exchange_store
        assert_store_matches(memory, resident)
        assert len(store.relation_rows(resident.catalog["D"])) == 1


def build_resident_deletion_pair(tmp_path):
    """Memory twin + resident twin of the running example, exchanged."""
    memory, resident = example_twins()
    insert_example_data(memory)
    insert_example_data(resident)
    memory.exchange()
    resident.exchange(
        engine="sqlite", storage=str(tmp_path / "pair.db"), resident=True
    )
    return memory, resident


class TestResidentGraphQueries:
    """Relational graph queries: ``lineage``/``derivability``/
    ``trusted`` on the sqlite engine must match the graph engine
    node-for-node while never materializing a provenance graph."""

    def test_lineage_through_labeled_nulls(self, tmp_path):
        # The backward walk's head probes must rebuild Skolem head
        # values inside SQL (repro_skolem) so an ancestor row carrying
        # a labeled null matches the firings that produced it.
        def build():
            system = CDSS(
                [
                    Peer.of(
                        "P",
                        [
                            RelationSchema.of("A", ["x"]),
                            RelationSchema.of("B", ["x", "y"]),
                            RelationSchema.of("D", ["x", "y"]),
                        ],
                    )
                ]
            )
            system.add_mapping("m1: B(x, y) :- A(x)", name="m1")
            system.add_mapping("m2: D(x, y) :- B(x, y), A(x)", name="m2")
            system.insert_local_many("A", [(1,), (2,)])
            return system

        memory, resident = build(), build()
        memory.exchange()
        resident.exchange(
            engine="sqlite", storage=str(tmp_path / "sk.db"), resident=True
        )
        for node in memory.graph.tuples:
            assert resident.lineage(node) == memory.lineage(node), node

    def test_trust_kills_cyclic_self_support(self, tmp_path):
        # m1/m3 of the running example form a cycle (C -> N -> C).
        # With the local C contribution distrusted, the cyclic pair has
        # no trusted base left and must annotate untrusted — the trust
        # fixpoint is a least fixpoint, exactly like derivability.
        from repro.cdss.trust import TrustPolicy

        memory, resident = build_resident_deletion_pair(tmp_path)
        policy = TrustPolicy()
        policy.distrust_relation("C")
        memory_verdicts = memory.trusted(policy)
        resident_verdicts = resident.trusted(policy)
        assert resident_verdicts == memory_verdicts
        from repro.provenance.graph import TupleNode

        assert not resident_verdicts[TupleNode("C", (2, "cn2"))]
        assert not resident_verdicts[TupleNode("N", (2, "cn2", False))]

    def test_distrusted_local_rule_and_default_distrust(self, tmp_path):
        from repro.cdss.trust import TrustPolicy

        memory, resident = build_resident_deletion_pair(tmp_path)
        # Distrusting a local-contribution rule unplugs that relation's
        # leaves from everything derived through them.
        policy = TrustPolicy()
        policy.distrust_mapping("L_A")
        assert resident.trusted(policy) == memory.trusted(policy)
        # default_trust=False with no conditions trusts nothing at all.
        nothing = TrustPolicy(default_trust=False)
        memory_verdicts = memory.trusted(nothing)
        resident_verdicts = resident.trusted(nothing)
        assert resident_verdicts == memory_verdicts
        assert not any(resident_verdicts.values())

    def test_queries_work_after_reopen_by_path(self, tmp_path):
        # A store reopened by its path serves queries with a fresh
        # codec: stored rows (labeled nulls included) decode back to
        # nodes equal to the graph engine's.
        path = str(tmp_path / "pair.db")
        memory, resident = build_resident_deletion_pair(tmp_path)
        resident.exchange_store.close()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        assert resident.derivability() == memory.derivability()
        node = sorted(memory.graph.tuples)[0]
        assert resident.lineage(node) == memory.lineage(node)

    def test_pending_inserts_invisible_until_exchange(self, tmp_path):
        # Both engines answer over the last exchange: a queued local
        # insertion has no node yet — the graph raises KeyError and so
        # does the store path (the row is not stored).
        from repro.provenance.graph import TupleNode

        memory, resident = build_resident_deletion_pair(tmp_path)
        row = (7, "sn7", 1)
        node = TupleNode("A_l", row)
        for system in (memory, resident):
            system.insert_local("A", row)
            with pytest.raises(KeyError):
                system.lineage(node)
        for system, kwargs in (
            (memory, {}),
            (resident, {"engine": "sqlite", "resident": True}),
        ):
            system.exchange(**kwargs)
        assert resident.lineage(node) == memory.lineage(node) == frozenset(
            [node]
        )

    def test_query_stats_are_recorded(self, tmp_path):
        memory, resident = build_resident_deletion_pair(tmp_path)
        resident.derivability()
        stats = resident.last_graph_query
        assert stats.engine == "sqlite"
        assert stats.iterations > 0
        assert stats.pm_rows_scanned > 0
        node = sorted(memory.graph.tuples_in("O"))[0]
        resident.lineage(node)
        lineage_stats = resident.last_graph_query
        assert lineage_stats.iterations > 0
        assert lineage_stats.pm_rows_scanned > 0
        memory.derivability()
        assert memory.last_graph_query.engine == "memory"

    def test_queries_clear_work_tables(self, tmp_path):
        # Ancestor closures and live sets can rival the instance in
        # size; they must not linger after the answer is read.  The
        # indexed paths are pure SELECTs and stage nothing; deletion
        # pruning empties its __rq_* temp tables itself; the legacy
        # paths keep their per-relation work-table contract.
        from repro.exchange.graph_queries import StoreGraphQueries
        from repro.exchange.reach_index import _PRUNE_TEMPS
        from repro.exchange.sql_plans import LINEAGE, LIVENESS

        memory, resident = build_resident_deletion_pair(tmp_path)
        resident.delete_local("A", (1, "sn1", 7))
        resident.propagate_deletions()
        node = sorted(resident.derivability())[0]
        resident.lineage(node)
        store = resident.exchange_store
        for table, _column in _PRUNE_TEMPS:
            assert store.count(table) == 0, table
        program, _ = resident.plan_cache.fetch(resident.program())
        legacy = StoreGraphQueries(
            store,
            program,
            resident.catalog,
            resident.mappings,
            use_index=False,
        )
        legacy.lineage(node)
        legacy.derivability()
        for relation in program.lineage.relations:
            assert store.count(LINEAGE.target + relation) == 0, relation
        for relation in program.derivability.relations:
            assert store.count(LIVENESS.target + relation) == 0, relation

    def test_lowerings_are_cached_on_the_program(self, tmp_path):
        # Repeated queries over an unchanged program lower nothing new:
        # the lineage and liveness lowerings attach to the cache entry.
        memory, resident = build_resident_deletion_pair(tmp_path)
        node = sorted(memory.graph.tuples_in("O"))[0]
        resident.lineage(node)
        resident.derivability()
        program, hit = resident.plan_cache.fetch(resident.program())
        assert hit
        lineage_sql = program.lineage
        derivability_sql = program.derivability
        resident.lineage(node)
        resident.derivability()
        program, _ = resident.plan_cache.fetch(resident.program())
        assert program.lineage is lineage_sql
        assert program.derivability is derivability_sql

    def test_queries_survive_catalog_growth(self, tmp_path):
        # add_peer/add_mapping after a resident exchange must not break
        # queries: the new (empty) tables are created idempotently, and
        # un-exchanged additions contribute no nodes — matching the
        # graph engine, whose graph also only grows at exchange time.
        memory, resident = build_resident_deletion_pair(tmp_path)
        for system in (memory, resident):
            system.add_peer(Peer.of("P4", [RelationSchema.of("Z", ["x"])]))
            system.add_mapping("m9: Z(i) :- C(i, n)", name="m9")
        assert resident.derivability() == memory.derivability()
        node = sorted(memory.graph.tuples_in("C"))[0]
        assert resident.lineage(node) == memory.lineage(node)
        from repro.cdss.trust import TrustPolicy

        assert resident.trusted(TrustPolicy()) == memory.trusted(
            TrustPolicy()
        )

    def test_trust_seeding_streams_in_batches(self, tmp_path, monkeypatch):
        # Leaf-conditioned relations seed the trust fixpoint without
        # materializing their extension: force a tiny batch size and
        # the verdicts must still match the graph engine.
        from repro.cdss.trust import TrustPolicy
        from repro.exchange.graph_queries import StoreGraphQueries

        memory, resident = build_resident_deletion_pair(tmp_path)
        monkeypatch.setattr(StoreGraphQueries, "SEED_BATCH", 1)
        policy = TrustPolicy()
        policy.trust_if("A", lambda values: values[2] < 6)
        assert resident.trusted(policy) == memory.trusted(policy)


@contextlib.contextmanager
def traced_statements(connection):
    """Every SQL statement *connection* runs inside the block."""
    statements: list[str] = []
    connection.set_trace_callback(statements.append)
    try:
        yield statements
    finally:
        connection.set_trace_callback(None)


class TestFixpointRounds:
    """Exchange, deletion liveness and the unindexed graph queries run
    on one semi-naive round driver over one work-table scheme: warm
    calls issue no DDL, a round only touches the candidate tables of
    relations it can fill, and an aborted run leaves nothing behind."""

    NUM_PEERS = 5

    def build(self, tmp_path):
        from repro.exchange.graph_queries import StoreGraphQueries

        resident = _mini_topology("branched", self.NUM_PEERS)
        _seed_topology(resident, self.NUM_PEERS, TestResidentDeletion.ROWS)
        resident.exchange(
            engine="sqlite", storage=str(tmp_path / "rounds.db"), resident=True
        )
        program, _ = resident.plan_cache.fetch(resident.program())
        oracle = StoreGraphQueries(
            resident.exchange_store,
            program,
            resident.catalog,
            resident.mappings,
            use_index=False,
        )
        return resident, program, oracle

    def test_warm_calls_issue_no_ddl(self, tmp_path):
        from repro.cdss.trust import TrustPolicy
        from repro.provenance.graph import TupleNode

        resident, _program, oracle = self.build(tmp_path)
        node = TupleNode("P0_R1", (0, 10))
        policy = TrustPolicy()
        policy.distrust_mapping("m1")
        calls = {
            "propagate": resident.propagate_deletions,
            "lineage": lambda: oracle.lineage(node),
            "derivability": oracle.derivability,
            "trusted": lambda: oracle.trusted(policy),
        }
        connection = resident.exchange_store.connection
        for name, call in calls.items():
            call()
            with traced_statements(connection) as statements:
                call()
            ddl = [s for s in statements if s.lstrip().upper().startswith("CREATE")]
            assert ddl == [], name
            assert statements, name

    @pytest.mark.parametrize("computation", ["exchange", "propagate", "lineage"])
    def test_rounds_touch_only_fillable_candidate_tables(
        self, tmp_path, computation
    ):
        from repro.provenance.graph import TupleNode

        resident, program, oracle = self.build(tmp_path)
        node = TupleNode("P0_R1", (0, 10))
        if computation == "exchange":
            fsql = program.sql

            def run():
                _seed_topology(resident, self.NUM_PEERS, [(4, 7, 70)])
                resident.exchange(engine="sqlite", resident=True)
        elif computation == "propagate":
            resident.propagate_deletions()
            fsql = program.derivability

            def run():
                TestResidentDeletion().delete_victims(resident, self.NUM_PEERS)
                assert resident.propagate_deletions() > 0
        else:
            oracle.lineage(node)
            fsql = program.lineage

            def run():
                assert oracle.lineage(node)[1].iterations > 1

        idle = [r for r in fsql.relations if r not in fsql.stages]
        assert idle, "no relation without candidates: the check is vacuous"
        with traced_statements(resident.exchange_store.connection) as statements:
            run()
        kind = fsql.kind
        for relation in idle:
            for table in (kind.new + relation, kind.cand + relation):
                named = [s for s in statements if quote_identifier(table) in s]
                assert named == [], table

    @pytest.mark.parametrize(
        "computation", ["propagate", "lineage", "derivability", "trusted"]
    )
    def test_aborted_run_clears_work_tables(self, tmp_path, computation):
        # An error mid-fixpoint must not leave instance-sized work
        # tables populated on disk (resident stores exist precisely for
        # working sets that dwarf memory), nor a transaction open.
        from repro.cdss.trust import TrustPolicy
        from repro.errors import EvaluationError
        from repro.exchange.graph_queries import StoreGraphQueries

        memory, resident = build_resident_deletion_pair(tmp_path)
        store = resident.exchange_store
        program, _ = resident.plan_cache.fetch(resident.program())
        oracle = StoreGraphQueries(
            store, program, resident.catalog, resident.mappings, use_index=False
        )
        node = sorted(memory.graph.tuples_in("O"))[0]
        policy = TrustPolicy()
        policy.distrust_relation("C")
        if computation == "propagate":
            for system in (memory, resident):
                system.delete_local("A", (2, "sn1", 5))
        engine = SQLiteExchangeEngine(store)
        # computation -> (resident run, memory twin, error message)
        cases = {
            "propagate": (
                lambda limit: engine.propagate_deletions(
                    program,
                    resident.catalog,
                    resident.mappings,
                    resident.instance,
                    {},
                    max_iterations=limit,
                ).rows_deleted,
                memory.propagate_deletions,
                "derivability fixpoint did not converge",
            ),
            "lineage": (
                lambda limit: oracle.lineage(node, limit)[0],
                lambda: memory.lineage(node),
                "lineage walk did not converge",
            ),
            "derivability": (
                lambda limit: oracle.derivability(limit)[0],
                memory.derivability,
                "derivability fixpoint did not converge",
            ),
            "trusted": (
                lambda limit: oracle.trusted(policy, limit)[0],
                lambda: memory.trusted(policy),
                "derivability fixpoint did not converge",
            ),
        }
        run, expected, message = cases[computation]
        with pytest.raises(EvaluationError, match=message):
            run(0)
        fsql = program.lineage if computation == "lineage" else program.derivability
        for table, _columns, _filled in fsql.work_tables(resident.catalog):
            assert store.count(table) == 0, table
        assert not store.connection.in_transaction
        # The store is undamaged: a retry equals the memory twin.
        assert run(None) == expected()
        for schema in resident.catalog:
            assert store.relation_rows(schema) == set(
                memory.instance[schema.name]
            ), schema.name
