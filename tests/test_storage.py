"""Tests for the SQLite storage layer and the Figure 2 encoding."""

import pytest

from repro.datalog.terms import SkolemValue
from repro.errors import StorageError
from repro.relational import RelationSchema
from repro.storage import SQLiteStorage, ValueCodec, provenance_rows
from repro.storage.encoding import quote_identifier
from repro.storage.provrel import binding_of


class TestValueCodec:
    def test_scalar_roundtrip(self):
        codec = ValueCodec()
        schema = RelationSchema.of(
            "R", ["i", ("s", "str"), ("f", "float"), ("b", "bool")]
        )
        row = (1, "x", 2.5, True)
        encoded = codec.encode_row(row)
        assert encoded == (1, "x", 2.5, 1)
        assert codec.decode_row(encoded, schema) == row

    def test_skolem_interning(self):
        codec = ValueCodec()
        value = SkolemValue("f", (1, "a"))
        encoded = codec.encode(value)
        assert isinstance(encoded, str) and encoded.startswith("@sk:")
        assert codec.decode(encoded, "int") is value

    def test_unknown_skolem_rejected(self):
        codec = ValueCodec()
        with pytest.raises(StorageError):
            codec.decode("@sk:f(9)", "int")

    def test_skolem_encoding_is_self_describing(self):
        # A fresh codec (new connection/process over a reopened store)
        # reconstructs labeled nulls — nested arguments included — from
        # the canonical encoding alone, value-equal to the originals.
        inner = SkolemValue("g", (1, "a", None, True))
        outer = SkolemValue("f", (inner, 2.5))
        encoded = ValueCodec().encode(outer)
        fresh = ValueCodec()
        decoded = fresh.decode(encoded, "str")
        assert decoded == outer
        assert decoded.args[0] == inner
        # The rebuilt value re-encodes to the identical string, so SQL
        # joins keep working across the reopen.
        assert fresh.encode(decoded) == encoded
        # And the fresh codec caches one object per distinct null.
        assert fresh.decode(encoded, "str") is decoded

    def test_unstorable_type_rejected(self):
        with pytest.raises(StorageError):
            ValueCodec().encode(object())

    def test_decode_arity_check(self):
        codec = ValueCodec()
        schema = RelationSchema.of("R", ["a", "b"])
        with pytest.raises(StorageError):
            codec.decode_row((1,), schema)

    def test_quote_identifier_rejects_quotes(self):
        with pytest.raises(StorageError):
            quote_identifier('a"b')


class TestValueCodecEdgeValues:
    """Edge values must survive the SQLite encoding exactly: None,
    non-ASCII strings, ints beyond SQLite's 64-bit range, floats, and
    strings colliding with the codec's own tag prefixes."""

    EDGE_VALUES = [
        None,
        "héllo wörld — ünïcode ✓",
        "文字列",
        2**70,
        -(2**70),
        2**63 - 1,
        -(2**63),
        2.5,
        -0.0,
        1e308,
        float("inf"),
        float("-inf"),
        "@float:nan",
        "@sk:looks_like_a_skolem",
        "@int:123",
        "@str:@str:nested",
        True,
        False,
    ]

    def test_sqlite_roundtrip(self):
        import sqlite3

        codec = ValueCodec()
        connection = sqlite3.connect(":memory:")
        # Typeless column: no affinity coercion, as in the exchange store.
        connection.execute("CREATE TABLE t (i, v)")
        connection.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(i, codec.encode(v)) for i, v in enumerate(self.EDGE_VALUES)],
        )
        for i, raw in connection.execute("SELECT i, v FROM t ORDER BY i"):
            expected = self.EDGE_VALUES[i]
            type_ = "bool" if isinstance(expected, bool) else "any"
            decoded = codec.decode(raw, type_)
            assert decoded == expected, expected
            assert type(decoded) is type(expected), expected

    def test_large_int_encoding_is_joinable(self):
        codec = ValueCodec()
        assert codec.encode(2**70) == codec.encode(2**70)
        assert codec.encode(2**70) != codec.encode(2**70 + 1)

    def test_nan_roundtrips_and_is_not_null(self):
        """SQLite stores a raw bound NaN as NULL; the @float: tag keeps
        NaN distinct from None through a typeless column."""
        import math
        import sqlite3

        codec = ValueCodec()
        encoded = codec.encode(float("nan"))
        assert encoded == "@float:nan"  # never reaches the binder raw
        connection = sqlite3.connect(":memory:")
        connection.execute("CREATE TABLE t (v)")
        connection.execute("INSERT INTO t VALUES (?)", (encoded,))
        (raw,) = connection.execute("SELECT v FROM t").fetchone()
        assert raw is not None
        decoded = codec.decode(raw, "float")
        assert isinstance(decoded, float) and math.isnan(decoded)
        # Sanity-check the failure mode being fixed: an untagged NaN
        # really does come back as NULL.
        connection.execute("INSERT INTO t VALUES (?)", (float("nan"),))
        assert connection.execute(
            "SELECT count(*) FROM t WHERE v IS NULL"
        ).fetchone() == (1,)

    def test_nonfinite_floats_through_exchange_both_engines(self):
        """NaN/±inf survive exchange — including P_m rows built inside
        SQL — under both engines, without collapsing into None."""
        import math

        from repro.cdss import CDSS, Peer

        nan = float("nan")
        values = [nan, float("inf"), float("-inf"), 2.5]

        def build():
            system = CDSS(
                [
                    Peer.of(
                        "P",
                        [
                            RelationSchema.of("R", [("k", "float")]),
                            RelationSchema.of("S", [("k", "float")]),
                            RelationSchema.of("T", [("k", "float")]),
                        ],
                    )
                ]
            )
            system.add_mapping("m: T(k) :- R(k), S(k)", name="m")
            system.insert_local_many("R", [(v,) for v in values])
            system.insert_local_many("S", [(v,) for v in values])
            return system

        for engine in ("memory", "sqlite"):
            system = build()
            system.exchange(engine=engine)
            rows = (
                system.instance["T"]
                if engine == "memory"
                else system.exchange_store.relation_rows(system.catalog["T"])
            )
            derived = [row[0] for row in rows]
            assert None not in derived, engine
            assert sum(1 for v in derived if math.isnan(v)) == 1, engine
            assert float("inf") in derived and float("-inf") in derived

        # P_m rows: written by SQL in the sqlite engine, decoded back.
        system = build()
        system.exchange(engine="sqlite")
        store = system.exchange_store
        mapping = system.mappings["m"]
        decoded = [
            store.codec.decode(value, column.type)
            for row in store.connection.execute('SELECT * FROM "P_m"')
            for value, column in zip(row, mapping.provenance_columns)
        ]
        assert None not in decoded
        assert sum(1 for v in decoded if math.isnan(v)) == 1

    def test_edge_values_through_provenance_rows(self, tmp_path):
        """Edge values flow through exchange, into P_m rows on disk,
        and decode back out unchanged."""
        from repro.cdss import CDSS, Peer

        keys = ["héllo", "@sk:fake", "文字列", 2**70, None]
        system = CDSS(
            [
                Peer.of(
                    "P",
                    [
                        RelationSchema.of("R", [("k", "str")]),
                        RelationSchema.of("S", [("k", "str")]),
                        RelationSchema.of("T", [("k", "str")]),
                    ],
                )
            ]
        )
        system.add_mapping("m: T(k) :- R(k), S(k)", name="m")
        system.insert_local_many("R", [(k,) for k in keys])
        system.insert_local_many("S", [(k,) for k in keys])
        system.exchange()
        with SQLiteStorage(system, str(tmp_path / "edge.db")) as storage:
            storage.load()
            mapping = system.mappings["m"]
            schema = mapping.provenance_schema()
            decoded = {
                storage.codec.decode_row(row, schema)[0]
                for row in storage.query('SELECT * FROM "P_m"')
            }
        assert decoded == set(keys)


class TestProvenanceRelations:
    def test_figure2_contents(self, example_storage):
        assert example_storage.query(
            'SELECT * FROM "P_m1" ORDER BY 1, 2'
        ) == [(1, "cn1"), (2, "cn2")]
        assert example_storage.query(
            'SELECT * FROM "P_m5" ORDER BY 1, 2'
        ) == [(1, "cn1"), (2, "cn2")]

    def test_base_tables_loaded(self, example_storage):
        assert example_storage.table_size("O") == 4
        assert example_storage.table_size("A_l") == 2

    def test_reload_is_idempotent(self, example_storage):
        first = example_storage.table_size("P_m1")
        example_storage.load()
        assert example_storage.table_size("P_m1") == first

    def test_prepare_storage_twice_on_disk(self, example_cdss, tmp_path):
        path = str(tmp_path / "cdss.db")
        with SQLiteStorage(example_cdss, path) as storage:
            storage.load()
            size = storage.table_size("O")
        # Re-opening the same file re-runs the DDL over existing tables.
        with SQLiteStorage(example_cdss, path) as storage:
            storage.load()
            assert storage.table_size("O") == size

    def test_close_is_idempotent(self, example_cdss):
        storage = SQLiteStorage(example_cdss)
        storage.load()
        storage.close()
        storage.close()

    def test_context_manager_closes(self, example_cdss):
        import sqlite3

        with SQLiteStorage(example_cdss) as storage:
            storage.load()
        with pytest.raises(sqlite3.ProgrammingError):
            storage.connection.execute("SELECT 1")

    def test_bad_sql_raises_storage_error(self, example_storage):
        with pytest.raises(StorageError):
            example_storage.query("SELECT * FROM nope")


class TestBindingRecovery:
    def test_binding_of_derivation(self, example_cdss):
        mapping = example_cdss.mappings["m5"]
        derivation = next(
            d
            for d in example_cdss.graph.derivations
            if d.mapping == "m5" and d.targets[0].values[0] == "cn2"
        )
        binding = binding_of(mapping, derivation)
        named = {var.name: value for var, value in binding.items()}
        assert named["i"] == 2
        assert named["n"] == "cn2"
        assert named["h"] == 5

    def test_provenance_rows_roundtrip(self, example_cdss):
        mapping = example_cdss.mappings["m1"]
        rows = sorted(provenance_rows(mapping, example_cdss.graph))
        assert rows == [(1, "cn1"), (2, "cn2")]

    def test_binding_of_wrong_mapping_rejected(self, example_cdss):
        mapping = example_cdss.mappings["m1"]
        derivation = next(
            d for d in example_cdss.graph.derivations if d.mapping == "m5"
        )
        with pytest.raises(StorageError):
            binding_of(mapping, derivation)


class TestOneEncoding:
    """``prepare_storage`` over a memory system writes exactly the
    tables a resident exchange of the same system keeps."""

    @pytest.mark.parametrize("topology", ["chain", "branched"])
    def test_loaded_store_matches_resident_store(self, topology, tmp_path):
        from repro.workloads import branched, chain, prepare_storage

        build = {"chain": chain, "branched": branched}[topology]
        memory = build(4, base_size=6)
        resident = build(
            4,
            base_size=6,
            engine="sqlite",
            exchange_path=str(tmp_path / "store.db"),
            resident=True,
        )
        schemas = list(memory.catalog) + [
            m.provenance_schema()
            for m in memory.mappings.values()
            if m.stores_provenance
        ]
        with prepare_storage(memory) as storage:
            stores = (storage.store, resident.exchange_store)
            for schema in schemas:
                table = quote_identifier(schema.name)
                columns, contents = [], []
                for store in stores:
                    columns.append(
                        [
                            row[1:3]
                            for row in store.connection.execute(
                                f"PRAGMA table_info({table})"
                            )
                        ]
                    )
                    contents.append(
                        sorted(
                            (
                                store.codec.decode_row(row, schema)
                                for row in store.connection.execute(
                                    f"SELECT * FROM {table}"
                                )
                            ),
                            key=repr,
                        )
                    )
                assert columns[0] == columns[1], schema.name
                assert contents[0] == contents[1], schema.name
                assert contents[0] or schema.name.endswith("_l"), schema.name
        resident.exchange_store.close()
