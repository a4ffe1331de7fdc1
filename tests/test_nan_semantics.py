"""NaN joins by value on every engine (docs/architecture.md).

SQLite cannot store a bound NaN, so the codec tags non-finite floats
as ``@float:`` strings — under which NaN compares equal to itself.
The memory engine must not diverge with IEEE ``nan != nan`` joins:
every NaN entering the system is canonicalized to the single
``CANONICAL_NAN`` object, making it an ordinary self-equal join key
on both substrates."""

import math

import pytest

from repro.cdss import CDSS, Peer
from repro.relational import RelationSchema
from repro.storage.encoding import CANONICAL_NAN, canonical_row

from store_state import assert_store_matches


def nan_join_twins():
    """Two CDSS twins whose only derivation joins on a NaN key —
    each insert carries a *fresh* NaN object, the adversarial case."""
    out = []
    for _ in range(2):
        system = CDSS(
            [
                Peer.of(
                    "P",
                    [
                        RelationSchema.of("A", [("x", "float"), "tag"]),
                        RelationSchema.of("B", [("x", "float"), "tag"]),
                        RelationSchema.of("J", [("x", "float")]),
                    ],
                )
            ]
        )
        system.add_mappings(["mj: J(x) :- A(x, _), B(x, _)"])
        system.insert_local("A", (float("nan"), 1))
        system.insert_local("B", (float("nan"), 2))
        system.insert_local("A", (1.5, 3))
        system.insert_local("B", (1.5, 4))
        out.append(system)
    return out


def test_canonical_row_funnels_every_nan():
    row = canonical_row((float("nan"), 1, "x", float("nan")))
    assert row[0] is CANONICAL_NAN and row[3] is CANONICAL_NAN
    assert row[1:3] == (1, "x")


def test_nan_joins_identically_on_both_engines(tmp_path):
    memory, sqlite = nan_join_twins()
    memory.exchange()
    sqlite.exchange(engine="sqlite", storage=str(tmp_path / "nan.db"))
    # The NaN keys join on BOTH engines: two derived J rows.
    stored = sqlite.exchange_store.relation_rows(sqlite.catalog["J"])
    for joined in (memory.instance["J"], stored):
        assert len(joined) == 2
        assert any(math.isnan(row[0]) for row in joined)
    assert_store_matches(memory, sqlite)


def test_nan_lifecycle_matches_in_resident_mode(tmp_path):
    memory, resident = nan_join_twins()
    memory.exchange()
    resident.exchange(
        engine="sqlite", storage=str(tmp_path / "nan.db"), resident=True
    )
    store = resident.exchange_store
    for schema in resident.catalog:
        assert store.relation_rows(schema) == {
            canonical_row(row) for row in memory.instance[schema.name]
        }, schema.name
    # A freshly-constructed NaN deletes the row the first NaN inserted,
    # and the join partner dies with it on both engines.
    for system in (memory, resident):
        assert system.delete_local("A", (float("nan"), 1))
    assert memory.propagate_deletions() == resident.propagate_deletions()
    for schema in resident.catalog:
        assert store.relation_rows(schema) == {
            canonical_row(row) for row in memory.instance[schema.name]
        }, schema.name
    assert len(memory.instance["J"]) == 1


def nan_store(tmp_path):
    """A memory twin and the path of a closed store holding the
    exchanged NaN-join system."""
    path = str(tmp_path / "nan.db")
    memory, resident = nan_join_twins()
    memory.exchange()
    resident.exchange(engine="sqlite", storage=path)
    resident.exchange_store.close()
    return memory, resident, path


def test_nan_carrying_replay_adopts_the_store(tmp_path):
    # A fresh system replaying the same local rows, each NaN a fresh
    # object, finds every row already stored: the decoded NaN is the
    # canonical one, so nothing is refused and nothing is shipped.
    # The replay reuses the parsed mapping: see the test below.
    memory, resident, path = nan_store(tmp_path)
    replay = CDSS(resident.peers.values())
    replay.add_mapping(resident.mappings["mj"])
    for row in ((float("nan"), 1), (1.5, 3)):
        replay.insert_local("A", row)
    for row in ((float("nan"), 2), (1.5, 4)):
        replay.insert_local("B", row)
    result = replay.exchange(engine="sqlite", storage=path)
    assert result.rows_mirrored == 0
    assert replay.exchange_store.count("A_l") == 2
    assert_store_matches(memory, replay)


@pytest.mark.xfail(
    strict=True,
    reason="a P_m column of a wildcard is named by a process-wide "
    "counter, so the same mapping text parsed again in this process "
    "names other columns than the store holds",
)
def test_replay_reparsing_wildcard_mapping_adopts_the_store(tmp_path):
    memory, _, path = nan_store(tmp_path)
    replay, _ = nan_join_twins()
    replay.exchange(engine="sqlite", storage=path)
    assert_store_matches(memory, replay)


def test_repeated_variable_matches_nan_on_both_engines(tmp_path):
    # A repeated body variable compares values scalar-wise in the
    # memory engine's plan checks — identity-first, so the canonical
    # NaN satisfies D(x) :- A(x, x) just as the SQL tag equality does.
    twins = []
    for _ in range(2):
        system = CDSS(
            [
                Peer.of(
                    "P",
                    [
                        RelationSchema.of("A", [("x", "float"), ("y", "float")]),
                        RelationSchema.of("D", [("x", "float")]),
                    ],
                )
            ]
        )
        system.add_mappings(["md: D(x) :- A(x, x)"])
        system.insert_local("A", (float("nan"), float("nan")))
        system.insert_local("A", (float("nan"), 2.0))
        twins.append(system)
    memory, sqlite = twins
    memory.exchange()
    sqlite.exchange(engine="sqlite", storage=str(tmp_path / "rep.db"))
    assert len(memory.instance["D"]) == 1
    assert len(sqlite.exchange_store.relation_rows(sqlite.catalog["D"])) == 1
    assert_store_matches(memory, sqlite)


def test_stored_nan_decodes_to_the_canonical_object(tmp_path):
    _, resident = nan_join_twins()
    resident.exchange(
        engine="sqlite", storage=str(tmp_path / "nan.db"), resident=True
    )
    rows = resident.exchange_store.relation_rows(resident.catalog["J"])
    nan_row = next(row for row in rows if math.isnan(row[0]))
    assert nan_row[0] is CANONICAL_NAN
