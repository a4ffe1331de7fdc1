"""Deletion propagation over the pending cone of the reachability index.

A resident ``propagate_deletions`` walks the forward cone of the roots
its targeted deletions recorded, when the store says that is exact
(the roots marker is set, the index is current, no deleted row is
pending again); otherwise it re-derives the whole store through the
SQL ``LIVENESS`` fixpoint.  The differential property below runs twin
stores through the same operations, one of them forced onto the full
fixpoint by deleting the marker before every propagation, and a memory
twin beside them: both stores must agree on every relation, ``P_m``,
the fire/body sets (which must equal a rebuild from the store) and the
deletion statistics, and equal the memory twin wherever the semantics
allow.  The running example is cyclic (m1/m3), so deleting ``C(2,
'cn2')`` leaves a self-supporting pair that must die.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import ReinsertWindowError
from repro.obs.trace import MemorySink, Tracer
from repro.provenance.graph import TupleNode
from repro.relational.schema import is_local_name

from store_state import (
    assert_store_matches,
    index_edges,
    stored_fires,
    stored_pm_rows,
)
from test_serve import build_example

#: local rows the operations draw from: the running example's four plus
#: rows that share keys with them (A is keyed by id, so two A rows with
#: id 2 project onto the same ``P_m`` keys) and fresh ones.
UNIVERSE = [
    ("A", (1, "sn1", 7)),
    ("A", (2, "sn1", 5)),
    ("N", (1, "cn1", False)),
    ("C", (2, "cn2")),
    ("A", (2, "sn2", 5)),
    ("A", (3, "sn3", 9)),
    ("C", (1, "cn1")),
    ("C", (3, "cn3")),
    ("N", (3, "sn3", True)),
    ("N", (2, "cn2", False)),
    # derives N(2,'cn2',True), which shares m1's P_m key (2,'cn2') with
    # the N(2,'cn2',False) that m1's body constant asks for.
    ("A", (2, "cn2", 3)),
]


def fixpoint_path(sink):
    """The ``path`` attribute of the last ``deletion.fixpoint`` span."""
    spans = [r for r in sink.records() if r["name"] == "deletion.fixpoint"]
    return spans[-1]["attrs"]["path"]


class Model:
    """Which local rows are stored, pending and removed — the state
    that decides the refusal window and the propagation path."""

    def __init__(self):
        self.stored = set()
        self.pending = {row for row in UNIVERSE[:4]}
        self.removed = set()
        self.marker = True

    def insert(self, row):
        if row not in self.stored and row not in self.pending:
            self.pending.add(row)

    def delete(self, row):
        if row in self.pending:
            self.pending.discard(row)
        elif row in self.stored:
            self.stored.discard(row)
            self.removed.add(row)

    def exchange(self):
        self.stored |= self.pending
        self.pending = set()

    def propagate(self):
        """The path the next propagation must take; advances the
        state past it."""
        reinserted = self.removed & self.pending
        path = "cone" if self.marker and not reinserted else "full"
        self.marker = not reinserted
        self.removed = reinserted
        return path

    @property
    def window(self):
        return bool(self.removed & self.pending)


def assert_twin_stores_agree(cone, full):
    a, b = cone.exchange_store, full.exchange_store
    for schema in cone.catalog:
        assert a.relation_rows(schema) == b.relation_rows(schema), schema.name
    for name, mapping in cone.mappings.items():
        if mapping.stores_provenance:
            assert stored_pm_rows(a, mapping) == stored_pm_rows(b, mapping)
    assert stored_fires(cone) == stored_fires(full)
    for system in (cone, full):
        store = system.exchange_store
        edges = index_edges(store)
        program, _ = system.plan_cache.fetch(system.program())
        with store.connection:
            store.reach_index.rebuild_from_store(program.reach)
        assert index_edges(store) == edges


ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, len(UNIVERSE) - 1)),
        st.tuples(st.just("delete"), st.integers(0, len(UNIVERSE) - 1)),
        st.tuples(st.just("exchange"), st.just(0)),
        st.tuples(st.just("propagate"), st.just(0)),
        st.tuples(st.just("query"), st.just(0)),
    ),
    max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(operations=ops)
# The re-insert sequence: propagating with the row pending again keeps
# its consequences, and the next deletion must not trust a cone.
@example(
    operations=[
        ("delete", 1), ("insert", 1), ("propagate", 0),
        ("delete", 1), ("propagate", 0),
    ]
)
# Cyclic self-support: C(2,'cn2') and N(2,'cn2',False) derive each
# other through m1/m3 once the C leaf is gone, and must both die.
@example(operations=[("delete", 3), ("propagate", 0)])
# ... and with N(2,'cn2',True) beside it: m1's P_m row (2,'cn2') must
# still go, since m1 asks for N(i, n, false).
@example(
    operations=[
        ("insert", 10), ("exchange", 0), ("delete", 3), ("propagate", 0),
    ]
)
@example(
    operations=[
        ("insert", 4), ("exchange", 0), ("delete", 1), ("query", 0),
        ("propagate", 0), ("delete", 4), ("propagate", 0),
    ]
)
def test_cone_path_equals_full_fixpoint(tmp_path_factory, operations):
    tmp = tmp_path_factory.mktemp("cone")
    memory, cone, full = build_example(), build_example(), build_example()
    sink = MemorySink()
    cone.tracer = Tracer(sink)
    memory.exchange()
    cone.exchange(engine="sqlite", storage=str(tmp / "cone.db"))
    full.exchange(engine="sqlite", storage=str(tmp / "full.db"))
    model = Model()
    model.exchange()
    systems = (memory, cone, full)
    for op, arg in operations:
        if op == "insert":
            for system in systems:
                system.insert_local(*UNIVERSE[arg])
            model.insert(UNIVERSE[arg])
        elif op == "delete":
            for system in systems:
                system.delete_local(*UNIVERSE[arg])
            model.delete(UNIVERSE[arg])
        elif op == "exchange":
            for system in systems:
                system.exchange()
            model.exchange()
        elif op == "query":
            if model.window:
                for system in (cone, full):
                    with pytest.raises(ReinsertWindowError, match="_l"):
                        system.derivability()
            else:
                assert cone.derivability() == full.derivability()
        else:
            full.exchange_store.reach_index.set_roots_complete(False)
            expected_path = model.propagate()
            removed = memory.propagate_deletions()
            assert cone.propagate_deletions() == full.propagate_deletions()
            assert fixpoint_path(sink) == expected_path
            for field in ("rows_deleted", "pm_rows_collected"):
                assert getattr(cone.last_deletion, field) == getattr(
                    full.last_deletion, field
                ), field
            assert_twin_stores_agree(cone, full)
            store = cone.exchange_store
            for schema in cone.catalog:
                if not is_local_name(schema.name):
                    assert store.relation_rows(schema) == set(
                        memory.instance[schema.name]
                    ), schema.name
            if model.window:
                continue
            assert cone.last_deletion.rows_deleted == removed
            verdicts = cone.derivability()
            assert all(verdicts.values())
            assert verdicts == memory.derivability()
            if not model.pending:
                assert_store_matches(memory, cone)
                assert cone.last_deletion.pm_rows_collected == (
                    memory.last_deletion.pm_rows_collected
                )


class TestReinsertWindow:
    """A local row deleted from the store and inserted again is a live
    leaf to the memory engine but absent from the store until an
    exchange ships it; the writer's graph queries refuse meanwhile."""

    def build(self, tmp_path):
        memory, resident = build_example(), build_example()
        memory.exchange()
        resident.exchange(engine="sqlite", storage=str(tmp_path / "w.db"))
        for system in (memory, resident):
            system.delete_local("A", (2, "sn1", 5))
            system.insert_local("A", (2, "sn1", 5))
            system.propagate_deletions()
        return memory, resident

    def test_queries_refuse_until_the_exchange(self, tmp_path):
        from repro.cdss.trust import TrustPolicy

        memory, resident = self.build(tmp_path)
        # The propagation rightly kept the row's consequences.
        for schema in resident.catalog:
            if not is_local_name(schema.name):
                assert resident.exchange_store.relation_rows(schema) == set(
                    memory.instance[schema.name]
                )
        for query in (
            resident.derivability,
            lambda: resident.trusted(TrustPolicy()),
            lambda: resident.lineage(TupleNode("N", (2, "sn1", True))),
        ):
            with pytest.raises(ReinsertWindowError, match="A_l"):
                query()
        for system in (memory, resident):
            system.exchange()
        assert resident.derivability() == memory.derivability()
        assert all(resident.derivability().values())

    def test_deleting_the_pending_row_closes_the_window(self, tmp_path):
        memory, resident = self.build(tmp_path)
        for system in (memory, resident):
            system.delete_local("A", (2, "sn1", 5))
        assert resident.propagate_deletions() == memory.propagate_deletions()
        assert resident.derivability() == memory.derivability()
        assert_store_matches(memory, resident)


def test_delete_local_many_is_one_epoch(tmp_path):
    resident = build_example()
    resident.insert_local("A", (3, "sn3", 9))
    resident.exchange(engine="sqlite", storage=str(tmp_path / "many.db"))
    store = resident.exchange_store
    epoch = store.reach_index.epoch
    victims = [(1, "sn1", 7), (2, "sn1", 5), (3, "sn3", 9), (9, "x", 0)]
    assert resident.delete_local_many("A", victims) == 3
    assert store.reach_index.epoch == epoch + 1
    assert resident._removed_leaves == {"A_l": set(victims[:3])}
    (roots,) = store.connection.execute(
        'SELECT COUNT(*) FROM "__ridx_root"'
    ).fetchone()
    assert roots == 3  # A(1..), A(2..), A(3..): the L_A heads
    # Sequential deletes bump once per row.
    twin = build_example()
    twin.insert_local("A", (3, "sn3", 9))
    twin.exchange(engine="sqlite", storage=str(tmp_path / "seq.db"))
    before = twin.exchange_store.reach_index.epoch
    for row in victims:
        twin.delete_local("A", row)
    assert twin.exchange_store.reach_index.epoch == before + 3
    assert resident.propagate_deletions() == twin.propagate_deletions()
    assert_twin_stores_agree(resident, twin)
