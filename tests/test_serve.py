"""Tests for the concurrent serving tier (:mod:`repro.serve`).

Units for the retry policy and checkpoint discipline, reader sessions
against writer-path oracles, epoch drift and stale refusal, pool and
server plumbing, deterministic interleaving via :class:`StepGate`, a
reader-vs-checkpoint race, and a cross-process reopen regression.
"""

import json
import os
import sqlite3
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.cdss import CDSS, Peer
from repro.cdss.trust import TrustPolicy
from repro.errors import (
    ExchangeError,
    ServeError,
    ServeUnavailable,
)
from repro.provenance.graph import TupleNode
from repro.relational import RelationSchema
from repro.serve import (
    BackoffPolicy,
    ReaderPool,
    ReaderSession,
    StepGate,
    StoreServer,
    checkpoint_with_retry,
    is_busy_error,
    run_with_retry,
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


def example_peers():
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


def build_example():
    system = CDSS(example_peers())
    system.add_mappings(EXAMPLE_MAPPINGS)
    system.insert_local("A", (1, "sn1", 7))
    system.insert_local("A", (2, "sn1", 5))
    system.insert_local("N", (1, "cn1", False))
    system.insert_local("C", (2, "cn2"))
    return system


def resident_example(tmp_path, name="serve.db"):
    """The running example exchanged residently; returns (cdss, path)."""
    path = str(tmp_path / name)
    system = build_example()
    system.exchange(engine="sqlite", storage=path, resident=True)
    return system, path


def copy_chain_twins(length=4, rows=6):
    """Pure copy chain B0 -> B1 -> ... — a provenance forest (every
    firing single-body, every tuple derived once)."""
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


#: a retry policy with zero sleep, for deterministic refusal tests.
FAST_RETRY = BackoffPolicy(attempts=3, base_delay=0.0, multiplier=1.0)


class TestRetryPolicy:
    def test_policy_validates(self):
        with pytest.raises(ServeError):
            BackoffPolicy(attempts=0)
        with pytest.raises(ServeError):
            BackoffPolicy(base_delay=-1.0)
        with pytest.raises(ServeError):
            BackoffPolicy(multiplier=0.0)

    def test_delays_grow_and_cap(self):
        policy = BackoffPolicy(
            attempts=5, base_delay=0.01, multiplier=2.0, max_delay=0.03
        )
        assert list(policy.delays()) == [0.01, 0.02, 0.03, 0.03]

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def operation():
            calls.append(1)
            raise ValueError("boom")

        with pytest.raises(ValueError):
            run_with_retry(
                operation,
                BackoffPolicy(attempts=5, base_delay=0.0),
                retryable=lambda e: False,
                sleep=lambda s: None,
            )
        assert len(calls) == 1

    def test_retries_then_succeeds(self):
        attempts = []
        seen = []

        def operation():
            attempts.append(1)
            if len(attempts) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        result = run_with_retry(
            operation,
            BackoffPolicy(attempts=5, base_delay=0.0),
            retryable=is_busy_error,
            on_retry=lambda n, e: seen.append(n),
            sleep=lambda s: None,
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert seen == [1, 2]

    def test_budget_exhaustion_reraises_last_error(self):
        def operation():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            run_with_retry(
                operation,
                BackoffPolicy(attempts=3, base_delay=0.0),
                retryable=is_busy_error,
                sleep=lambda s: None,
            )

    def test_is_busy_error_discriminates(self):
        assert is_busy_error(sqlite3.OperationalError("database is locked"))
        assert is_busy_error(
            sqlite3.OperationalError("database table is locked: A")
        )
        assert not is_busy_error(sqlite3.OperationalError("no such table: A"))
        assert not is_busy_error(ValueError("database is locked"))


class _FakeStore:
    """Checkpoint stub reporting busy for the first *busy_for* calls."""

    def __init__(self, busy_for):
        self.busy_for = busy_for
        self.calls = 0

    def checkpoint(self, mode):
        self.calls += 1
        busy = 1 if self.calls <= self.busy_for else 0
        return (busy, 4, 4 - busy)


class TestCheckpointWithRetry:
    def test_clear_first_try(self):
        store = _FakeStore(busy_for=0)
        result = checkpoint_with_retry(store, "TRUNCATE", sleep=lambda s: None)
        assert result == (0, 4, 4)
        assert store.calls == 1

    def test_retries_while_busy(self, monkeypatch):
        from repro.obs.metrics import MetricsRegistry

        store = _FakeStore(busy_for=2)
        metrics = MetricsRegistry()
        result = checkpoint_with_retry(
            store, "PASSIVE", metrics=metrics, sleep=lambda s: None
        )
        assert result[0] == 0
        assert store.calls == 3
        assert metrics.value("serve.checkpoints") == 1
        assert metrics.value("serve.checkpoint_retries") == 2

    def test_still_busy_final_result_is_not_an_error(self):
        store = _FakeStore(busy_for=100)
        policy = BackoffPolicy(attempts=3, base_delay=0.0)
        result = checkpoint_with_retry(
            store, "PASSIVE", policy=policy, sleep=lambda s: None
        )
        assert result[0] == 1
        assert store.calls == 3

    def test_store_checkpoint_validates_mode(self, tmp_path):
        system, _path = resident_example(tmp_path)
        store = system.exchange_store
        with pytest.raises(ExchangeError):
            store.checkpoint("BOGUS")
        busy, wal_pages, moved = store.checkpoint("PASSIVE")
        assert busy == 0


class TestReaderSession:
    def test_answers_match_writer_paths(self, tmp_path):
        system, path = resident_example(tmp_path)
        with ReaderSession(path, system.catalog) as reader:
            node = TupleNode("O", ("cn2", 5, True))
            assert reader.lineage(node) == system.lineage(node)
            assert reader.last_read.path == "cte"
            assert reader.derivability() == system.derivability()
            policy = TrustPolicy()
            policy.distrust_mapping("m4")
            assert reader.trusted(policy) == system.trusted(policy)

    def test_key_error_parity_with_writer(self, tmp_path):
        system, path = resident_example(tmp_path)
        missing = TupleNode("O", ("nope", 0, True))
        unknown = TupleNode("NoSuchRel", (1,))
        with ReaderSession(path, system.catalog) as reader:
            for node in (missing, unknown):
                with pytest.raises(KeyError):
                    system.lineage(node)
                with pytest.raises(KeyError):
                    reader.lineage(node)
            assert reader.last_read.path == "miss"
            # The miss is cached: the repeat is a cache hit that still
            # raises.
            with pytest.raises(KeyError):
                reader.lineage(missing)
            assert reader.last_read.cache_hit

    def test_result_cache_hits_and_epoch(self, tmp_path):
        system, path = resident_example(tmp_path)
        store = system.exchange_store
        epoch = int(store.meta_get("index_epoch") or 0)
        with ReaderSession(path, system.catalog) as reader:
            first = reader.derivability()
            assert not reader.last_read.cache_hit
            assert reader.last_read.epoch == epoch
            again = reader.derivability()
            assert reader.last_read.cache_hit
            assert again == first
            assert reader.metrics.value("serve.cache_hits") == 1

    def test_session_caches_die_with_the_session(self, tmp_path):
        # The read core must not point back at its session: a
        # reference cycle would park every dropped session's decoded
        # nodes and edge set on the heap until the cyclic collector
        # ran (measured as +5% peak RSS under epoch churn).
        import gc
        import weakref

        system, path = resident_example(tmp_path)
        gc.disable()
        try:
            reader = ReaderSession(path, system.catalog)
            reader.derivability()
            core = weakref.ref(reader._core)
            reader.close()
            del reader
            assert core() is None
        finally:
            gc.enable()

    def test_connection_is_read_only(self, tmp_path):
        system, path = resident_example(tmp_path)
        with ReaderSession(path, system.catalog) as reader:
            reader.derivability()  # opens the connection
            with pytest.raises(sqlite3.OperationalError):
                reader._conn.execute("DELETE FROM A")
            # ...and the writer is unharmed.
            assert system.derivability()

    def test_rejects_memory_path(self, tmp_path):
        system, _ = resident_example(tmp_path)
        with pytest.raises(ServeError):
            ReaderSession(":memory:", system.catalog)

    def test_rejects_non_store_file(self, tmp_path):
        path = str(tmp_path / "plain.db")
        sqlite3.connect(path).execute("CREATE TABLE t (x)").close()
        system, _ = resident_example(tmp_path)
        with ReaderSession(path, system.catalog, retry=FAST_RETRY) as reader:
            with pytest.raises(ServeError, match="not a resident"):
                reader.derivability()

    def test_epoch_drift_refreshes_snapshot(self, tmp_path):
        system, path = resident_example(tmp_path)
        store = system.exchange_store
        with ReaderSession(path, system.catalog) as reader:
            before = reader.derivability()
            epoch_before = reader.last_read.epoch
            assert before[TupleNode("C", (2, "cn2"))]
            assert system.delete_local("C", (2, "cn2"))
            after = reader.derivability()
            assert reader.last_read.epoch > epoch_before
            assert reader.metrics.value("serve.snapshot_refreshes") == 1
            # The leaf contribution left the store (the derived row
            # stays until propagation), and the reader matches the
            # writer's own answer at the new epoch.
            assert TupleNode("C_l", (2, "cn2")) not in after
            assert after == system.derivability()
            assert int(store.meta_get("index_epoch") or 0) == (
                reader.last_read.epoch
            )

    def test_stale_index_refused_not_answered_wrong(self, tmp_path):
        system, path = resident_example(tmp_path)
        store = system.exchange_store
        store.meta_set("index_state", "stale")
        sleeps = []
        retry = BackoffPolicy(attempts=4, base_delay=0.001)
        with ReaderSession(path, system.catalog, retry=retry) as reader:
            with pytest.raises(ServeUnavailable, match="no servable"):
                reader.derivability()
            assert reader.metrics.value("serve.stale_retries") == 3
            assert reader.metrics.value("serve.unavailable") == 1
            # Restore and the same session serves again.
            store.meta_set("index_state", "current")
            assert reader.derivability() == system.derivability()
        assert sleeps == []  # documentation: no hidden global sleeps

    def test_dirty_run_refused(self, tmp_path):
        system, path = resident_example(tmp_path)
        system.exchange_store.dirty_run = True
        with ReaderSession(
            path, system.catalog, retry=FAST_RETRY
        ) as reader:
            with pytest.raises(ServeUnavailable):
                reader.derivability()
        system.exchange_store.dirty_run = False

    def test_cte_path_on_forest_store(self, tmp_path):
        memory, resident = copy_chain_twins()
        path = str(tmp_path / "chain.db")
        memory.exchange()
        resident.exchange(engine="sqlite", storage=path, resident=True)
        probe = TupleNode("B3", (0,))
        with ReaderSession(path, resident.catalog) as reader:
            assert reader.lineage(probe) == memory.lineage(probe)
            assert reader.last_read.path == "cte"
            # Every derived node agrees with the writer path and the
            # memory engine.
            for value in range(6):
                node = TupleNode("B2", (value,))
                assert reader.lineage(node) == resident.lineage(node)
                assert reader.lineage(node) == memory.lineage(node)


class TestCdssServingApi:
    def test_serving_session_answers(self, tmp_path):
        system, _path = resident_example(tmp_path)
        with system.serving_session() as reader:
            assert reader.derivability() == system.derivability()

    def test_serving_requires_resident_mode(self):
        system = build_example()
        system.exchange()  # memory engine: nothing to serve
        with pytest.raises(ExchangeError):
            system.serving_session()

    def test_serve_returns_started_server(self, tmp_path):
        system, _path = resident_example(tmp_path)
        server = system.serve(readers=2)
        try:
            future = server.derivability()
            assert future.result(timeout=30) == system.derivability()
        finally:
            server.close()


class TestReaderPool:
    def test_sessions_are_reused(self, tmp_path):
        system, path = resident_example(tmp_path)
        with ReaderPool(path, system.catalog, size=2) as pool:
            with pool.session() as first:
                first.derivability()
            with pool.session() as second:
                assert second is first  # LIFO reuse keeps caches warm
                assert second.derivability() == system.derivability()
                assert second.last_read.cache_hit

    def test_checkout_blocks_until_checkin(self, tmp_path):
        system, path = resident_example(tmp_path)
        pool = ReaderPool(path, system.catalog, size=1, timeout=10.0)
        acquired = threading.Event()
        release = threading.Event()
        got = []

        def holder():
            with pool.session():
                acquired.set()
                release.wait(10.0)

        def waiter():
            with pool.session() as session:
                got.append(session)

        hold = threading.Thread(target=holder)
        hold.start()
        assert acquired.wait(10.0)
        wait = threading.Thread(target=waiter)
        wait.start()
        release.set()
        hold.join(10.0)
        wait.join(10.0)
        assert len(got) == 1
        pool.close()

    def test_exhaustion_times_out(self, tmp_path):
        system, path = resident_example(tmp_path)
        pool = ReaderPool(path, system.catalog, size=1, timeout=0.05)
        with pool.session():
            with pytest.raises(ServeUnavailable, match="no reader session"):
                with pool.session():
                    pass  # pragma: no cover - never entered
        pool.close()

    def test_close_refuses_checkouts_and_closes_returners(self, tmp_path):
        system, path = resident_example(tmp_path)
        pool = ReaderPool(path, system.catalog, size=2)
        with pool.session() as held:
            pool.close()
            with pytest.raises(ServeError, match="closed"):
                pool._checkout()
        assert held.closed  # closed on the way back in

    def test_size_validates(self, tmp_path):
        system, path = resident_example(tmp_path)
        with pytest.raises(ServeError):
            ReaderPool(path, system.catalog, size=0)


class TestStoreServer:
    def test_futures_answer_all_queries(self, tmp_path):
        system, path = resident_example(tmp_path)
        policy = TrustPolicy()
        policy.distrust_mapping("m1")
        pool = ReaderPool(path, system.catalog, size=2)
        with StoreServer(pool) as server:
            node = TupleNode("O", ("cn2", 5, True))
            lineage = server.lineage(node)
            derivability = server.derivability()
            trusted = server.trusted(policy)
            assert lineage.result(timeout=30) == system.lineage(node)
            assert derivability.result(timeout=30) == system.derivability()
            assert trusted.result(timeout=30) == system.trusted(policy)

    def test_key_error_travels_through_future(self, tmp_path):
        system, path = resident_example(tmp_path)
        pool = ReaderPool(path, system.catalog, size=1)
        with StoreServer(pool) as server:
            future = server.lineage(TupleNode("O", ("nope", 0, True)))
            with pytest.raises(KeyError):
                future.result(timeout=30)


class TestStepGate:
    def test_release_then_reach_passes_through(self):
        gate = StepGate(timeout=5.0)
        gate.release("a")
        gate.reach("a")  # must not block

    def test_reach_blocks_until_release(self):
        gate = StepGate(timeout=5.0)
        order = []

        def worker():
            gate.reach("step")
            order.append("after")

        thread = threading.Thread(target=worker)
        thread.start()
        gate.wait_reached("step")
        order.append("released-by")
        gate.release("step")
        thread.join(5.0)
        assert order == ["released-by", "after"]

    def test_timeout_raises(self):
        gate = StepGate(timeout=0.05)
        with pytest.raises(ServeError, match="never released"):
            gate.reach("never")


class TestDeterministicInterleavings:
    def test_reader_epoch_advances_across_gated_writer_delete(self, tmp_path):
        """Barrier-scheduled interleaving: the reader answers at epoch
        e0, then the writer deletes (e0 -> e1) while the reader is
        parked between queries, then the reader answers at e1 — both
        answers exactly right for their epochs."""
        system, path = resident_example(tmp_path)
        gate = StepGate(timeout=30.0)
        epochs = []
        answers = []

        def reader_main():
            with ReaderSession(path, system.catalog) as reader:
                gate.reach("start")
                answers.append(reader.derivability())
                epochs.append(reader.last_read.epoch)
                gate.reach("between")
                answers.append(reader.derivability())
                epochs.append(reader.last_read.epoch)

        thread = threading.Thread(target=reader_main)
        thread.start()
        gate.release("start")
        gate.wait_reached("between")  # first answer is in
        expected_before = system.derivability()
        assert system.delete_local("C", (2, "cn2"))
        expected_after = system.derivability()
        gate.release("between")
        thread.join(30.0)
        assert not thread.is_alive()
        assert epochs[1] > epochs[0]
        assert answers[0] == expected_before
        assert answers[1] == expected_after

    def test_checkpoint_races_pinned_snapshot(self, tmp_path):
        """A reader parked inside its snapshot makes a TRUNCATE
        checkpoint report busy (never raise); once the reader releases,
        checkpoint_with_retry drains the WAL completely."""
        system, path = resident_example(tmp_path)
        store = system.exchange_store
        # Put fresh pages in the WAL for the checkpoint to move.
        assert system.delete_local("C", (2, "cn2"))
        gate = StepGate(timeout=30.0)
        results = []

        def reader_main():
            def parked(state):
                gate.reach("pinned")

            with ReaderSession(
                path, system.catalog, on_pinned=parked
            ) as reader:
                results.append(reader.derivability())

        thread = threading.Thread(target=reader_main)
        thread.start()
        gate.wait_reached("pinned")
        busy, _, _ = store.checkpoint("TRUNCATE")
        assert busy == 1  # reader snapshot pins the WAL; no exception
        gate.release("pinned")
        thread.join(30.0)
        assert not thread.is_alive()
        assert results[0] == system.derivability()
        busy, wal_pages, _ = checkpoint_with_retry(store, "TRUNCATE")
        assert busy == 0
        assert wal_pages == 0


class TestCrossProcessReopen:
    def test_second_process_answers_index_queries_by_path(self, tmp_path):
        """ROADMAP (storage): a second process opening the store path
        read-only must answer index queries without the writer's
        in-memory state."""
        system, path = resident_example(tmp_path)
        node = TupleNode("O", ("cn2", 5, True))
        expected = {
            "lineage": sorted(
                [n.relation, list(n.values)] for n in system.lineage(node)
            ),
            "derivable": sum(system.derivability().values()),
        }
        script = textwrap.dedent(
            """
            import json, sys
            from repro.cdss import CDSS, Peer
            from repro.relational import RelationSchema
            from repro.provenance.graph import TupleNode
            from repro.serve import ReaderSession

            path = sys.argv[1]
            peers = [
                Peer.of("P1", [
                    RelationSchema.of(
                        "A", ["id", ("sn", "str"), "len"], key=["id"]),
                    RelationSchema.of(
                        "C", ["id", ("name", "str")], key=["id", "name"]),
                ]),
                Peer.of("P2", [RelationSchema.of(
                    "N", ["id", ("name", "str"), ("canon", "bool")],
                    key=["id", "name"])]),
                Peer.of("P3", [RelationSchema.of(
                    "O", [("name", "str"), "h", ("animal", "bool")],
                    key=["name"])]),
            ]
            system = CDSS(peers)  # schema only: no data, no exchange
            with ReaderSession(path, system.catalog) as reader:
                lineage = reader.lineage(TupleNode("O", ("cn2", 5, True)))
                lineage_path = reader.last_read.path
                out = {
                    "lineage": sorted(
                        [n.relation, list(n.values)] for n in lineage
                    ),
                    "derivable": sum(reader.derivability().values()),
                    "path": lineage_path,
                }
            print(json.dumps(out))
            """
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, path],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["lineage"] == expected["lineage"]
        assert out["derivable"] == expected["derivable"]
        assert out["path"] == "cte"
