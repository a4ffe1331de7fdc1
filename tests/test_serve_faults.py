"""Fault-injection tests for the serving tier: a writer process killed
mid-operation must never leave a state a reader serves wrongly.

Each scenario runs the writer in a *subprocess* and kills it (via
``os._exit`` patched into a precise point of the lifecycle — a real
process death, no cleanup handlers), then examines the store file from
the parent:

* killed after the data rounds ran but before index maintenance
  finished → the exchange is one transaction, so SQLite rolls all of
  it back: readers serve the pre-run epoch, and a reopened writer
  ships the lost rows again;
* killed between a local deletion and its propagation → the deletion
  and the roots it recorded are durable, and a reopened writer's
  propagation walks those roots' cone to the memory twin's state;
* killed inside the deletion kill transaction → SQLite rolls the
  transaction back, so readers still serve the exact pre-propagation
  state, and a reopened writer completes the propagation.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.obs.trace import MemorySink, Tracer
from repro.provenance.graph import TupleNode
from repro.serve import BackoffPolicy, ReaderSession

from store_state import assert_store_matches
from test_serve import build_example

FAST_RETRY = BackoffPolicy(attempts=3, base_delay=0.0, multiplier=1.0)

#: child scripts import the same builders this module uses, so writer
#: and twin construct byte-identical stores.
_PRELUDE = textwrap.dedent(
    """
    import os, sys
    sys.path.insert(0, {tests_dir!r})
    from test_serve import build_example
    from repro.exchange.reach_index import ReachabilityIndex
    path = sys.argv[1]
    """
)


def _run_child(body, path, tests_dir):
    script = _PRELUDE.format(tests_dir=tests_dir) + textwrap.dedent(body)
    env = dict(os.environ)
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", script, path],
        capture_output=True,
        text=True,
        env=env,
        timeout=180,
    )


@pytest.fixture
def tests_dir():
    return os.path.dirname(os.path.abspath(__file__))


class TestWriterKilledMidExchange:
    def test_readers_serve_pre_run_epoch_then_reopen_exchanges(
        self, tmp_path, tests_dir
    ):
        path = str(tmp_path / "killed.db")
        proc = _run_child(
            """
            system = build_example()
            system.exchange(engine="sqlite", storage=path, resident=True)
            # Second, incremental run: die after its data rounds ran,
            # before index maintenance and the commit.
            system.insert_local("A", (3, "sn3", 9))
            ReachabilityIndex.on_run_complete = (
                lambda *a, **k: os._exit(17)
            )
            system.exchange(engine="sqlite", storage=path, resident=True)
            os._exit(1)  # unreachable: the exchange must hit the kill
            """,
            path,
            tests_dir,
        )
        assert proc.returncode == 17, proc.stderr
        assert os.path.exists(path)

        # The run was one transaction: nothing of it reached the file.
        # Readers serve the pre-run epoch at once — no refusal, no
        # retry — and it equals a twin that never ran the second
        # exchange.
        before = build_example()
        before.exchange()
        schema_only = build_example()
        with ReaderSession(
            path, schema_only.catalog, retry=FAST_RETRY
        ) as reader:
            assert reader.derivability() == before.derivability()
            assert reader.last_read.retries == 0
            with pytest.raises(KeyError):
                reader.lineage(TupleNode("O", ("sn3", 9, True)))
            assert reader.metrics.value("serve.stale_retries") == 0

        # A reopened writer holding the same local rows finds
        # A(3, sn3, 9) missing from the store and ships it.
        twin = build_example()
        twin.insert_local("A", (3, "sn3", 9))
        twin.exchange()
        healed = build_example()
        healed.insert_local("A", (3, "sn3", 9))
        result = healed.exchange(engine="sqlite", storage=path, resident=True)
        assert result.rows_mirrored == 1
        assert healed.exchange_store.meta_get("index_state") == "current"
        assert_store_matches(twin, healed)
        with ReaderSession(path, healed.catalog) as reader:
            assert reader.derivability() == twin.derivability()
            node = TupleNode("O", ("sn3", 9, True))
            assert reader.lineage(node) == twin.lineage(node)


class TestWriterKilledBeforePropagation:
    def test_roots_are_durable_and_reopen_propagates_the_cone(
        self, tmp_path, tests_dir
    ):
        path = str(tmp_path / "roots.db")
        proc = _run_child(
            """
            system = build_example()
            system.exchange(engine="sqlite", storage=path, resident=True)
            assert system.delete_local("A", (2, "sn1", 5))
            os._exit(29)  # before propagate_deletions
            """,
            path,
            tests_dir,
        )
        assert proc.returncode == 29, proc.stderr

        twin = build_example()
        twin.exchange()
        twin.delete_local("A", (2, "sn1", 5))
        healed = build_example()
        healed.delete_local("A", (2, "sn1", 5))
        sink = MemorySink()
        healed.tracer = Tracer(sink)
        healed.exchange(engine="sqlite", storage=path, resident=True)
        store = healed.exchange_store
        # The deletion committed with its roots and the marker.
        roots = store.connection.execute(
            'SELECT COUNT(*) FROM "__ridx_root"'
        ).fetchone()[0]
        assert roots > 0
        assert store.meta_get("roots_complete") == 1
        assert healed.propagate_deletions() == twin.propagate_deletions() > 0
        (fixpoint,) = [
            r for r in sink.records() if r["name"] == "deletion.fixpoint"
        ]
        assert fixpoint["attrs"]["path"] == "cone"
        assert_store_matches(twin, healed)
        assert healed.derivability() == twin.derivability()
        assert store.connection.execute(
            'SELECT COUNT(*) FROM "__ridx_root"'
        ).fetchone()[0] == 0


class TestWriterKilledMidPropagation:
    def test_kill_transaction_rolls_back_completely(
        self, tmp_path, tests_dir
    ):
        path = str(tmp_path / "prop.db")
        proc = _run_child(
            """
            system = build_example()
            system.exchange(engine="sqlite", storage=path, resident=True)
            assert system.delete_local("C", (2, "cn2"))
            # Die inside the deletion kill transaction, after the
            # sweeps and mid-prune — nothing of it may survive.
            ReachabilityIndex.finish_prune = (
                lambda *a, **k: os._exit(23)
            )
            system.propagate_deletions()
            os._exit(1)  # unreachable
            """,
            path,
            tests_dir,
        )
        assert proc.returncode == 23, proc.stderr

        # The twin runs the same operations but never propagates: the
        # killed transaction must have rolled back to exactly this
        # state, and the index must still be current at its epoch (the
        # leaf deletion maintained it before the crash).  The twin is
        # resident too — pre-propagation verdicts are a resident-mode
        # notion (the leaf tables shrink per-delete, the memory engine
        # only shrinks at propagation).
        twin = build_example()
        twin.exchange(
            engine="sqlite", storage=str(tmp_path / "twin.db"), resident=True
        )
        assert twin.delete_local("C", (2, "cn2"))
        schema_only = build_example()
        with ReaderSession(path, schema_only.catalog) as reader:
            assert reader.derivability() == twin.derivability()
            assert reader.last_read.retries == 0  # served, not refused

        # A reopened writer finishes the interrupted propagation and
        # converges to the fully-propagated twin.
        twin.propagate_deletions()
        healed = build_example()
        healed.exchange(engine="sqlite", storage=path, resident=True)
        assert healed.delete_local("C", (2, "cn2"))
        healed.propagate_deletions()
        with ReaderSession(path, healed.catalog) as reader:
            assert reader.derivability() == twin.derivability()
            for node, derivable in twin.derivability().items():
                if not derivable:
                    continue
                assert reader.lineage(node) == twin.lineage(node)
