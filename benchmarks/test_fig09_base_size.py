"""Figure 9: chain and branched topologies, varying base size.

Paper claim: instance size grows linearly with base size, and query
processing time also grows (roughly) linearly, staying modest even at
the largest base sizes.

The deletion rows (use case Q5) extend the sweep with both deletion-
propagation engines: the memory engine's graph-based DERIVABILITY test
vs. the sqlite engine's store-resident SQL fixpoint over the P_m
firing history — same victims, identical survivors, engine-comparable
``rows_deleted`` / ``pm_rows_collected`` columns.
"""

import time

import pytest

from repro.workloads import branched, chain, prepare_storage, run_target_query
from repro.workloads.swissprot import generate_entries

from conftest import scaled

FIGURE = "fig09"

PEERS = 12
BASE_SIZES = tuple(scaled(size) for size in (100, 200, 400, 800))
DELETE_BASES = tuple(scaled(size) for size in (100, 200))


def delete_and_propagate(system, peer: int, base: int, fraction: int = 10):
    """Delete ``base // fraction`` entries of *peer*'s local tables and
    propagate; returns (stats, propagate_seconds)."""
    victims = generate_entries(base, seed=peer, key_offset=peer * 10_000_000)[
        : max(1, base // fraction)
    ]
    for entry in victims:
        system.delete_local(f"P{peer}_R1", entry.first_row())
        system.delete_local(f"P{peer}_R2", entry.second_row())
    started = time.perf_counter()
    system.propagate_deletions()
    return system.last_deletion, time.perf_counter() - started


def record_deletion_matrix(recorder, tmp_path, peers: int, base: int, axis: str):
    """Delete 10% of the most-upstream peer's base data on each engine
    (graph-based memory vs. store-resident SQL fixpoint), record one
    series row per engine, and assert the engines agree."""
    peer = peers - 1
    stats = {}
    for engine in ("memory", "sqlite"):
        system = chain(
            peers,
            base_size=base,
            engine=engine,
            exchange_path=(
                str(tmp_path / f"delete-{engine}.db")
                if engine == "sqlite"
                else None
            ),
        )
        deletion, seconds = delete_and_propagate(system, peer, base)
        stats[engine] = deletion
        recorder.record(
            f"chain delete engine={engine} {axis}",
            rows_deleted=deletion.rows_deleted,
            pm_collected=deletion.pm_rows_collected,
            propagate_ms=round(seconds * 1e3, 1),
            tuples_after=system.instance_size(),
        )
    assert stats["sqlite"].rows_deleted == stats["memory"].rows_deleted > 0
    assert (
        stats["sqlite"].pm_rows_collected
        == stats["memory"].pm_rows_collected
        > 0
    )


@pytest.fixture(scope="module")
def systems():
    built = {}
    for kind, build in (("chain", chain), ("branched", branched)):
        for base in BASE_SIZES:
            system = build(PEERS, base_size=base)
            built[(kind, base)] = (system, prepare_storage(system))
    yield built
    for _, storage in built.values():
        storage.close()


@pytest.mark.parametrize("kind", ["chain", "branched"])
@pytest.mark.parametrize("base", BASE_SIZES)
def test_fig09_point(benchmark, systems, recorder, kind, base):
    system, storage = systems[(kind, base)]

    def run():
        return run_target_query(system, storage=storage)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    recorder.record(
        f"{kind} base={base}",
        rules=result.unfolded_rules,
        total_ms=round(result.query_processing_seconds * 1e3, 1),
        instance_tuples=result.instance_tuples,
    )


@pytest.mark.parametrize("base", DELETE_BASES)
def test_fig09_deletion_point(benchmark, recorder, tmp_path, base):
    """Deletion propagation across the engine matrix, varying base
    size: same victims, identical survivors, engine-comparable rows."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    record_deletion_matrix(recorder, tmp_path, PEERS, base, f"base={base}")


def test_fig09_linear_instance_growth(benchmark, systems, recorder):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for kind in ("chain", "branched"):
        sizes = [
            systems[(kind, base)][0].instance_size() for base in BASE_SIZES
        ]
        # Instance size is proportional to base size.
        ratios = [
            size / base for size, base in zip(sizes, BASE_SIZES)
        ]
        assert max(ratios) / min(ratios) < 1.05
        recorder.record(f"{kind} linearity", tuples=sizes)
