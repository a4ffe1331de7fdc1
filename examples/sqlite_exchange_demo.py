"""SQL-backed, out-of-core update exchange with a compiled-plan cache.

The paper's testbed performs update exchange *inside the DBMS*; this
demo shows the reproduction's `repro.exchange` subsystem doing the
same:

* `engine="sqlite"` runs every semi-naive round as set-oriented SQL
  statements over delta tables (one statement per compiled join plan),
  maintaining the `P_m` provenance relations transactionally;
* an on-disk store path makes the exchange working set disk-resident —
  the out-of-core mode for instances larger than memory;
* the compiled-program cache makes incremental exchanges skip plan
  compilation entirely (`plans_compiled == 0` on a cache hit);
* the store is *authoritative*: derived tuples and the `P_m` firing
  history live only in SQLite (on disk here, or `:memory:`), never in
  Python, so working sets can exceed memory; only local contributions
  reach it, each exchange shipping exactly the pending local rows — a
  repeat exchange with nothing pending ships zero rows
  (`rows_mirrored == 0`);
* deletions run in the store too: `delete_local` marks victims in SQL
  and `propagate_deletions` re-runs the paper's DERIVABILITY test as
  an iterative SQL fixpoint over the `P_m` firing history, killing
  unsupported tuples and garbage-collecting dead `P_m` rows;
* graph *queries* run in the store as well: `lineage` probes the
  maintained reachability index over the stored firing history, and
  `trusted`/`derivability` run the liveness fixpoint with the trust
  policy pushed into the firing joins — so no provenance graph is ever
  materialized for any lifecycle step;
* the store holds exactly the memory engine's relations and `P_m`
  rows, and both answer graph queries identically.

Run:  python examples/sqlite_exchange_demo.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from repro.cdss.trust import TrustPolicy
from repro.provenance.graph import TupleNode
from repro.relational.schema import is_local_name
from repro.storage import provenance_rows
from repro.workloads import chain
from repro.workloads.swissprot import generate_entries
from repro.workloads.topologies import TopologySpec, build_system


def build_cdss():
    """Structure-only twin of main()'s CDSS (no data), for
    ``python -m repro.analysis examples/sqlite_exchange_demo.py``."""
    return build_system(TopologySpec("chain", 6, (), base_size=0))


def assert_same_relations(memory, sqlite) -> None:
    """The sqlite system's store holds exactly the memory twin's
    relations and P_m rows."""
    store = sqlite.exchange_store
    for schema in sqlite.catalog:
        assert store.relation_rows(schema) == set(memory.instance[schema.name])
    for name, mapping in sqlite.mappings.items():
        if mapping.stores_provenance:
            expected = set(provenance_rows(memory.mappings[name], memory.graph))
            assert store.count(f"P_{name}") == len(expected), name


def main() -> None:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="repro-exchange-")
    )
    workdir.mkdir(parents=True, exist_ok=True)
    store_path = str(workdir / "exchange.db")

    # One chain workload per engine; the sqlite one keeps its working
    # set on disk (out-of-core), and the store IS its instance.
    memory = chain(6, base_size=40, engine="memory")
    sqlite = chain(6, base_size=40, engine="sqlite", exchange_path=store_path)

    print("engine matrix (identical results, different substrates):")
    for label, system in (("memory", memory), ("sqlite", sqlite)):
        result = system.last_exchange
        print(
            f"  {label:>6}: {system.instance_size()} tuples, "
            f"graph in Python {system.graph.size()}, {result.firings} "
            f"firings, {result.plans_compiled} plans compiled"
        )
    assert_same_relations(memory, sqlite)
    public_in_python = sum(
        sqlite.instance.size(r)
        for r in sqlite.catalog.names()
        if not is_local_name(r)
    )
    assert public_in_python == 0 and sqlite.graph.size() == (0, 0)
    assert sqlite.instance_size() == memory.instance_size()
    print(f"  on-disk store: {store_path} "
          f"({Path(store_path).stat().st_size} bytes), "
          f"{public_in_python} derived tuples in Python memory")

    # Incremental update: the program is unchanged, so the compiled
    # plans come from the cache and nothing is recompiled.
    entry = (99_000_123, *(5,) * 12)
    entry2 = (99_000_123, *(6,) * 13)
    for system, engine in ((memory, "memory"), (sqlite, "sqlite")):
        system.insert_local("P5_R1", entry)
        system.insert_local("P5_R2", entry2)
        result = system.exchange(engine=engine, storage=(
            store_path if engine == "sqlite" else None
        ))
        print(
            f"incremental on {engine:>6}: {result.inserted} new tuples, "
            f"plans compiled = {result.plans_compiled} "
            f"(cache hit: {result.plan_cache_hit}), "
            f"mirrored {result.rows_mirrored} rows / "
            f"{result.relations_synced} relations"
        )
        assert result.plan_cache_hit and result.plans_compiled == 0
    assert_same_relations(memory, sqlite)
    # Only the two pending local rows crossed into the store — the
    # rest was already there.
    assert sqlite.last_exchange.rows_mirrored == 2

    # A repeat exchange with nothing pending ships nothing at all.
    unchanged = sqlite.exchange(engine="sqlite", storage=store_path)
    print(
        f"unchanged repeat: rows_mirrored = {unchanged.rows_mirrored}, "
        f"relations_synced = {unchanged.relations_synced}"
    )
    assert unchanged.rows_mirrored == 0 and unchanged.relations_synced == 0
    size_before = sqlite.instance_size()

    # Deletion propagation in the store: delete a slice of the most
    # upstream peer's base data, then let the DERIVABILITY test run as
    # a SQL fixpoint over the P_m firing history — victims and every
    # tuple they solely supported disappear from the on-disk instance,
    # and the dead P_m rows are garbage-collected alongside.
    upstream = 5
    victims = generate_entries(40, seed=upstream, key_offset=upstream * 10_000_000)[:4]
    for system in (memory, sqlite):
        for victim in victims:
            system.delete_local(f"P{upstream}_R1", victim.first_row())
            system.delete_local(f"P{upstream}_R2", victim.second_row())
    memory.propagate_deletions()
    removed = sqlite.propagate_deletions()
    stats = sqlite.last_deletion
    print(
        f"store delete: {len(victims) * 2} victims marked in SQL, "
        f"{removed} unsupported tuples propagated out in "
        f"{stats.iterations} fixpoint rounds, "
        f"{stats.pm_rows_collected} P_m rows collected"
    )
    assert stats.rows_deleted == removed > 0
    assert stats.pm_rows_collected == memory.last_deletion.pm_rows_collected > 0
    assert sqlite.instance_size() < size_before
    assert_same_relations(memory, sqlite)

    # The store remains fully incremental after the delete: a fresh
    # exchange re-derives only what the new rows support.
    for system in (memory, sqlite):
        system.insert_local("P5_R1", (99_000_777, *(7,) * 12))
        system.insert_local("P5_R2", (99_000_777, *(8,) * 13))
        system.exchange()
    after_delete = sqlite.last_exchange
    assert after_delete.rows_mirrored == 2
    assert after_delete.inserted == memory.last_exchange.inserted > 0
    assert_same_relations(memory, sqlite)
    print(
        f"post-delete incremental exchange: {after_delete.inserted} tuples "
        f"re-derived, {after_delete.rows_mirrored} rows mirrored"
    )

    # Graph queries in the store: the provenance graph is never built,
    # yet lineage/derivability/trusted answer relationally.  The entry
    # inserted at the most upstream peer reaches the target peer
    # through the whole chain, so its target-side tuple's lineage is
    # the pair of upstream local contributions.
    node = TupleNode("P0_R1", entry)
    leaves = sqlite.lineage(node)
    stats = sqlite.last_graph_query
    print(
        f"store lineage of {node.relation}{node.values[:2]}...: "
        f"{len(leaves)} leaf tuples ({stats.pm_rows_scanned} firing rows "
        f"scanned, engine={stats.engine})"
    )
    assert leaves == memory.lineage(node) == frozenset(
        {TupleNode("P5_R1_l", entry), TupleNode("P5_R2_l", entry2)}
    )
    assert sqlite.graph.size() == (0, 0)  # still no graph in Python

    # trusted() pushes the policy INTO the liveness fixpoint: distrusting
    # the most upstream mapping cuts everything derived through it,
    # and leaf conditions filter which local rows seed the live set.
    policy = TrustPolicy()
    policy.distrust_mapping("m5")  # the edge out of peer 5
    verdicts = sqlite.trusted(policy)
    trusted_count = sum(1 for trusted in verdicts.values() if trusted)
    print(
        f"store trust under distrust(m5): {trusted_count} of "
        f"{len(verdicts)} stored tuples trusted "
        f"({sqlite.last_graph_query.pm_rows_scanned} live firings)"
    )
    assert verdicts == memory.trusted(policy)
    assert not verdicts[node]  # entry only reaches P0 through m5
    assert trusted_count < len(verdicts)

    # The P_m provenance relations were maintained inside SQLite,
    # round by round, alongside the instance tables.
    store = sqlite.exchange_store
    mapping = next(m for m in sqlite.mappings.values() if m.stores_provenance)
    print(
        f"provenance relation P_{mapping.name} holds "
        f"{store.count(f'P_{mapping.name}')} derivation rows, written "
        "transactionally during the SQL fixpoint"
    )


if __name__ == "__main__":
    main()
