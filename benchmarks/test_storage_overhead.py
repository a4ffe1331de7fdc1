"""Section 4.1's storage claim: the relational provenance encoding
"allows storage of provenance in an RDBMS while incurring a modest
space overhead".

Measured as the ratio of provenance-relation rows (and their total
cells) to base/materialized data, across topologies.  Superfluous
(projection) mappings contribute zero stored rows — their P relations
are virtual views (Fig. 2).
"""

import pytest

from repro.cdss.mapping import provenance_relation_name
from repro.storage import provenance_rows
from repro.workloads import branched, chain, prepare_storage

FIGURE = "storage_overhead"


@pytest.mark.parametrize("engine", ("memory", "sqlite"))
@pytest.mark.parametrize(
    "kind,build,peers",
    [("chain", chain, 8), ("branched", branched, 9)],
)
def test_storage_overhead(benchmark, recorder, kind, build, peers, engine):
    system = build(peers, base_size=200, engine=engine)
    # Incremental no-op exchange: witnesses the compiled-program cache.
    system.exchange(engine=engine)

    def load():
        storage = prepare_storage(system)
        sizes = {}
        for mapping in system.mappings.values():
            if mapping.is_superfluous:
                sizes[mapping.name] = 0
            else:
                sizes[mapping.name] = storage.table_size(
                    provenance_relation_name(mapping.name)
                )
        storage.close()
        return sizes

    sizes = benchmark.pedantic(load, rounds=2, iterations=1)
    prov_rows = sum(sizes.values())
    prov_cells = sum(
        rows * len(system.mappings[name].provenance_columns)
        for name, rows in sizes.items()
    )
    data_rows = system.instance_size(public_only=False)
    # A sqlite-engine system's derived relations live only in its store.
    relation_size = (
        system.exchange_store.count if system.resident else system.instance.size
    )
    data_cells = sum(
        relation_size(schema.name) * schema.arity for schema in system.catalog
    )
    exchange = system.last_exchange
    recorder.record(
        f"{kind}/{engine}",
        prov_rows=prov_rows,
        data_rows=data_rows,
        row_overhead=round(prov_rows / data_rows, 3),
        cell_overhead=round(prov_cells / data_cells, 4),
        exchange_ms=round(system.exchange_seconds * 1e3, 1),
        engine=engine,
        plans=exchange.plans_compiled if exchange else 0,
        cache_hits=system.plan_cache.hits,
        index_hits=exchange.index_hits if exchange else 0,
        deduped=exchange.dedup_skipped if exchange else 0,
        mirrored=exchange.rows_mirrored if exchange else 0,
        rel_synced=exchange.relations_synced if exchange else 0,
    )
    # "Modest": provenance cells are a small fraction of data cells
    # (each derivation stores only key columns, one per shared var).
    assert prov_cells / data_cells < 0.25
