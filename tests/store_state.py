"""The cross-engine oracle: a sqlite-engine system's store against a
memory-engine twin's instance and provenance graph.

The sqlite engine keeps nothing in Python, so the comparison reads the
store: every relation (:meth:`ExchangeStore.relation_rows`), every
``P_m`` table (:func:`stored_pm_rows`), and every derivation, decoded
from the reachability index's ``__ridx_fire``/``__ridx_body`` rows
(:func:`stored_fires`).  The index holds one fire per (firing, head
atom), so the memory graph's derivations are split per target
(:func:`graph_fires`) before they are compared.
"""

from __future__ import annotations

import sqlite3

from repro.exchange.reach_index import REL_SHIFT, load_relnos
from repro.provenance.graph import ProvenanceGraph, TupleNode
from repro.storage import provenance_rows
from repro.storage.encoding import quote_identifier


def stored_pm_rows(store, mapping):
    """Decode a store's ``P_<mapping>`` extension into value rows (the
    shape :func:`repro.storage.provenance_rows` yields from a graph)."""
    return {
        tuple(
            store.codec.decode(value, column.type)
            for value, column in zip(row, mapping.provenance_columns)
        )
        for row in store.connection.execute(
            f"SELECT * FROM {quote_identifier(f'P_{mapping.name}')}"
        )
    }


def stored_nodes(store, catalog) -> dict[int, TupleNode]:
    """Every stored tuple the index numbers, by node id."""
    nodes = {}
    for name, relno in load_relnos(store.connection).items():
        schema = catalog[name]
        for rowid, *raw in store.connection.execute(
            f"SELECT rowid, * FROM {quote_identifier(name)}"
        ):
            nodes[relno * REL_SHIFT + rowid] = TupleNode(
                name, store.codec.decode_row(raw, schema)
            )
    return nodes


def index_edges(store) -> set[tuple[str, int, frozenset]]:
    """The index's hyperedges as ``{(rule, head, bodies)}`` in node
    ids — fids are allocation order, not content, so they are left
    out."""
    bodies: dict[int, set[int]] = {}
    for fid, body in store.connection.execute(
        'SELECT fid, body FROM "__ridx_body"'
    ):
        bodies.setdefault(fid, set()).add(body)
    return {
        (rule, head, frozenset(bodies.get(fid, ())))
        for fid, rule, head in store.connection.execute(
            'SELECT fid, rule, head FROM "__ridx_fire"'
        )
    }


def stored_fires(system) -> set[tuple[str, TupleNode, frozenset]]:
    """The store's derivations as ``{(rule, head, bodies)}``, decoded
    from the (current) reachability index."""
    store = system.exchange_store
    assert store.reach_index.current, "the index must match the store"
    nodes = stored_nodes(store, system.catalog)
    return {
        (rule, nodes[head], frozenset(nodes[body] for body in bodies))
        for rule, head, bodies in index_edges(store)
    }


def graph_fires(graph: ProvenanceGraph) -> set[tuple[str, TupleNode, frozenset]]:
    """A provenance graph's derivations split per target, in the shape
    of :func:`stored_fires`."""
    return {
        (derivation.mapping, target, frozenset(derivation.sources))
        for derivation in graph.derivations
        for target in derivation.targets
    }


def assert_store_matches(memory, sqlite) -> None:
    """*sqlite*'s store holds exactly *memory*'s relations, ``P_m``
    rows and derivations."""
    store = sqlite.exchange_store
    for schema in sqlite.catalog:
        assert store.relation_rows(schema) == set(
            memory.instance[schema.name]
        ), schema.name
    for name, mapping in sqlite.mappings.items():
        if mapping.stores_provenance:
            assert stored_pm_rows(store, mapping) == set(
                provenance_rows(memory.mappings[name], memory.graph)
            ), name
    assert stored_fires(sqlite) == graph_fires(memory.graph)


def as_format_1(path, dirty_run=0):
    """Rewrite the closed store file at *path* into the format-1 layout:
    no root table, no roots marker, a ``dirty_run`` key."""
    conn = sqlite3.connect(path)
    with conn:
        conn.execute('DROP TABLE "__ridx_root"')
        conn.execute("DELETE FROM __meta WHERE key = 'roots_complete'")
        conn.execute(
            "UPDATE __meta SET value = 1 WHERE key = 'store_format'"
        )
        conn.execute(
            "INSERT INTO __meta (key, value) VALUES ('dirty_run', ?)",
            (dirty_run,),
        )
    conn.close()
