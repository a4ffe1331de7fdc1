"""Shared fixtures: the paper's running example (Example 2.1 /
Figure 1) in cyclic and acyclic variants, plus small workloads."""

from __future__ import annotations

import pytest

from repro.cdss import CDSS, Peer
from repro.relational import RelationSchema
from repro.storage import SQLiteStorage

EXAMPLE_MAPPINGS = [
    "m1: C(i, n) :- A(i, s, _), N(i, n, false)",
    "m2: N(i, n, true) :- A(i, n, _)",
    "m3: N(i, n, false) :- C(i, n)",
    "m4: O(n, h, true) :- A(i, n, h)",
    "m5: O(n, h, true) :- A(i, _, h), C(i, n)",
]


def example_peers() -> list[Peer]:
    """The three peers of Example 2.1."""
    return [
        Peer.of(
            "P1",
            [
                RelationSchema.of(
                    "A", ["id", ("sn", "str"), "len"], key=["id"]
                ),
                RelationSchema.of(
                    "C", ["id", ("name", "str")], key=["id", "name"]
                ),
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
                    "O",
                    [("name", "str"), "h", ("animal", "bool")],
                    key=["name"],
                )
            ],
        ),
    ]


def populate_example(system: CDSS, **exchange) -> CDSS:
    """Figure 1's base data (boldface tuples), exchanged with the
    given ``CDSS.exchange`` arguments."""
    system.insert_local("A", (1, "sn1", 7))
    system.insert_local("A", (2, "sn1", 5))
    system.insert_local("N", (1, "cn1", False))
    system.insert_local("C", (2, "cn2"))
    system.exchange(**exchange)
    return system


@pytest.fixture
def example_cdss() -> CDSS:
    """The full running example — note its provenance graph is CYCLIC
    (m1 and m3 derive C and N from each other)."""
    system = CDSS(example_peers())
    system.add_mappings(EXAMPLE_MAPPINGS)
    return populate_example(system)


def acyclic_example(**exchange) -> CDSS:
    """The running example without m3 — an acyclic provenance graph,
    the scope of the paper's SQL implementation."""
    system = CDSS(example_peers())
    system.add_mappings([m for m in EXAMPLE_MAPPINGS if not m.startswith("m3")])
    return populate_example(system, **exchange)


@pytest.fixture
def acyclic_cdss() -> CDSS:
    return acyclic_example()


def null_chain(**exchange) -> CDSS:
    """A chain A -> B -> C whose local data puts a NULL beside a
    non-NULL value in the join columns of m2, exchanged with the given
    ``CDSS.exchange`` arguments."""
    system = CDSS(
        [
            Peer.of(
                "P",
                [
                    RelationSchema.of(name, ["i", ("n", "str")], key=["i", "n"])
                    for name in "ABC"
                ],
            )
        ]
    )
    system.add_mappings(
        ["m1: B(i, n) :- A(i, n)", "m2: C(i, n) :- A(i, n), B(i, n)"]
    )
    system.insert_local("A", (None, "w"))
    system.insert_local("A", (2, "x"))
    system.exchange(**exchange)
    return system


@pytest.fixture
def null_chain_cdss() -> CDSS:
    return null_chain()


@pytest.fixture
def builders() -> dict:
    """System builders taking ``CDSS.exchange`` arguments, by name (for
    twins exchanged on different engines)."""
    return {"example": acyclic_example, "null": null_chain}


@pytest.fixture
def acyclic_storage(acyclic_cdss) -> SQLiteStorage:
    storage = SQLiteStorage(acyclic_cdss)
    storage.load()
    yield storage
    storage.close()


@pytest.fixture
def example_storage(example_cdss) -> SQLiteStorage:
    storage = SQLiteStorage(example_cdss)
    storage.load()
    yield storage
    storage.close()
