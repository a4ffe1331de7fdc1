"""CDSS mapping topologies of the evaluation (Figures 5 and 6).

Both topologies have a *target peer* that every mapping propagates
data towards.  Peers are numbered so that peer 0 is the target; data
flows from higher-numbered (upstream) peers down to peer 0.

* **chain** (Figure 5): P(n-1) -> P(n-2) -> ... -> P0.
* **branched** (Figure 6): a balanced binary in-tree converging on the
  target peer — peer i receives from peers 2i+1 and 2i+2.

Each peer has the two SWISS-PROT partition relations; each mapping
joins the two source relations in its body and produces the two target
relations in its head ("each mapping has a join between two such
relations in the body and another join between two relations in the
head", Section 6.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.cdss.peer import Peer
from repro.cdss.system import CDSS
from repro.workloads.swissprot import generate_entries, partition_schemas


def peer_name(index: int) -> str:
    return f"P{index}"


def target_relation(cdss_or_none=None) -> str:
    """The anchor relation of the experiments' target query (R0)."""
    return "P0_R1"


@dataclass
class TopologySpec:
    """Description of one generated CDSS workload."""

    kind: str  # "chain" | "branched"
    num_peers: int
    #: peers whose local tables receive data
    data_peers: tuple[int, ...]
    base_size: int
    seed: int = 0
    #: (source peer, target peer) per mapping, in mapping order
    edges: tuple[tuple[int, int], ...] = field(default=())
    #: update-exchange engine ("memory" | "sqlite"); the sqlite
    #: engine's store is the authoritative instance
    engine: str = "memory"
    #: sqlite-engine store path (None = in-memory; a filesystem path
    #: makes the exchange working set disk-resident / out-of-core)
    exchange_path: str | None = None
    #: selects nothing: None follows ``engine``, and a value that
    #: contradicts it raises (see ``CDSS.exchange``)
    resident: bool | None = None
    #: static-analysis pre-flight mode passed to ``CDSS.exchange``
    #: ("off" | "warn" | "error")
    validate: str = "off"
    #: observability hookup, forwarded to ``CDSS(trace=...)`` — a
    #: ``repro.obs`` tracer/sink, a JSONL path, or None (tracing off)
    trace: object | None = None


def chain_edges(num_peers: int) -> list[tuple[int, int]]:
    """Chain topology: peer i+1 feeds peer i (target peer is 0)."""
    return [(i + 1, i) for i in range(num_peers - 1)]


def branched_edges(num_peers: int) -> list[tuple[int, int]]:
    """Branched topology (Figure 6): a trunk chain into the target
    peer with side chains merging at interior trunk peers.

    The first half of the peers form the trunk (peer 0 is the target);
    the rest split into two contiguous side chains attached at one- and
    two-thirds of the trunk.  This reproduces the paper's structure of
    "short subpaths in the topology with no branches" punctuated by
    branch points, which is what differentiates the ASR variants in
    Figure 13.
    """
    if num_peers < 2:
        return []
    trunk = max(2, (num_peers + 1) // 2)
    edges = [(i + 1, i) for i in range(trunk - 1)]
    side_peers = list(range(trunk, num_peers))
    if side_peers:
        half = (len(side_peers) + 1) // 2
        sides = [side_peers[:half], side_peers[half:]]
        attach_points = [max(1, trunk // 3), max(1, (2 * trunk) // 3)]
        for side, attach in zip(sides, attach_points):
            previous = attach
            for peer in side:
                edges.append((peer, previous))
                previous = peer
    return edges


def _mapping_text(source: int, target: int) -> str:
    """The 2-source/2-target GLAV mapping between two peers."""
    first_attrs = ", ".join(f"x{i}" for i in range(1, 13))
    second_attrs = ", ".join(f"y{i}" for i in range(13, 26))
    src, dst = peer_name(source), peer_name(target)
    return (
        f"{dst}_R1(k, {first_attrs}), {dst}_R2(k, {second_attrs}) :- "
        f"{src}_R1(k, {first_attrs}), {src}_R2(k, {second_attrs})"
    )


def build_system(spec: TopologySpec) -> CDSS:
    """Construct the peers and mappings of one workload CDSS —
    *structure only*, no data and no exchange.

    This is what the static analyzer (``python -m repro.analysis
    chain:N``) builds: the full mapping program is available for
    analysis without a single tuple existing.
    """
    if spec.kind == "chain":
        edges = chain_edges(spec.num_peers)
    elif spec.kind == "branched":
        edges = branched_edges(spec.num_peers)
    else:
        raise ValueError(f"unknown topology kind {spec.kind!r}")
    spec.edges = tuple(edges)
    cdss = CDSS(
        (
            Peer.of(peer_name(i), partition_schemas(peer_name(i)))
            for i in range(spec.num_peers)
        ),
        trace=spec.trace,
    )
    for number, (source, target) in enumerate(edges, start=1):
        cdss.add_mapping(_mapping_text(source, target), name=f"m{number}")
    return cdss


def build_topology(spec: TopologySpec) -> CDSS:
    """Construct, populate, and exchange one workload CDSS."""
    cdss = build_system(spec)
    _populate(cdss, spec)
    cdss.exchange(
        engine=spec.engine,
        storage=spec.exchange_path,
        resident=spec.resident,
        validate=spec.validate,
    )
    return cdss


def _populate(cdss: CDSS, spec: TopologySpec) -> None:
    for peer_index in spec.data_peers:
        if not 0 <= peer_index < spec.num_peers:
            raise ValueError(f"data peer {peer_index} out of range")
        name = peer_name(peer_index)
        entries = generate_entries(
            spec.base_size,
            seed=spec.seed + peer_index,
            key_offset=peer_index * 10_000_000,
        )
        cdss.insert_local_many(f"{name}_R1", [e.first_row() for e in entries])
        cdss.insert_local_many(f"{name}_R2", [e.second_row() for e in entries])


def chain(
    num_peers: int,
    data_peers: Iterable[int] | None = None,
    base_size: int = 100,
    seed: int = 0,
    engine: str = "memory",
    exchange_path: str | None = None,
    resident: bool | None = None,
    validate: str = "off",
    trace: object | None = None,
) -> CDSS:
    """A chain CDSS (Figure 5).  ``data_peers`` defaults to the two
    most-upstream peers, matching Section 6.3's setting of "data at a
    few of the peers near the right-hand side"."""
    if data_peers is None:
        data_peers = upstream_data_peers(num_peers, 2)
    return build_topology(
        TopologySpec(
            "chain",
            num_peers,
            tuple(data_peers),
            base_size,
            seed,
            engine=engine,
            exchange_path=exchange_path,
            resident=resident,
            validate=validate,
            trace=trace,
        )
    )


def branched(
    num_peers: int,
    data_peers: Iterable[int] | None = None,
    base_size: int = 100,
    seed: int = 0,
    engine: str = "memory",
    exchange_path: str | None = None,
    resident: bool | None = None,
    validate: str = "off",
    trace: object | None = None,
) -> CDSS:
    """A branched CDSS (Figure 6) with data at the leaves by default."""
    if data_peers is None:
        data_peers = leaf_peers(num_peers)[:4]
    return build_topology(
        TopologySpec(
            "branched",
            num_peers,
            tuple(data_peers),
            base_size,
            seed,
            engine=engine,
            exchange_path=exchange_path,
            resident=resident,
            validate=validate,
            trace=trace,
        )
    )


def upstream_data_peers(num_peers: int, count: int) -> tuple[int, ...]:
    """The *count* peers farthest from the chain's target."""
    count = min(count, num_peers)
    return tuple(range(num_peers - count, num_peers))


def leaf_peers(num_peers: int) -> tuple[int, ...]:
    """Source peers of the branched topology (peers nobody feeds),
    most-upstream first — the natural data contributors."""
    fed = {target for _, target in branched_edges(num_peers)}
    sources = {source for source, _ in branched_edges(num_peers)}
    leaves = sorted(sources - fed, reverse=True)
    if not leaves:  # single-peer degenerate case
        return (0,)
    return tuple(leaves)


def instance_tuple_count(cdss: CDSS) -> int:
    """Materialized public-instance size (the right axes of Figs 9-10)."""
    return cdss.instance_size(public_only=True)
