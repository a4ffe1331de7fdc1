"""The read core of the reachability index: pure SELECTs, any connection.

Every index-backed graph query — ``lineage`` (Q6), ``derivability``
(Q5), ``trusted`` (Q7) — is answered here, for the writer
(:class:`~repro.exchange.graph_queries.StoreGraphQueries` on the
store's own connection) and for the serving tier's readers
(:class:`~repro.serve.reader.ReaderSession` on ``mode=ro``
connections) alike.  Nothing in this module writes: no TEMP tables, no
transactions, no ``__meta`` access.  The caller says which ``epoch``
its connection observes — the writer reads it off
:class:`~repro.exchange.reach_index.ReachabilityIndex`, a reader off
the ``__meta`` row inside its pinned snapshot — and the core answers
for exactly that epoch:

* **lineage** — resolve the probe to its node id, take its
  ancestor-or-self closure (one recursive CTE over
  ``__ridx_fire``/``__ridx_body``), bucket the closure by relation
  number and decode the local-contribution slice;
* **derivability / trusted** — load the integer edge set once per
  epoch and run the least liveness fixpoint as a Python worklist
  (:func:`liveness_over_edges`); a trust policy only changes which
  leaves seed it and which rules' fires are skipped.

One :class:`IndexReadCore` owns the single per-epoch cache (decoded
nodes keyed by id, the edge set, and a FIFO of finished answers); it
is dropped whole when the observed epoch moves.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Generic,
    Iterable,
    NamedTuple,
    TypeVar,
)

from repro.errors import StaleSnapshotError
from repro.exchange.reach_index import (
    BODY_TABLE,
    FIRE_TABLE,
    REL_SHIFT,
    load_relnos,
)
from repro.provenance.graph import TupleNode
from repro.relational.instance import Catalog
from repro.relational.schema import is_local_name
from repro.storage.encoding import ValueCodec, quote_identifier as _q

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cdss.trust import TrustPolicy

__all__ = ["IndexAnswer", "IndexReadCore", "PreparedSQL"]

T = TypeVar("T")

#: ancestor-or-self closure of one node as a recursive CTE; each id
#: comes with the number of fires it heads (the firings a walk visits).
ANCESTOR_CTE_SQL = (
    "WITH RECURSIVE anc(id) AS (VALUES(?) UNION "
    f"SELECT b.body FROM {_q(FIRE_TABLE)} AS f "
    f"JOIN {_q(BODY_TABLE)} AS b ON b.fid = f.fid "
    "JOIN anc AS a ON f.head = a.id) "
    f"SELECT id, (SELECT COUNT(*) FROM {_q(FIRE_TABLE)} AS h "
    "WHERE h.head = anc.id) FROM anc"
)

#: entries kept in the per-epoch query-result cache (FIFO).
RESULT_CACHE_CAP = 64

#: rows fetched per chunked ``rowid IN (...)`` leaf lookup.
_LEAF_CHUNK = 256

#: every fire with its body nodes, one row per (fire, body node); a
#: fire with no recorded body still yields one row (NULL body).
EDGES_SQL = (
    f"SELECT f.fid, f.rule, f.head, b.body FROM {_q(FIRE_TABLE)} AS f "
    f"LEFT JOIN {_q(BODY_TABLE)} AS b ON b.fid = f.fid ORDER BY f.fid"
)


class Edges(NamedTuple):
    """The integer edge set, laid out for the liveness worklist.

    Fires are renumbered densely in fid order; the three lists are
    indexed by that number.
    """

    #: fire -> head node id.
    heads: list[int]
    #: fire -> rule name (one shared str object per rule).
    rules: list[str]
    #: fire -> number of body nodes.
    need: list[int]
    #: body node id -> the fires it supports.
    incident: dict[int, list[int]]


def load_edges(connection: sqlite3.Connection) -> Edges:
    """The full edge set from any connection — small enough to hold in
    Python for resident working sets."""
    edges = Edges([], [], [], {})
    heads, rules, need, incident = edges
    names: dict[str, str] = {}
    last = None
    for fid, rule, head, body in connection.execute(EDGES_SQL):
        if fid != last:
            last = fid
            heads.append(head)
            rules.append(names.setdefault(rule, rule))
            need.append(0)
        if body is not None:
            need[-1] += 1
            incident.setdefault(body, []).append(len(need) - 1)
    return edges


def liveness_over_edges(
    edges: Edges,
    seed_ids: Iterable[int],
    distrusted: Iterable[str] = (),
) -> tuple[set[int], int]:
    """Least liveness fixpoint over an in-memory edge set.

    A node is live iff it is a seed or some fire (whose rule is not
    distrusted) has it as head with every body node live.  A worklist
    over a finite edge set: each fire's outstanding-body counter is
    decremented once per body node, so it terminates by construction.
    Returns ``(live, live_fires)`` — the second counts the trusted
    fires whose whole body is live, the indexed analogue of the ``P_m``
    rows the relational fixpoint enumerates.
    """
    skip = set(distrusted)
    heads, rules, incident = edges.heads, edges.rules, edges.incident
    need = list(edges.need)
    live = set(seed_ids)
    queue = list(live)
    # A fire with no recorded body is vacuously supported.
    ready = [fire for fire, count in enumerate(need) if not count]
    live_fires = 0
    while ready or queue:
        if not ready:
            for fire in incident.get(queue.pop(), ()):
                need[fire] -= 1
                if not need[fire]:
                    ready.append(fire)
            continue
        fire = ready.pop()
        if rules[fire] in skip:
            continue
        live_fires += 1
        head = heads[fire]
        if head not in live:
            live.add(head)
            queue.append(head)
    return live, live_fires


class PreparedSQL:
    """SQL text built once per key, with reuse counters.

    ``prepared(key, build)`` returns the string *build* produced the
    first time *key* was seen.  Reusing the identical string object
    lets sqlite3's statement cache skip re-preparing it — the per-call
    overhead that dominates sub-millisecond index reads.  Keys follow
    the lowering caches' convention: a tuple of (purpose,
    relation/rule, ...) identifying the shape.  Each connection owner
    (the store, a reader session) keeps its own.
    """

    __slots__ = ("_sql", "hits", "misses")

    def __init__(self) -> None:
        self._sql: dict[object, str] = {}
        self.hits = 0
        self.misses = 0

    def __call__(self, key: object, build: Callable[[], str]) -> str:
        sql = self._sql.get(key)
        if sql is None:
            sql = self._sql[key] = build()
            self.misses += 1
        else:
            self.hits += 1
        return sql


@dataclass(frozen=True)
class IndexAnswer(Generic[T]):
    """One computed answer plus the bookkeeping both callers report."""

    value: T
    #: how it was computed: ``"cte"``, ``"fixpoint"`` or ``"miss"``
    #: (a lineage probe on an unknown/unstored node).
    path: str
    #: fires visited — the ``pm_rows_scanned`` of the writer's stats.
    scanned: int


class _EpochCache:
    """Everything the core memoizes for one observed epoch."""

    __slots__ = ("epoch", "results", "nodes", "edges", "refs")

    def __init__(self, epoch: int) -> None:
        self.epoch = epoch
        #: query key -> answer (FIFO, :data:`RESULT_CACHE_CAP` entries).
        self.results: dict[object, IndexAnswer[Any]] = {}
        #: relation -> {node id: TupleNode} for every stored row.
        self.nodes: dict[str, dict[int, TupleNode]] = {}
        #: the index edge tables, loaded on the first fixpoint.
        self.edges: Edges | None = None
        #: strong refs keeping id()-keyed trust conditions alive.
        self.refs: list[object] = []


class IndexReadCore:
    """Answers index queries on whatever connection the caller holds.

    Built from the catalog, the value codec and the connection owner's
    :class:`PreparedSQL` (the store's on the writer, the session's on a
    reader, so each side counts its own statement reuse — and the core
    holds no reference back to its owner).  Every query takes the connection
    and the ``epoch`` it observes; answers are cached for that epoch
    only.  Not thread-safe: one core per connection owner.
    """

    def __init__(
        self,
        catalog: Catalog,
        codec: ValueCodec,
        prepared: PreparedSQL,
    ) -> None:
        self.catalog = catalog
        self._codec = codec
        self._prepared = prepared
        self._relnos: dict[str, int] = {}
        self._cache: _EpochCache | None = None

    @property
    def epoch(self) -> int | None:
        """The epoch the cache currently holds (None before any query)."""
        return None if self._cache is None else self._cache.epoch

    # -- per-epoch state -----------------------------------------------------

    def _epoch_cache(
        self, conn: sqlite3.Connection, epoch: int
    ) -> _EpochCache:
        cache = self._cache
        if cache is None or cache.epoch != epoch:
            cache = self._cache = _EpochCache(epoch)
            # Relation numbers are never reassigned, only added (at a
            # maintained run, which moves the epoch): reload when the
            # catalog names one this core has not seen.
            if any(name not in self._relnos for name in self.catalog.names()):
                self._relnos = load_relnos(conn)
        return cache

    def _cached(
        self,
        cache: _EpochCache,
        key: object,
        compute: Callable[[], IndexAnswer[T]],
    ) -> tuple[IndexAnswer[T], bool]:
        """``(answer, cache_hit)`` for *key*: from the epoch's result
        FIFO, else computed and remembered."""
        cached = cache.results.get(key)
        if cached is not None:
            return cached, True
        answer = compute()
        if len(cache.results) >= RESULT_CACHE_CAP:
            cache.results.pop(next(iter(cache.results)))
        cache.results[key] = answer
        return answer, False

    def _relno(self, conn: sqlite3.Connection, relation: str) -> int | None:
        if relation not in self._relnos:
            self._relnos = load_relnos(conn)
        return self._relnos.get(relation)

    def _covered(self) -> list[tuple[str, int]]:
        """Catalog relations the index numbers, in catalog order."""
        relnos = self._relnos
        return [
            (name, relnos[name])
            for name in self.catalog.names()
            if name in relnos
        ]

    def _nodes(
        self,
        conn: sqlite3.Connection,
        cache: _EpochCache,
        relation: str,
        relno: int,
    ) -> dict[int, TupleNode]:
        nodes = cache.nodes.get(relation)
        if nodes is None:
            base = relno * REL_SHIFT
            schema = self.catalog[relation]
            codec = self._codec
            sql = self._prepared(
                ("nodes", relation),
                lambda: f"SELECT rowid, * FROM {_q(relation)}",
            )
            nodes = cache.nodes[relation] = {
                base + rowid: TupleNode(
                    relation, codec.decode_row(raw, schema)
                )
                for rowid, *raw in conn.execute(sql)
            }
        return nodes

    # -- lineage -------------------------------------------------------------

    def lineage(
        self,
        conn: sqlite3.Connection,
        epoch: int,
        node: TupleNode,
    ) -> tuple[IndexAnswer[frozenset[TupleNode] | None], bool]:
        """Local base tuples *node* derives from, at *epoch*.

        Returns ``(answer, cache_hit)``; the answer's value is None
        when *node* is not a stored tuple (cached too, so a repeated
        miss costs nothing).
        """
        cache = self._epoch_cache(conn, epoch)
        return self._cached(
            cache,
            ("lineage", node.relation, tuple(node.values)),
            lambda: self._lineage(conn, cache, node),
        )

    def _lineage(
        self,
        conn: sqlite3.Connection,
        cache: _EpochCache,
        node: TupleNode,
    ) -> IndexAnswer[frozenset[TupleNode] | None]:
        miss: IndexAnswer[frozenset[TupleNode] | None] = IndexAnswer(
            None, "miss", 0
        )
        if node.relation not in self.catalog:
            return miss
        rowid = self._stored_rowid(conn, node)
        if rowid is None:
            return miss
        relno = self._relno(conn, node.relation)
        if relno is None:
            # Registration precedes every maintained epoch; a stored
            # row in an unnumbered relation means this connection's
            # view predates the index — not answerable, retry.
            raise StaleSnapshotError(
                f"{node.relation} not registered in the index"
            )
        qid = relno * REL_SHIFT + rowid
        scanned = 0
        by_relno: dict[int, list[int]] = {}
        for nid, heads in conn.execute(ANCESTOR_CTE_SQL, (qid,)):
            scanned += heads
            number, local = divmod(nid, REL_SHIFT)
            by_relno.setdefault(number, []).append(local)
        leaves: set[TupleNode] = set()
        for relation, number in self._covered():
            rowids = by_relno.get(number)
            if rowids and is_local_name(relation):
                leaves.update(
                    self._leaf_nodes(conn, cache, relation, number, rowids)
                )
        return IndexAnswer(frozenset(leaves), "cte", scanned)

    def _stored_rowid(
        self, conn: sqlite3.Connection, node: TupleNode
    ) -> int | None:
        schema = self.catalog[node.relation]
        sql = self._prepared(
            ("rowid", node.relation),
            lambda: (
                f"SELECT rowid FROM {_q(node.relation)} WHERE "
                + " AND ".join(
                    f"{_q(c)} IS ?" for c in schema.attribute_names
                )
            ),
        )
        try:
            found = conn.execute(
                sql, self._codec.encode_row(tuple(node.values))
            ).fetchone()
        except sqlite3.OperationalError as error:
            if "no such table" in str(error):
                return None
            raise
        return None if found is None else int(found[0])

    def _leaf_nodes(
        self,
        conn: sqlite3.Connection,
        cache: _EpochCache,
        relation: str,
        relno: int,
        rowids: list[int],
    ) -> list[TupleNode]:
        # A relation already decoded for this epoch answers by id.
        decoded = cache.nodes.get(relation)
        if decoded is not None:
            base = relno * REL_SHIFT
            return [
                decoded[base + rowid]
                for rowid in rowids
                if base + rowid in decoded
            ]
        schema = self.catalog[relation]
        codec = self._codec
        out: list[TupleNode] = []
        for start in range(0, len(rowids), _LEAF_CHUNK):
            chunk = rowids[start:start + _LEAF_CHUNK]
            size = len(chunk)
            sql = self._prepared(
                ("leaves", relation, size),
                lambda size=size: (
                    f"SELECT * FROM {_q(relation)} WHERE rowid IN "
                    f"({', '.join('?' for _ in range(size))})"
                ),
            )
            out.extend(
                TupleNode(relation, codec.decode_row(raw, schema))
                for raw in conn.execute(sql, chunk)
            )
        return out

    # -- derivability / trust ------------------------------------------------

    def derivability(
        self, conn: sqlite3.Connection, epoch: int
    ) -> tuple[IndexAnswer[dict[TupleNode, bool]], bool]:
        """Derivability verdict of every stored tuple at *epoch*, as
        ``(answer, cache_hit)``.  The value is the cached dict itself:
        callers hand out copies."""
        cache = self._epoch_cache(conn, epoch)
        return self._cached(
            cache,
            ("derivability",),
            lambda: self._annotate(conn, cache, None),
        )

    def trusted(
        self, conn: sqlite3.Connection, epoch: int, policy: "TrustPolicy"
    ) -> tuple[IndexAnswer[dict[TupleNode, bool]], bool]:
        """Trust verdict of every stored tuple under *policy* at
        *epoch*, as ``(answer, cache_hit)``.

        The policy is pushed into the fixpoint: leaf conditions select
        the seeds, distrusted mappings' fires are skipped.  Conditions
        key the cache by object identity and are assumed pure — a
        closure over mutated state must not be reused across calls.
        """
        cache = self._epoch_cache(conn, epoch)
        conditions = [
            (relation, condition)
            for relation in self.catalog.names()
            if is_local_name(relation)
            and (condition := policy.condition_for(relation)) is not None
        ]
        key = (
            "trusted",
            policy.default_trust,
            frozenset(policy.distrusted_mappings),
            tuple(sorted((rel, id(cond)) for rel, cond in conditions)),
        )

        def compute() -> IndexAnswer[dict[TupleNode, bool]]:
            # The key holds id()s of the conditions; pin the objects
            # so a collected callable's id cannot alias a new one.
            cache.refs.extend(cond for _rel, cond in conditions)
            return self._annotate(conn, cache, policy)

        return self._cached(cache, key, compute)

    def _annotate(
        self,
        conn: sqlite3.Connection,
        cache: _EpochCache,
        policy: "TrustPolicy | None",
    ) -> IndexAnswer[dict[TupleNode, bool]]:
        covered = self._covered()
        seeds: set[int] = set()
        for relation, relno in covered:
            if not is_local_name(relation):
                continue
            condition = (
                None if policy is None else policy.condition_for(relation)
            )
            nodes = self._nodes(conn, cache, relation, relno)
            if condition is not None:
                seeds.update(
                    nid
                    for nid, node in nodes.items()
                    if condition(node.values)
                )
            elif policy is None or policy.default_trust:
                seeds.update(nodes)
        if cache.edges is None:
            cache.edges = load_edges(conn)
        live, live_fires = liveness_over_edges(
            cache.edges,
            seeds,
            () if policy is None else policy.distrusted_mappings,
        )
        values: dict[TupleNode, bool] = {}
        for relation, relno in covered:
            for nid, node in self._nodes(conn, cache, relation, relno).items():
                values[node] = nid in live
        return IndexAnswer(values, "fixpoint", live_fires)
