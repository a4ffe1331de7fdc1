"""Pruning oracle and rewriting-set factorization for rule unfolding.

The unfolder of Section 4.2.3-4.2.4 enumerates every derivation-tree
shape, including rewritings that provably cannot produce answers.
Following the rewriting-set optimizations of Gottlob/Orsi/Pieris
(*Query Rewriting and Optimization for Ontological Databases*), this
module makes the rewriting set smaller **before** any SQL runs:

* :class:`PruningOracle` — a least-fixpoint of *productive* relations
  (a relation that has local data, or some mapping into it all of
  whose sources are productive, can hold tuples; anything else is
  certainly empty).  The unfolder skips mapping steps through
  unproductive sources: such branches can never complete into a rule
  with non-empty joins.
* :class:`PatternViability` — the product of a path expression's NFA
  with the schema graph: a ``(state, relation)`` pair is *viable* when
  the remaining pattern can still be consumed by backward edges from
  that relation.  Unviable continuations are cut before unification;
  a query whose start states are all unviable is statically empty
  (diagnostic RA501).
* :func:`subsumes` / :func:`factorize` — homomorphism-based
  containment between unfolded rules (the factorization step).  A rule
  is dropped only when a kept rule covers its answers **and** its
  derivation specs, so subgraph reconstruction and annotation
  computation are preserved, not just the answer set.
* :class:`UnfoldCache` — the unfolded program memoized per (query
  fingerprint, order-normalized mapping fingerprint, data-bearing
  relations), mirroring how ``CDSS.plan_cache`` keys compiled exchange
  plans; repeat queries skip unfolding entirely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from repro.datalog.atoms import Atom
from repro.datalog.terms import Term, Variable
from repro.proql.ast import PathExpr
from repro.relational.schema import local_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.proql.schema_graph import SchemaGraph
    from repro.proql.unfolding import UnfoldedRule


class PruningOracle:
    """Productive-relation fixpoint over the schema graph.

    A relation is **productive** when it can possibly hold tuples after
    an exchange: it has local contributions, or some mapping into it
    has only productive sources.  The complement is *certainly empty* —
    independent of join selectivity — so any rewriting that scans an
    unproductive relation (or steps through a mapping that could never
    have fired) is dead and safe to prune.

    ``has_local_data`` is evaluated once per construction; build a
    fresh oracle per unfolding run so data changes are picked up.
    """

    def __init__(
        self,
        graph: "SchemaGraph",
        has_local_data: Callable[[str], bool],
    ) -> None:
        self.graph = graph
        self._productive = self._fixpoint(graph, has_local_data)
        self._useful: dict[str, tuple[str, ...]] = {}

    @staticmethod
    def _fixpoint(
        graph: "SchemaGraph", has_local_data: Callable[[str], bool]
    ) -> frozenset[str]:
        with_data = {r for r in graph.relations if has_local_data(r)}
        # A relation's local-contribution table is productive with it:
        # the L_R step reaches it from R.
        productive = with_data | {local_name(r) for r in with_data}
        # Worklist over mappings whose sources just became productive.
        changed = True
        while changed:
            changed = False
            for name, mapping in graph.mappings.items():
                sources = mapping.source_relations()
                if not all(s in productive for s in sources):
                    continue
                for target in mapping.target_relations():
                    if target not in productive:
                        productive.add(target)
                        changed = True
        return frozenset(productive)

    def productive(self, relation: str) -> bool:
        """True when *relation* can possibly be non-empty."""
        return relation in self._productive

    def useful_mappings(self, relation: str) -> tuple[str, ...]:
        """Mappings into *relation* whose every source is productive.

        A mapping with an unproductive source never fired, so its
        ``P_m`` table is empty and any derivation step through it is
        dead.
        """
        cached = self._useful.get(relation)
        if cached is None:
            cached = tuple(
                name
                for name in self.graph.mappings_into(relation)
                if all(
                    s in self._productive
                    for s in self.graph.sources_of(name)
                )
            )
            self._useful[relation] = cached
        return cached


class PatternViability:
    """Backward viability of the NFA-x-schema-graph product.

    State ``(p, R)`` is viable when the pattern suffix ``steps[p:]``
    can be fully consumed starting from relation ``R`` (acceptance at
    ``p == len(steps)`` is always viable — the pattern may stop there).
    Computed as a backward fixpoint; ``get_allowed`` carries per-step
    mapping restrictions from ``<m`` steps and WHERE constraints, the
    same callback the unfolder's pattern mode uses.

    Local contributions count too: the graph engine steps from ``R``
    to ``R_l`` through the ``L_R`` derivation, and so does the
    unfolder.  ``R_l`` has no incoming edge, so that step can only be
    the **last** one, with a final spec that names no relation or
    names ``R_l``.
    """

    def __init__(
        self,
        graph: "SchemaGraph",
        path: PathExpr,
        get_allowed: Callable[..., set[str] | None] | None = None,
    ) -> None:
        self.graph = graph
        self.path = path
        self._final = len(path.steps)
        self._viable = self._compute(get_allowed or (lambda step: None))

    def _step_mappings(
        self,
        position: int,
        relation: str,
        get_allowed: Callable[..., set[str] | None],
    ) -> Iterable[str]:
        step = self.path.steps[position]
        allowed = get_allowed(step)
        for name in self.graph.mappings_into(relation):
            if step.mapping is not None and step.mapping != name:
                continue
            if allowed is not None and name not in allowed:
                continue
            yield name

    def _compute(
        self, get_allowed: Callable[..., set[str] | None]
    ) -> frozenset[tuple[int, str]]:
        steps, specs = self.path.steps, self.path.specs
        final = self._final
        viable: set[tuple[int, str]] = {
            (final, relation) for relation in self.graph.relations
        }
        if final > 0:
            # The last step may consume the R -> R_l local-contribution
            # edge and finish at the leaf.
            from repro.cdss.system import local_rule_name

            last = steps[final - 1]
            allowed = get_allowed(last)
            for relation in self.graph.relations:
                name = local_rule_name(relation)
                if specs[final].relation not in (None, local_name(relation)):
                    continue
                if last.mapping is not None and last.mapping != name:
                    continue
                if allowed is not None and name not in allowed:
                    continue
                viable.add((final - 1, relation))
        # Backward fixpoint: (p, R) viable when some mapping step from
        # R leads to a viable (q, S).  The "plus" self-loop makes this
        # genuinely recursive, hence the iteration to fixpoint.
        changed = True
        while changed:
            changed = False
            for position in range(final - 1, -1, -1):
                next_spec = specs[position + 1]
                for relation in self.graph.relations:
                    if (position, relation) in viable:
                        continue
                    for name in self._step_mappings(
                        position, relation, get_allowed
                    ):
                        hit = False
                        for source in set(self.graph.sources_of(name)):
                            accepts = (
                                next_spec.relation is None
                                or next_spec.relation == source
                            )
                            if steps[position].kind == "one":
                                candidates = (
                                    [position + 1] if accepts else []
                                )
                            else:
                                candidates = [position]
                                if accepts:
                                    candidates.append(position + 1)
                            if any(
                                (q, source) in viable for q in candidates
                            ):
                                hit = True
                                break
                        if hit:
                            viable.add((position, relation))
                            changed = True
                            break
        return frozenset(viable)

    def viable(self, state: int, relation: str) -> bool:
        """Can the pattern suffix from *state* still be consumed?  (The
        final state always can, at any relation — leaves included.)"""
        return state == self._final or (state, relation) in self._viable

    def start_viable(self, relation: str) -> bool:
        """Can the whole pattern match starting at *relation*?"""
        return (0, relation) in self._viable

    def reachable_relations(
        self, anchors: Iterable[str]
    ) -> frozenset[str]:
        """Relations a successful match of this path can touch.

        Forward product reachability from the viable start states,
        intersected with backward viability — a relation outside this
        set can never appear on a match (diagnostic RA503's "the
        rewriting set never touches it").
        """
        steps, specs = self.path.steps, self.path.specs
        final = self._final
        seen: set[tuple[int, str]] = set()
        stack = [
            (0, a)
            for a in anchors
            if a in self.graph.relations and self.viable(0, a)
        ]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            position, relation = state
            if position >= final:
                continue
            next_spec = specs[position + 1]
            for name in self.graph.mappings_into(relation):
                step = steps[position]
                if step.mapping is not None and step.mapping != name:
                    continue
                for source in set(self.graph.sources_of(name)):
                    accepts = (
                        next_spec.relation is None
                        or next_spec.relation == source
                    )
                    if step.kind == "one":
                        nexts = [position + 1] if accepts else []
                    else:
                        nexts = [position]
                        if accepts:
                            nexts.append(position + 1)
                    for q in nexts:
                        if self.viable(q, source):
                            stack.append((q, source))
        return frozenset(relation for _, relation in seen)


# -- subsumption factorization ----------------------------------------------------


def _signature(rule: "UnfoldedRule") -> dict[tuple[str, str], int]:
    """Cheap necessary condition for a homomorphism to exist."""
    out: dict[tuple[str, str], int] = {}
    for item in rule.items:
        key = (item.kind, item.atom.relation)
        out[key] = out.get(key, 0) + 1
    return out


def _extend(
    src: Term, dst: Term, mapping: dict[Variable, Term]
) -> dict[Variable, Term] | None:
    if isinstance(src, Variable):
        bound = mapping.get(src)
        if bound is None:
            extended = dict(mapping)
            extended[src] = dst
            return extended
        return mapping if bound == dst else None
    return mapping if src == dst else None


def _match_atoms(
    src: Atom, dst: Atom, mapping: dict[Variable, Term]
) -> dict[Variable, Term] | None:
    if src.relation != dst.relation or src.arity != dst.arity:
        return None
    current: dict[Variable, Term] | None = mapping
    for s, d in zip(src.terms, dst.terms):
        current = _extend(s, d, current)
        if current is None:
            return None
    return current


def _image_spec(
    spec_key: tuple[str, tuple[Term, ...]], theta: Mapping[Variable, Term]
) -> tuple[str, tuple[Term, ...]]:
    mapping, key = spec_key
    return (
        mapping,
        tuple(
            theta.get(t, t) if isinstance(t, Variable) else t for t in key
        ),
    )


def subsumes(
    general: "UnfoldedRule",
    specific: "UnfoldedRule",
    sig_g: frozenset[tuple[str, str]] | None = None,
    sig_s: frozenset[tuple[str, str]] | None = None,
) -> bool:
    """Does *general* make *specific* redundant?

    Requires a homomorphism ``h`` from *general* into *specific*
    (mapping the anchor onto the anchor and every body item onto a
    same-kind item), under which **every derivation spec of *specific*
    is the image of a spec of *general***.  The first condition gives
    answer containment; the second makes the kept rule reconstruct at
    least the derivation subgraph (and annotation monomials) the
    dropped rule would have contributed.

    ``sig_g``/``sig_s`` accept precomputed ``(kind, relation)`` key
    sets so incremental callers (:class:`Factorizer`) skip the rebuild.
    """
    if sig_g is None:
        sig_g = frozenset(_signature(general))
    if sig_s is None:
        sig_s = frozenset(_signature(specific))
    # h maps items of general ONTO items of specific: every kind/
    # relation of specific must be hit, so general must offer at least
    # one atom per (kind, relation) of specific, and vice versa no
    # general atom may lack a target.
    if sig_g != sig_s or len(general.items) < len(specific.items):
        return False
    spec_keys_g = [(s.mapping, s.key) for s in general.specs]
    spec_keys_s = {(s.mapping, s.key) for s in specific.specs}
    if len(spec_keys_g) < len(spec_keys_s):
        return False

    items_s = specific.items
    items_g = general.items

    def search(
        index: int, theta: dict[Variable, Term], hit: frozenset[int]
    ) -> bool:
        if index == len(items_g):
            if len(hit) != len(items_s):
                return False  # some atom of specific not covered
            image = {_image_spec(k, theta) for k in spec_keys_g}
            return spec_keys_s <= image
        src = items_g[index]
        for t_index, dst in enumerate(items_s):
            if dst.kind != src.kind:
                continue
            extended = _match_atoms(src.atom, dst.atom, theta)
            if extended is None:
                continue
            if search(index + 1, extended, hit | {t_index}):
                return True
        return False

    start = _match_atoms(general.anchor, specific.anchor, {})
    if start is None:
        return False
    return search(0, start, frozenset())


class Factorizer:
    """Incremental subsumption factorization of a rewriting set.

    Keeps :attr:`rules` minimal under :func:`subsumes` as rules are
    admitted one at a time; ``(kind, relation)`` signatures are
    computed once per rule, so the all-distinct common case (e.g. the
    fig08 chain) costs one frozenset comparison per kept rule.  The
    list object behind :attr:`rules` is mutated in place, so callers
    may hold it as their result list.
    """

    __slots__ = ("rules", "_sigs", "dropped")

    def __init__(self) -> None:
        self.rules: list["UnfoldedRule"] = []
        self._sigs: list[frozenset[tuple[str, str]]] = []
        #: rewritings dropped as subsumed so far.
        self.dropped = 0

    def admit(self, rule: "UnfoldedRule") -> bool:
        """Add *rule* unless subsumed; evict rules it subsumes."""
        sig = frozenset(_signature(rule))
        for kept, kept_sig in zip(self.rules, self._sigs):
            if subsumes(kept, rule, kept_sig, sig):
                self.dropped += 1
                return False
        survivors: list["UnfoldedRule"] = []
        survivor_sigs: list[frozenset[tuple[str, str]]] = []
        for kept, kept_sig in zip(self.rules, self._sigs):
            if subsumes(rule, kept, sig, kept_sig):
                self.dropped += 1
            else:
                survivors.append(kept)
                survivor_sigs.append(kept_sig)
        survivors.append(rule)
        survivor_sigs.append(sig)
        self.rules[:] = survivors
        self._sigs[:] = survivor_sigs
        return True


def factorize(
    rules: Sequence["UnfoldedRule"],
) -> tuple[list["UnfoldedRule"], int]:
    """Drop rules subsumed by another rule of the set.

    Returns ``(kept, dropped)``.  Quadratic with a cheap signature
    prefilter; rewriting sets are at most a few hundred rules.
    """
    factorizer = Factorizer()
    for rule in rules:
        factorizer.admit(rule)
    return factorizer.rules, factorizer.dropped


# -- the unfolded-program cache ---------------------------------------------------


class UnfoldCache:
    """Memoizes unfolded programs, keyed like ``CDSS.plan_cache``.

    The key combines a **query fingerprint** (mode, anchor relations,
    path text, resolved per-step mapping restrictions), the
    **order-normalized mapping fingerprint** (the same digest the
    compiled-exchange cache uses, so reordering mappings still hits),
    the set of **data-bearing local relations** (unfolding prunes local
    stops on empty tables, so the rewriting set is a function of which
    relations have data), and whether pruning was on.  Any drift in one
    of those misses safely; :meth:`invalidate` exists for hygiene when
    the owning CDSS's program changes.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple["UnfoldedRule", ...]] = {}
        #: lookups answered from the cache.
        self.hits = 0
        #: lookups that had to unfold.
        self.misses = 0
        #: explicit invalidations (program changed).
        self.invalidations = 0

    def get(self, key: tuple) -> list["UnfoldedRule"] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return list(entry)

    def put(self, key: tuple, rules: Iterable["UnfoldedRule"]) -> None:
        self._entries[key] = tuple(rules)

    def invalidate(self) -> None:
        """Drop every entry (the owning CDSS's program changed)."""
        if self._entries:
            self._entries.clear()
        self.invalidations += 1

    def __len__(self) -> int:
        return len(self._entries)
