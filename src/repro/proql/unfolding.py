"""Breadth-first rule unfolding (Section 4.2.3–4.2.4, Examples 4.2/4.3).

For acyclic provenance, each tuple has finitely many derivation-tree
shapes; unfolding enumerates them as a union of conjunctive rules over
provenance relations (``P_m``), local-contribution relations
(``R_l``), and — for pattern-bounded queries — plain public relations.

Two modes:

* :meth:`Unfolder.full_ancestry` — every atom unfolds down to local
  leaves, covering **complete derivations from leaf nodes** (needed by
  annotation computation and by the ``<-+ []`` target query of the
  experiments).  "For every join we need to consider all combinations
  for each side of the join" — this is the exponential blow-up of
  Figures 7–8.
* :meth:`Unfolder.pattern` — unfolding driven by a path expression's
  NFA over the provenance schema graph: the path continues through one
  source atom per derivation; off-path atoms stay as base-relation
  atoms (Example 4.3 keeps ``A(i, s, _)`` and ``N(i, n, false)``).

Both modes **merge derivation specs** that denote the same derivation
node: the provenance-relation columns functionally determine a firing,
so two specs of one mapping with syntactically equal key terms are the
same derivation, and their atom sets are unified.  This mirrors how a
multi-target mapping produces sibling tuples in one firing, and keeps
the rule count at one-rule-per-derivation-*shape*.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

from repro.cdss.mapping import SchemaMapping, provenance_relation_name
from repro.cdss.system import CDSS, local_rule_name
from repro.datalog.atoms import Atom
from repro.datalog.terms import Term, Variable
from repro.datalog.unification import unify_atoms
from repro.errors import ProQLSemanticError
from repro.exchange.cache import program_fingerprint
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.proql.ast import PathExpr, Step, TupleSpec
from repro.proql.pruning import (
    Factorizer,
    PatternViability,
    PruningOracle,
    UnfoldCache,
)
from repro.proql.schema_graph import SchemaGraph
from repro.relational.schema import is_local_name, local_name


class _StageClock:
    """Per-stage time accumulators of one unfolding run.

    The worklist loop runs thousands of iterations on fig08-sized
    topologies, so stages are timed with plain guarded ``perf_counter``
    reads (no span per iteration); the accumulated totals are emitted
    as :meth:`~repro.obs.trace.Tracer.record` pseudo-spans at the end
    of the run.  ``expand`` includes the merge time spent inside
    :meth:`Unfolder._merge_specs`; the emitter subtracts it so the
    reported stages stay disjoint.  ``prune`` covers the subsumption
    factorization at rule-completion time; ``pruned_rules`` counts the
    rewritings it dropped.
    """

    __slots__ = ("enabled", "expand", "merge", "dedupe", "prune", "pruned_rules")

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.expand = 0.0
        self.merge = 0.0
        self.dedupe = 0.0
        self.prune = 0.0
        self.pruned_rules = 0

    def emit(self, tracer: "Tracer | NullTracer") -> None:
        if not self.enabled:
            return
        tracer.record("unfold.expand", max(0.0, self.expand - self.merge))
        tracer.record("unfold.merge_specs", self.merge)
        tracer.record("unfold.dedupe", self.dedupe)
        tracer.record("unfold.prune", self.prune, rules=self.pruned_rules)

KIND_OPEN = "open"
KIND_PROV = "prov"
KIND_LOCAL = "local"
KIND_BASE = "base"


@dataclass(frozen=True)
class BodyItem:
    """One body atom of a (partially) unfolded rule."""

    atom: Atom
    kind: str
    #: mappings already used on this branch (cycle prevention, §4.2.2)
    visited: frozenset = frozenset()
    #: pattern-NFA states (pattern mode only)
    states: frozenset = frozenset()

    def substitute(self, theta: Mapping[Variable, Term]) -> "BodyItem":
        atom = self.atom.substitute(theta)
        return self if atom is self.atom else replace(self, atom=atom)


@dataclass(frozen=True)
class DerivSpec:
    """One derivation node of the rule's derivation-tree shape."""

    mapping: str
    head: tuple[Atom, ...]
    body: tuple[Atom, ...]
    #: terms of the provenance columns — the derivation's identity
    key: tuple[Term, ...]

    def substitute(self, theta: Mapping[Variable, Term]) -> "DerivSpec":
        return DerivSpec(
            self.mapping,
            tuple(a.substitute(theta) for a in self.head),
            tuple(a.substitute(theta) for a in self.body),
            tuple(_substitute_term(t, theta) for t in self.key),
        )


def _substitute_term(term: Term, theta: Mapping[Variable, Term]) -> Term:
    from repro.datalog.terms import substitute

    return substitute(term, theta)


@dataclass
class UnfoldedRule:
    """A complete conjunctive rule plus its derivation-tree shape."""

    anchor: Atom
    items: tuple[BodyItem, ...]
    specs: tuple[DerivSpec, ...]
    not_null: frozenset = frozenset()
    completed: bool = False

    def substitute(self, theta: Mapping[Variable, Term]) -> "UnfoldedRule":
        return UnfoldedRule(
            self.anchor.substitute(theta),
            tuple(item.substitute(theta) for item in self.items),
            tuple(spec.substitute(theta) for spec in self.specs),
            frozenset(
                v
                for v in (
                    theta.get(var, var) for var in self.not_null
                )
                if isinstance(v, Variable)
            ),
            self.completed,
        )

    def variables(self) -> list[Variable]:
        seen: dict[Variable, None] = {}
        for atom in (self.anchor, *(item.atom for item in self.items)):
            for var in atom.variables():
                seen.setdefault(var)
        for spec in self.specs:
            for atom in spec.head + spec.body:
                for var in atom.variables():
                    seen.setdefault(var)
        return list(seen)

    def open_index(self) -> int | None:
        for index, item in enumerate(self.items):
            if item.kind == KIND_OPEN:
                return index
        return None

    def canonical_key(self) -> tuple:
        """Structure key for duplicate-rule elimination.

        Renames variables in first-occurrence order over the anchor and
        the (sorted) body, so alpha-equivalent rules collide.
        """
        renaming: dict[Variable, Variable] = {}

        def canon(atom: Atom) -> str:
            terms = []
            for term in atom.terms:
                if isinstance(term, Variable):
                    fresh = renaming.setdefault(
                        term, Variable(f"c{len(renaming)}")
                    )
                    terms.append(fresh.name)
                else:
                    terms.append(str(term))
            return f"{atom.relation}({','.join(terms)})"

        anchor_key = canon(self.anchor)
        # Canonicalize body atoms in a deterministic order: sort by
        # (kind, relation, raw string) first, then rename in that order.
        ordered = sorted(
            self.items, key=lambda it: (it.kind, it.atom.relation, str(it.atom))
        )
        body_key = tuple((item.kind, canon(item.atom)) for item in ordered)
        return (anchor_key, body_key)

    def __str__(self) -> str:
        body = ", ".join(
            f"{item.atom}" + ("" if item.kind != KIND_BASE else "°")
            for item in self.items
        )
        return f"{self.anchor} :- {body}"


class Unfolder:
    """Builds unions of conjunctive rules from the schema graph."""

    def __init__(
        self,
        cdss: CDSS,
        schema_graph: SchemaGraph | None = None,
        has_local_data: Callable[[str], bool] | None = None,
        max_rules: int = 100_000,
        tracer: "Tracer | NullTracer | None" = None,
        prune: bool = True,
        cache: UnfoldCache | None = None,
    ) -> None:
        self.cdss = cdss
        self.graph = schema_graph or SchemaGraph.of(cdss)
        if has_local_data is None:
            has_local_data = lambda relation: (
                self.cdss.instance.size(local_name(relation)) > 0
            )
        self.has_local_data = has_local_data
        self.max_rules = max_rules
        if tracer is None:
            tracer = getattr(cdss, "tracer", None) or NULL_TRACER
        self.tracer: "Tracer | NullTracer" = tracer
        #: apply the static pruning oracle + subsumption factorization
        #: (equivalence-preserving; ``False`` gives the exhaustive
        #: enumeration, kept for the property tests).
        self.prune = prune
        #: optional :class:`~repro.proql.pruning.UnfoldCache`; repeat
        #: queries over unchanged mappings/data skip unfolding.
        self.cache = cache
        self._clock = _StageClock(False)
        self._fresh = itertools.count()

    # -- shared helpers ------------------------------------------------------------

    def _fresh_mapping(self, mapping: SchemaMapping) -> tuple[
        Atom | None, tuple[Atom, ...], tuple[Atom, ...], tuple[Term, ...], str
    ]:
        """Rename a mapping apart; return (P-atom|None, head, body, key,
        rename suffix)."""
        suffix = f"__u{next(self._fresh)}"
        rule = mapping.rule.rename_variables(suffix)
        key_terms = tuple(
            Variable(column.name + suffix) for column in mapping.provenance_columns
        )
        prov_atom = None
        if not mapping.is_superfluous:
            prov_atom = Atom(provenance_relation_name(mapping.name), key_terms)
        return prov_atom, rule.head, rule.body, key_terms, suffix

    def _data_relations(self) -> frozenset[str]:
        """Public relations whose local tables currently hold data."""
        return frozenset(
            relation
            for relation in self.graph.relations
            if self.has_local_data(relation)
        )

    def _oracle(self) -> PruningOracle | None:
        """A fresh pruning oracle for one run (None with pruning off).

        Rebuilt per run because productivity depends on which local
        tables hold data *now*; the fixpoint is linear in the schema
        graph and costs microseconds next to the unfolding itself.
        """
        if not self.prune:
            return None
        return PruningOracle(self.graph, self.has_local_data)

    def _cache_key(self, mode: str, query_fingerprint: tuple) -> tuple:
        """(query fingerprint, mapping fingerprint, data, prune) key."""
        return (
            mode,
            query_fingerprint,
            program_fingerprint(m.rule for m in self.cdss.mappings.values()),
            self._data_relations(),
            self.prune,
        )

    def _cache_get(self, key: tuple | None) -> list[UnfoldedRule] | None:
        if self.cache is None or key is None:
            return None
        rules = self.cache.get(key)
        metrics = getattr(self.cdss, "metrics", None)
        if metrics is not None:
            metrics.add(
                "unfold.cache_hits" if rules is not None
                else "unfold.cache_misses"
            )
        return rules

    def _cache_put(
        self, key: tuple | None, rules: list[UnfoldedRule]
    ) -> None:
        if self.cache is not None and key is not None:
            self.cache.put(key, rules)

    def _anchor_atom(self, relation: str) -> Atom:
        schema = self.cdss.catalog[relation]
        suffix = f"__a{next(self._fresh)}"
        return Atom(
            relation,
            tuple(Variable(f"{name}{suffix}") for name in schema.attribute_names),
        )

    def _merge_specs(self, rule: UnfoldedRule) -> UnfoldedRule:
        """Unify derivation specs denoting the same derivation node.

        The provenance columns identify a firing, so specs of one
        mapping with equal key terms are the same derivation; their
        atoms are unified and one copy kept.  Grouping by (mapping,
        key) keeps this linear in the number of specs per pass.
        """
        clock = self._clock
        if not clock.enabled:
            return self._merge_specs_impl(rule)
        t0 = time.perf_counter()
        try:
            return self._merge_specs_impl(rule)
        finally:
            clock.merge += time.perf_counter() - t0

    def _merge_specs_impl(self, rule: UnfoldedRule) -> UnfoldedRule:
        while True:
            groups: dict[tuple, list[int]] = {}
            for index, spec in enumerate(rule.specs):
                groups.setdefault((spec.mapping, spec.key), []).append(index)
            duplicate = next(
                (indices for indices in groups.values() if len(indices) > 1),
                None,
            )
            if duplicate is None:
                break
            i, j = duplicate[0], duplicate[1]
            first, second = rule.specs[i], rule.specs[j]
            theta: dict[Variable, Term] = {}
            consistent = True
            # Unify with the *newer* spec on the left so its (freshly
            # renamed) variables bind toward the older spec's terms —
            # the substitution then touches as few atoms as possible.
            for b, a in zip(first.head + first.body, second.head + second.body):
                unifier = unify_atoms(a.substitute(theta), b.substitute(theta))
                if unifier is None:
                    consistent = False
                    break
                composed = {
                    var: _substitute_term(term, unifier)
                    for var, term in theta.items()
                }
                composed.update(unifier)
                theta = composed
            if not consistent:  # pragma: no cover - keys identify firings
                break
            merged = rule.substitute(theta) if theta else rule
            kept = list(merged.specs)
            del kept[j]
            rule = UnfoldedRule(
                merged.anchor,
                merged.items,
                tuple(kept),
                merged.not_null,
                merged.completed,
            )
        return self._dedupe_items(rule)

    @staticmethod
    def _dedupe_items(rule: UnfoldedRule) -> UnfoldedRule:
        """Collapse syntactically equal body atoms.

        Open duplicates keep the union of their visited sets and
        pattern states; a non-open copy of the same atom subsumes an
        open one only if kinds match, so open/prov/local/base are
        deduped within their own kind.
        """
        merged: dict[tuple[str, Atom], BodyItem] = {}
        order: list[tuple[str, Atom]] = []
        for item in rule.items:
            key = (item.kind, item.atom)
            if key in merged:
                existing = merged[key]
                merged[key] = replace(
                    existing,
                    visited=existing.visited | item.visited,
                    states=existing.states | item.states,
                )
            else:
                merged[key] = item
                order.append(key)
        return UnfoldedRule(
            rule.anchor,
            tuple(merged[key] for key in order),
            rule.specs,
            rule.not_null,
            rule.completed,
        )

    def _already_resolved(self, rule: UnfoldedRule, item: BodyItem) -> bool:
        """True iff the open atom's node already has a derivation in
        the rule.

        After a spec merge, the duplicate spec's source atoms reappear
        as open items; each denotes a tuple node whose derivation
        choice was already made on the first branch (a derivation tree
        gives every node one deriving rule).  Such items are dropped
        instead of re-expanded — both for correctness (one choice per
        node per tree shape) and to avoid exponential re-exploration.
        """
        atom = item.atom
        local_atom = Atom(local_name(atom.relation), atom.terms)
        for other in rule.items:
            if other.kind == KIND_LOCAL and other.atom == local_atom:
                return True
        for spec in rule.specs:
            if atom in spec.head:
                return True
        return False

    def _drop_item(self, rule: UnfoldedRule, index: int) -> UnfoldedRule:
        items = list(rule.items)
        del items[index]
        return UnfoldedRule(
            rule.anchor, tuple(items), rule.specs, rule.not_null, rule.completed
        )

    def _guard(self, count: int, relation: str) -> None:
        if count > self.max_rules:
            raise ProQLSemanticError(
                f"unfolding derivations of {relation!r} exceeded the "
                f"limit: {count} rules > max_rules={self.max_rules}.  "
                f"The mapping closure upstream of {relation!r} is too "
                "complex (see Figure 7's exponential growth); raise "
                "max_rules=, constrain the path with named mappings/"
                "relations, or prune the topology"
            )

    def _admit(
        self,
        rule: UnfoldedRule,
        complete: list[UnfoldedRule],
        factorizer: Factorizer | None,
        clock: _StageClock,
    ) -> None:
        """Append *rule* unless subsumed; evict rules it subsumes.

        The Gottlob et al. factorization step, run incrementally at
        rule-completion time so the worklist never re-explores a
        rewriting the factorizer already covered.  ``factorizer.rules``
        *is* ``complete`` (same list object, mutated in place).
        """
        if factorizer is None:
            complete.append(rule)
            return
        t0 = time.perf_counter() if clock.enabled else 0.0
        before = factorizer.dropped
        factorizer.admit(rule)
        clock.pruned_rules += factorizer.dropped - before
        if clock.enabled:
            clock.prune += time.perf_counter() - t0

    # -- mode B: full ancestry ------------------------------------------------------

    def full_ancestry(
        self,
        anchor_relation: str,
        allowed_mappings: set[str] | None = None,
    ) -> list[UnfoldedRule]:
        """All derivation-tree shapes for tuples of *anchor_relation*.

        Every atom unfolds to either its local-contribution table or a
        provenance step through an allowed mapping; rules whose atoms
        can do neither are dropped (their joins would be empty).  With
        :attr:`prune` on, the oracle cuts such branches *before* they
        are explored (unproductive relations can have no derivation)
        and subsumed rewritings are factorized away on completion.
        """
        if allowed_mappings is None:
            allowed_mappings = self.graph.upstream_mappings([anchor_relation])
        cache_key = self._cache_key(
            "full", (anchor_relation, tuple(sorted(allowed_mappings)))
        )
        cached = self._cache_get(cache_key)
        if cached is not None:
            return cached
        oracle = self._oracle()
        anchor = self._anchor_atom(anchor_relation)
        start = UnfoldedRule(
            anchor,
            (BodyItem(anchor, KIND_OPEN),),
            (),
            completed=True,
        )
        factorizer = Factorizer() if self.prune else None
        complete: list[UnfoldedRule] = (
            factorizer.rules if factorizer is not None else []
        )
        seen: set[tuple] = set()
        worklist = [start]
        clock = self._clock = _StageClock(self.tracer.enabled)
        if oracle is not None and not oracle.productive(anchor_relation):
            clock.emit(self.tracer)
            self._cache_put(cache_key, complete)
            return complete
        while worklist:
            rule = worklist.pop()
            index = rule.open_index()
            if index is None:
                t0 = time.perf_counter() if clock.enabled else 0.0
                key = rule.canonical_key()
                if clock.enabled:
                    clock.dedupe += time.perf_counter() - t0
                if key not in seen:
                    seen.add(key)
                    self._admit(rule, complete, factorizer, clock)
                    self._guard(len(complete), anchor_relation)
                continue
            if self._already_resolved(rule, rule.items[index]):
                worklist.append(self._drop_item(rule, index))
                continue
            t0 = time.perf_counter() if clock.enabled else 0.0
            worklist.extend(
                self._alternatives(rule, index, allowed_mappings, oracle)
            )
            if clock.enabled:
                clock.expand += time.perf_counter() - t0
            self._guard(len(worklist) + len(complete), anchor_relation)
        clock.emit(self.tracer)
        self._cache_put(cache_key, complete)
        return complete

    def _alternatives(
        self,
        rule: UnfoldedRule,
        index: int,
        allowed_mappings: set[str],
        oracle: PruningOracle | None = None,
    ) -> list[UnfoldedRule]:
        """Local-stop and mapping-step alternatives for one open atom
        (full-ancestry mode)."""
        item = rule.items[index]
        relation = item.atom.relation
        if oracle is not None and not oracle.productive(relation):
            # No derivation can ground this atom: the whole rule is
            # dead, so stop exploring it (and its sibling atoms) now.
            return []
        out: list[UnfoldedRule] = []
        if self.has_local_data(relation):
            out.append(self._stop_local(rule, index))
        names = (
            oracle.useful_mappings(relation)
            if oracle is not None
            else self.graph.mappings_into(relation)
        )
        for name in names:
            if name not in allowed_mappings or name in item.visited:
                continue
            mapping = self.cdss.mappings[name]
            for unfolded in self._apply_mapping(rule, index, mapping):
                out.append(unfolded)
        return out

    def _stop_local(
        self, rule: UnfoldedRule, index: int, states: frozenset = frozenset()
    ) -> UnfoldedRule:
        """Step the atom at *index* to its local contribution through
        ``L_R``.  With pattern *states* the ``R_l`` atom stays open, so
        the pattern can end there; without, it is a finished leaf."""
        item = rule.items[index]
        relation = item.atom.relation
        local_atom = Atom(local_name(relation), item.atom.terms)
        items = list(rule.items)
        items[index] = (
            BodyItem(local_atom, KIND_OPEN, states=states)
            if states
            else BodyItem(local_atom, KIND_LOCAL)
        )
        spec = DerivSpec(
            local_rule_name(relation),
            (item.atom,),
            (local_atom,),
            item.atom.terms,
        )
        return self._dedupe_items(
            UnfoldedRule(
                rule.anchor,
                tuple(items),
                rule.specs + (spec,),
                rule.not_null,
                rule.completed,
            )
        )

    def _apply_mapping(
        self,
        rule: UnfoldedRule,
        index: int,
        mapping: SchemaMapping,
        continue_indices: Iterable[int] | None = None,
        new_states: frozenset = frozenset(),
    ) -> list[UnfoldedRule]:
        """Unfold the open atom at *index* through *mapping*.

        In full-ancestry mode every new body atom stays open
        (``continue_indices`` is None).  In pattern mode only the
        continuation atom keeps pattern states; its siblings become
        open with empty states (they still unfold to leaves in
        annotation-complete queries) — pattern mode instead passes an
        explicit list and marks the rest as base atoms.
        """
        item = rule.items[index]
        out: list[UnfoldedRule] = []
        for head_index, _ in enumerate(mapping.head):
            prov_atom, head, body, key, suffix = self._fresh_mapping(mapping)
            head_atom = head[head_index]
            if head_atom.relation != item.atom.relation:
                continue
            # Unify with the fresh head atom on the left so its renamed
            # variables bind toward the rule's terms: bindings for the
            # rule's own variables then only arise from repeated
            # variables or constants in the mapping head.  Splitting
            # theta on the rename suffix lets the (usually empty)
            # rule-side part skip the whole-rule substitution — the
            # dominant cost on fig08-sized unfoldings.
            theta = unify_atoms(head_atom, item.atom)
            if theta is None:
                continue
            rule_theta = {
                var: term
                for var, term in theta.items()
                if not var.name.endswith(suffix)
            }
            renamed = rule.substitute(rule_theta) if rule_theta else rule
            new_items = list(renamed.items)
            visited = item.visited | {mapping.name}
            replacement: list[BodyItem] = []
            if prov_atom is not None:
                replacement.append(
                    BodyItem(prov_atom.substitute(theta), KIND_PROV)
                )
            body_items: list[BodyItem] = []
            for body_index, body_atom in enumerate(body):
                substituted = body_atom.substitute(theta)
                if continue_indices is None:
                    body_items.append(
                        BodyItem(substituted, KIND_OPEN, visited=visited)
                    )
                elif body_index in set(continue_indices):
                    body_items.append(
                        BodyItem(
                            substituted,
                            KIND_OPEN,
                            visited=visited,
                            states=new_states,
                        )
                    )
                else:
                    body_items.append(BodyItem(substituted, KIND_BASE))
            replacement.extend(body_items)
            new_items[index : index + 1] = replacement
            spec = DerivSpec(
                mapping.name,
                tuple(a.substitute(theta) for a in head),
                tuple(a.substitute(theta) for a in body),
                tuple(_substitute_term(t, theta) for t in key),
            )
            candidate = UnfoldedRule(
                renamed.anchor,
                tuple(new_items),
                renamed.specs + (spec,),
                renamed.not_null,
                renamed.completed,
            )
            out.append(self._merge_specs(candidate))
        return out

    # -- mode A: pattern-driven ------------------------------------------------------

    def pattern(
        self,
        path: PathExpr,
        anchor_relations: Iterable[str],
        step_mappings: Callable[[Step], set[str] | None] | None = None,
    ) -> list[UnfoldedRule]:
        """Unfolded rules for one FOR/INCLUDE path expression.

        ``anchor_relations`` instantiates the leftmost spec (named
        relation, or every relation when unconstrained).
        ``step_mappings`` supplies per-step mapping restrictions (from
        ``<m`` steps and WHERE conditions on ``<$p`` variables).

        A single trailing ``<-+ []`` with an unrestricted endpoint is
        full ancestry — delegated to mode B, which covers the same
        subgraph with complete derivation trees.
        """
        steps, specs = path.steps, path.specs
        if (
            len(steps) == 1
            and steps[0].kind == "plus"
            and specs[1].relation is None
        ):
            rules: list[UnfoldedRule] = []
            for relation in anchor_relations:
                rules.extend(self.full_ancestry(relation))
            return rules
        get_allowed = step_mappings or (lambda step: None)
        anchors = tuple(anchor_relations)
        resolved_allowed = tuple(
            None if (allowed := get_allowed(step)) is None
            else tuple(sorted(allowed))
            for step in steps
        )
        cache_key = self._cache_key(
            "pattern", (str(path), tuple(sorted(anchors)), resolved_allowed)
        )
        cached = self._cache_get(cache_key)
        if cached is not None:
            return cached
        oracle = self._oracle()
        viability = (
            PatternViability(self.graph, path, get_allowed)
            if self.prune
            else None
        )
        factorizer = Factorizer() if self.prune else None
        complete: list[UnfoldedRule] = (
            factorizer.rules if factorizer is not None else []
        )
        seen: set[tuple] = set()
        worklist: list[UnfoldedRule] = []
        for relation in anchors:
            if viability is not None and not viability.start_viable(relation):
                # The path NFA cannot reach a final state from this
                # anchor over the schema graph: statically empty.
                continue
            anchor = self._anchor_atom(relation)
            worklist.append(
                UnfoldedRule(
                    anchor,
                    (
                        BodyItem(
                            anchor, KIND_OPEN, states=frozenset([0])
                        ),
                    ),
                    (),
                )
            )
        clock = self._clock = _StageClock(self.tracer.enabled)
        while worklist:
            rule = worklist.pop()
            index = rule.open_index()
            if index is None:
                if rule.completed:
                    t0 = time.perf_counter() if clock.enabled else 0.0
                    key = rule.canonical_key()
                    if clock.enabled:
                        clock.dedupe += time.perf_counter() - t0
                    if key not in seen:
                        seen.add(key)
                        self._admit(rule, complete, factorizer, clock)
                        self._guard(len(complete), rule.anchor.relation)
                continue
            item = rule.items[index]
            if not item.states and self._already_resolved(rule, item):
                worklist.append(self._drop_item(rule, index))
                continue
            t0 = time.perf_counter() if clock.enabled else 0.0
            worklist.extend(
                self._pattern_alternatives(
                    rule, index, path, get_allowed, oracle, viability
                )
            )
            if clock.enabled:
                clock.expand += time.perf_counter() - t0
            self._guard(
                len(worklist) + len(complete), rule.anchor.relation
            )
        clock.emit(self.tracer)
        self._cache_put(cache_key, complete)
        return complete

    def _pattern_alternatives(
        self,
        rule: UnfoldedRule,
        index: int,
        path: PathExpr,
        get_allowed: Callable[[Step], set[str] | None],
        oracle: PruningOracle | None = None,
        viability: PatternViability | None = None,
    ) -> list[UnfoldedRule]:
        item = rule.items[index]
        steps = path.steps
        out: list[UnfoldedRule] = []
        final = len(steps)
        # Stop option: pattern complete at this atom -> base atom.
        # With the oracle on, a base atom over an unproductive relation
        # is an empty join — skip emitting the rule at all.
        if final in item.states or not item.states:
            if oracle is None or oracle.productive(item.atom.relation):
                items = list(rule.items)
                items[index] = BodyItem(item.atom, KIND_BASE)
                out.append(
                    UnfoldedRule(
                        rule.anchor,
                        tuple(items),
                        rule.specs,
                        rule.not_null,
                        rule.completed or final in item.states,
                    )
                )
        # Continue options: one derivation step through each candidate
        # mapping — or the L_R step into the local contribution —
        # continuing the pattern through one source atom.
        active = [p for p in item.states if p < final]
        if not active:
            return out
        relation = item.atom.relation

        def usable_for(name: str) -> list[int]:
            """The active states whose step may traverse *name*."""
            return [
                p
                for p in active
                if steps[p].mapping in (None, name)
                and (
                    (allowed := get_allowed(steps[p])) is None
                    or name in allowed
                )
            ]

        def step_states(usable: list[int], source: str) -> frozenset:
            """NFA states after stepping backward into *source*."""
            states = self._transition(usable, steps, path.specs, source)
            if viability is not None:
                # Drop NFA states that can no longer reach a final
                # state from this relation over the schema graph.
                states = frozenset(
                    q for q in states if viability.viable(q, source)
                )
            return states

        if not is_local_name(relation) and self.has_local_data(relation):
            local_states = step_states(
                usable_for(local_rule_name(relation)), local_name(relation)
            )
            if local_states:
                out.append(self._stop_local(rule, index, local_states))
        names = (
            oracle.useful_mappings(relation)
            if oracle is not None
            else self.graph.mappings_into(relation)
        )
        for name in names:
            if name in item.visited:
                continue
            mapping = self.cdss.mappings[name]
            usable = usable_for(name)
            if not usable:
                continue
            for source_index, source_atom in enumerate(mapping.body):
                new_states = step_states(usable, source_atom.relation)
                if not new_states:
                    continue
                out.extend(
                    self._apply_mapping(
                        rule,
                        index,
                        mapping,
                        continue_indices=[source_index],
                        new_states=new_states,
                    )
                )
        return out

    @staticmethod
    def _transition(
        states: Iterable[int],
        steps: tuple[Step, ...],
        specs: tuple[TupleSpec, ...],
        to_relation: str,
    ) -> frozenset:
        """NFA transition: consume one backward edge into *to_relation*."""
        result: set[int] = set()
        for position in states:
            step = steps[position]
            next_spec = specs[position + 1]
            accepts = next_spec.relation is None or next_spec.relation == to_relation
            if step.kind == "one":
                if accepts:
                    result.add(position + 1)
            else:  # plus: stay inside, or exit at the endpoint spec
                result.add(position)
                if accepts:
                    result.add(position + 1)
        return frozenset(result)
