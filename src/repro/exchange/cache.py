"""Compiled-program cache for incremental update exchange.

``CDSS.exchange()`` evaluates the same mapping program over and over —
once per batch of local updates.  Compiling the program (skolemization,
safety checks, one join plan per rule body atom) is pure function of
the rule text, so this module memoizes it:

* :func:`program_fingerprint` — a stable digest of a program's rules
  (names, heads, bodies; order-normalized, since rule order cannot
  change a semi-naive fixpoint).  Two programs with the same
  fingerprint compile to equivalent plans.
* :class:`CompiledExchangeProgram` — the prepared rules plus their
  compiled join plans, and a slot for the lazily attached SQL lowering
  (:mod:`repro.exchange.sql_plans`) so the SQLite engine shares the
  same cache entry.
* :class:`ProgramCache` — a fingerprint-keyed store with hit/miss
  counters.  :class:`~repro.cdss.system.CDSS` owns one and invalidates
  it whenever the program can change (``add_mapping`` / ``add_peer``);
  the fingerprint key makes even a missed invalidation safe, never
  stale.

On a cache hit, the engines report ``plans_compiled == 0`` in their
:class:`~repro.datalog.evaluation.EvaluationResult`, which is how the
benchmarks account for recompilation savings across incremental
exchanges.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.datalog.evaluation import _prepare
from repro.datalog.planner import CompiledRule, compile_program
from repro.datalog.rules import Program, Rule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exchange.reach_index import ReachSQL
    from repro.exchange.sql_plans import FixpointSQL


def program_fingerprint(program: Program | Iterable[Rule]) -> str:
    """Stable digest of a mapping program.

    Hashes the canonical text of every rule — name, head, and body
    (constants rendered with ``repr``) — so any change that could alter
    a compiled plan changes the fingerprint.  Rule texts are sorted
    before hashing: semi-naive evaluation is insensitive to rule order
    (every round runs all rules over the same delta snapshot), so a
    logically identical program with reordered mappings shares the
    fingerprint and reuses the cached plans instead of recompiling.
    """
    digest = hashlib.sha256()
    for text in sorted(str(rule) for rule in program):
        digest.update(text.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass
class CompiledExchangeProgram:
    """A prepared program plus everything both engines precompute."""

    fingerprint: str
    #: skolemized, safety-checked rules (in program order).
    rules: tuple[Rule, ...]
    #: one :class:`CompiledRule` per rule.
    compiled: tuple[CompiledRule, ...]
    #: SQL lowering of the exchange fixpoint, attached lazily by the
    #: SQLite engine so a memory-only workload never pays for it.
    sql: "FixpointSQL | None" = field(default=None, repr=False)
    #: SQL lowering of the relational DERIVABILITY test, attached
    #: lazily by the first sqlite-engine deletion propagation (or
    #: unindexed ``derivability``/``trusted`` graph query).
    derivability: "FixpointSQL | None" = field(default=None, repr=False)
    #: SQL lowering of the backward lineage walk, attached lazily by
    #: the first unindexed sqlite-engine ``lineage`` query.
    lineage: "FixpointSQL | None" = field(default=None, repr=False)
    #: SQL lowering of the maintained reachability index
    #: (:mod:`repro.exchange.reach_index`), attached lazily by the
    #: first sqlite-engine exchange or indexed graph query.
    reach: "ReachSQL | None" = field(default=None, repr=False)

    @property
    def plan_count(self) -> int:
        """Join plans held by this program (one per rule body atom)."""
        return sum(len(crule.plans) for crule in self.compiled)


def compile_exchange_program(
    program: Program, fingerprint: str | None = None
) -> CompiledExchangeProgram:
    """Prepare and compile *program* into a cacheable unit."""
    if fingerprint is None:
        fingerprint = program_fingerprint(program)
    rules = tuple(_prepare(program))
    return CompiledExchangeProgram(fingerprint, rules, compile_program(rules))


class ProgramCache:
    """Fingerprint-keyed cache of :class:`CompiledExchangeProgram`.

    >>> cache = ProgramCache()
    >>> from repro.datalog.parser import parse_program
    >>> program = parse_program("r: T(x) :- R(x)")
    >>> _, hit = cache.fetch(program)
    >>> hit
    False
    >>> _, hit = cache.fetch(program)
    >>> hit
    True
    """

    def __init__(self) -> None:
        self._entries: dict[str, CompiledExchangeProgram] = {}
        #: fetches answered from the cache.
        self.hits = 0
        #: fetches that had to compile.
        self.misses = 0
        #: explicit invalidations (``add_mapping`` / ``add_peer``).
        self.invalidations = 0

    def fetch(self, program: Program) -> tuple[CompiledExchangeProgram, bool]:
        """Return (compiled program, was it a cache hit)."""
        fingerprint = program_fingerprint(program)
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self.hits += 1
            return entry, True
        self.misses += 1
        entry = compile_exchange_program(program, fingerprint)
        self._entries[fingerprint] = entry
        return entry, False

    def get(self, fingerprint: str) -> CompiledExchangeProgram | None:
        return self._entries.get(fingerprint)

    def put(self, entry: CompiledExchangeProgram) -> CompiledExchangeProgram:
        self._entries[entry.fingerprint] = entry
        return entry

    def invalidate(self) -> None:
        """Drop every entry (the owning CDSS's program changed)."""
        if self._entries:
            self._entries.clear()
        self.invalidations += 1

    def __len__(self) -> int:
        return len(self._entries)
