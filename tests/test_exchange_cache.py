"""Tests for the compiled-program cache (repro.exchange.cache)."""

import pytest

from repro.cdss import CDSS, Peer
from repro.datalog.parser import parse_program
from repro.exchange import (
    CompiledExchangeProgram,
    ProgramCache,
    compile_exchange_program,
    program_fingerprint,
)
from repro.relational import RelationSchema


def simple_program(extra: str = ""):
    text = """
    L_R: R(x, y) :- R_l(x, y)
    join: T(x, z) :- R(x, y), R(y, z)
    """
    if extra:
        text += extra + "\n"
    return parse_program(text)


class TestFingerprint:
    def test_stable_across_parses(self):
        assert program_fingerprint(simple_program()) == program_fingerprint(
            simple_program()
        )

    def test_sensitive_to_rules(self):
        assert program_fingerprint(simple_program()) != program_fingerprint(
            simple_program("copy: T(x, y) :- R(x, y)")
        )

    def test_insensitive_to_rule_order(self):
        # Rule order cannot change a semi-naive fixpoint, so reordered
        # programs share plans instead of recompiling.
        a = parse_program("r1: T(x) :- R(x)\nr2: U(x) :- R(x)")
        b = parse_program("r2: U(x) :- R(x)\nr1: T(x) :- R(x)")
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_sensitive_to_rule_names(self):
        a = parse_program("r1: T(x) :- R(x)")
        b = parse_program("r2: T(x) :- R(x)")
        assert program_fingerprint(a) != program_fingerprint(b)


class TestProgramCache:
    def test_miss_then_hit(self):
        cache = ProgramCache()
        program = simple_program()
        first, hit1 = cache.fetch(program)
        second, hit2 = cache.fetch(simple_program())
        assert (hit1, hit2) == (False, True)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_reordered_program_hits_and_evaluates_identically(self):
        """A reordered (logically identical) program is a cache hit,
        and evaluating through the cached entry — whose compiled rules
        keep the *first* program's order — produces the same instance
        and provenance graph as compiling fresh."""
        from repro.datalog import evaluate, parse_program as parse
        from repro.relational import Catalog, Instance, RelationSchema

        text_a = "L_R: R(x, y) :- R_l(x, y)\njoin: T(x, z) :- R(x, y), R(y, z)"
        text_b = "join: T(x, z) :- R(x, y), R(y, z)\nL_R: R(x, y) :- R_l(x, y)"
        cache = ProgramCache()
        entry_a, hit_a = cache.fetch(parse(text_a))
        entry_b, hit_b = cache.fetch(parse(text_b))
        assert (hit_a, hit_b) == (False, True)
        assert entry_a is entry_b

        catalog = Catalog(
            [
                RelationSchema.of("R_l", ["a", "b"]),
                RelationSchema.of("R", ["a", "b"]),
                RelationSchema.of("T", ["a", "b"]),
            ]
        )
        cached, fresh = Instance(catalog), Instance(catalog)
        for instance in (cached, fresh):
            instance.insert_many("R_l", [(1, 2), (2, 3), (3, 1)])
        via_cache = evaluate(parse(text_b), cached, compiled_program=entry_b)
        via_compile = evaluate(parse(text_b), fresh)
        assert via_cache.plans_compiled == 0
        assert cached == fresh
        assert via_cache.graph.tuples == via_compile.graph.tuples
        assert via_cache.graph.derivations == via_compile.graph.derivations

    def test_invalidate_drops_entries(self):
        cache = ProgramCache()
        cache.fetch(simple_program())
        assert len(cache) == 1
        cache.invalidate()
        assert len(cache) == 0
        _, hit = cache.fetch(simple_program())
        assert not hit

    def test_plan_count(self):
        program = compile_exchange_program(simple_program())
        assert isinstance(program, CompiledExchangeProgram)
        # L_R has 1 body atom, join has 2 -> 3 plans.
        assert program.plan_count == 3


def _cdss():
    system = CDSS(
        [
            Peer.of(
                "P",
                [
                    RelationSchema.of("R", ["a", "b"]),
                    RelationSchema.of("T", ["a", "b"]),
                ],
            )
        ]
    )
    system.add_mapping("m1: T(x, z) :- R(x, y), R(y, z)", name="m1")
    system.insert_local_many("R", [(1, 2), (2, 3)])
    return system


class TestCDSSIntegration:
    @pytest.mark.parametrize("engine", ["memory", "sqlite"])
    def test_second_exchange_compiles_zero_plans(self, engine):
        system = _cdss()
        first = system.exchange(engine=engine)
        assert first.plans_compiled > 0
        assert not first.plan_cache_hit
        system.insert_local("R", (3, 4))
        second = system.exchange(engine=engine)
        assert second.plans_compiled == 0
        assert second.plan_cache_hit
        assert system.plan_cache.hits == 1

    def test_add_mapping_invalidates(self):
        system = _cdss()
        system.exchange()
        system.add_mapping("m2: T(x, y) :- R(x, y)", name="m2")
        result = system.exchange()
        assert result.plans_compiled > 0
        assert not result.plan_cache_hit

    def test_add_peer_invalidates(self):
        system = _cdss()
        system.exchange()
        system.add_peer(Peer.of("Q", [RelationSchema.of("S", ["a"])]))
        result = system.exchange()
        assert result.plans_compiled > 0
        assert not result.plan_cache_hit

    def test_engines_share_cache(self):
        # One compiled program serves both engines: a sqlite-engine
        # system sharing a memory-engine twin's cache compiles nothing.
        memory, sqlite = _cdss(), _cdss()
        sqlite.plan_cache = memory.plan_cache
        memory.exchange(engine="memory")
        result = sqlite.exchange(engine="sqlite")
        assert result.plan_cache_hit
        assert result.plans_compiled == 0

    def test_unknown_engine_rejected(self):
        from repro.errors import ExchangeError

        with pytest.raises(ExchangeError):
            _cdss().exchange(engine="postgres")
