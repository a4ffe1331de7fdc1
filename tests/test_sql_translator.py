"""Tests for the rule-to-SQL translation (Section 4.2.4)."""

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, SkolemTerm, Variable
from repro.errors import ProQLSemanticError, StorageError
from repro.proql.sql_translator import compile_rule, default_schema_lookup
from repro.proql.unfolding import (
    KIND_BASE,
    KIND_LOCAL,
    KIND_PROV,
    BodyItem,
    DerivSpec,
    UnfoldedRule,
)
from repro.relational import RelationSchema
from repro.storage.encoding import ValueCodec


def simple_lookup(*schemas):
    by_name = {s.name: s for s in schemas}
    return lambda item: by_name[item.atom.relation]


x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestCompileRule:
    def test_join_on_shared_variable(self):
        r_schema = RelationSchema.of("R", ["a", "b"])
        s_schema = RelationSchema.of("S", ["b", "c"])
        rule = UnfoldedRule(
            Atom("R", (x, y)),
            (
                BodyItem(Atom("R", (x, y)), KIND_BASE),
                BodyItem(Atom("S", (y, z)), KIND_BASE),
            ),
            (),
        )
        compiled = compile_rule(rule, simple_lookup(r_schema, s_schema), ValueCodec())
        assert 't1."b" IS t0."b"' in compiled.sql
        assert compiled.sql.startswith("SELECT DISTINCT")
        assert compiled.variables == (x, y, z)

    def test_constant_becomes_parameter(self):
        schema = RelationSchema.of("R", ["a", ("b", "bool")])
        rule = UnfoldedRule(
            Atom("R", (x, Constant(True))),
            (BodyItem(Atom("R", (x, Constant(True))), KIND_BASE),),
            (),
        )
        compiled = compile_rule(rule, simple_lookup(schema), ValueCodec())
        assert "IS ?" in compiled.sql
        assert compiled.parameters == (1,)  # bool encoded as int

    def test_repeated_variable_in_one_atom(self):
        schema = RelationSchema.of("R", ["a", "b"])
        rule = UnfoldedRule(
            Atom("R", (x, x)),
            (BodyItem(Atom("R", (x, x)), KIND_BASE),),
            (),
        )
        compiled = compile_rule(rule, simple_lookup(schema), ValueCodec())
        assert 't0."b" IS t0."a"' in compiled.sql

    def test_not_null_constraint(self):
        schema = RelationSchema.of("R", ["a"])
        rule = UnfoldedRule(
            Atom("R", (x,)),
            (BodyItem(Atom("R", (x,)), KIND_BASE),),
            (),
            not_null=frozenset([x]),
        )
        compiled = compile_rule(rule, simple_lookup(schema), ValueCodec())
        assert 'IS NOT NULL' in compiled.sql

    def test_types_recorded_for_decoding(self):
        schema = RelationSchema.of("R", [("a", "str"), ("b", "bool")])
        rule = UnfoldedRule(
            Atom("R", (x, y)),
            (BodyItem(Atom("R", (x, y)), KIND_BASE),),
            (),
        )
        compiled = compile_rule(rule, simple_lookup(schema), ValueCodec())
        assert compiled.types[x] == "str"
        assert compiled.types[y] == "bool"

    def test_skolem_term_rejected(self):
        schema = RelationSchema.of("R", ["a"])
        rule = UnfoldedRule(
            Atom("R", (SkolemTerm("f", (x,)),)),
            (BodyItem(Atom("R", (SkolemTerm("f", (x,)),)), KIND_BASE),),
            (),
        )
        with pytest.raises(ProQLSemanticError):
            compile_rule(rule, simple_lookup(schema), ValueCodec())

    def test_too_many_joins_rejected(self):
        schema = RelationSchema.of("R", ["a"])
        items = tuple(
            BodyItem(Atom("R", (Variable(f"v{i}"),)), KIND_BASE)
            for i in range(65)
        )
        rule = UnfoldedRule(Atom("R", (Variable("v0"),)), items, ())
        with pytest.raises(StorageError):
            compile_rule(rule, simple_lookup(schema), ValueCodec())

    def test_arity_mismatch_rejected(self):
        schema = RelationSchema.of("R", ["a", "b"])
        rule = UnfoldedRule(
            Atom("R", (x,)),
            (BodyItem(Atom("R", (x,)), KIND_BASE),),
            (),
        )
        with pytest.raises(ProQLSemanticError):
            compile_rule(rule, simple_lookup(schema), ValueCodec())

    def test_spec_variable_must_occur_in_body(self):
        schema = RelationSchema.of("R", ["a"])
        rule = UnfoldedRule(
            Atom("R", (x,)),
            (BodyItem(Atom("R", (x,)), KIND_BASE),),
            (DerivSpec("m", (Atom("R", (y,)),), (Atom("R", (y,)),), (y,)),),
        )
        with pytest.raises(ProQLSemanticError):
            compile_rule(rule, simple_lookup(schema), ValueCodec())


class TestDefaultSchemaLookup:
    def test_resolves_provenance_and_base(self, acyclic_cdss):
        lookup = default_schema_lookup(acyclic_cdss)
        prov_item = BodyItem(Atom("P_m1", (x, y)), KIND_PROV)
        assert lookup(prov_item).name == "P_m1"
        local_item = BodyItem(Atom("A_l", (x, y, z)), KIND_LOCAL)
        assert lookup(local_item).name == "A_l"

    def test_executes_on_sqlite(self, acyclic_storage, acyclic_cdss):
        lookup = default_schema_lookup(acyclic_cdss)
        rule = UnfoldedRule(
            Atom("P_m1", (x, y)),
            (BodyItem(Atom("P_m1", (x, y)), KIND_PROV),),
            (),
        )
        compiled = compile_rule(rule, lookup, acyclic_storage.codec)
        rows = acyclic_storage.query(compiled.sql, compiled.parameters)
        # Without m3, N(2,cn2,false) is never derived, so m1 fires once.
        assert sorted(rows) == [(1, "cn1")]
