"""Unit tests for the relational substrate."""

import pytest

from repro.errors import SchemaError
from repro.relational import (
    Attribute,
    Catalog,
    Instance,
    RelationSchema,
    is_local_name,
    local_name,
    public_name,
)


class TestAttribute:
    def test_valid_types(self):
        for type_ in ("int", "str", "float", "bool"):
            assert Attribute("a", type_).type == type_

    def test_invalid_type_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("a", "blob")

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute("", "int")
        with pytest.raises(SchemaError):
            Attribute("a b", "int")


class TestRelationSchema:
    def test_of_accepts_mixed_attribute_forms(self):
        schema = RelationSchema.of(
            "R", ["a", ("b", "str"), Attribute("c", "float")], key=["a"]
        )
        assert schema.attribute_names == ("a", "b", "c")
        assert schema.attributes[1].type == "str"

    def test_default_key_is_all_attributes(self):
        schema = RelationSchema.of("R", ["a", "b"])
        assert schema.key == ("a", "b")

    def test_key_of_projects_values(self):
        schema = RelationSchema.of("R", ["a", "b", "c"], key=["c", "a"])
        assert schema.key_of((1, 2, 3)) == (3, 1)

    def test_key_of_rejects_wrong_arity(self):
        schema = RelationSchema.of("R", ["a", "b"])
        with pytest.raises(SchemaError):
            schema.key_of((1,))

    def test_unknown_key_attribute_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema.of("R", ["a"], key=["zz"])

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema.of("R", ["a", "a"])

    def test_position_of(self):
        schema = RelationSchema.of("R", ["a", "b"])
        assert schema.position_of("b") == 1
        with pytest.raises(SchemaError):
            schema.position_of("zz")

    def test_local_contribution_schema(self):
        schema = RelationSchema.of("R", ["a", "b"], key=["a"])
        local = schema.local_contribution()
        assert local.name == "R_l"
        assert local.attributes == schema.attributes
        assert local.key == schema.key


class TestLocalNames:
    def test_roundtrip(self):
        assert local_name("R") == "R_l"
        assert is_local_name("R_l")
        assert not is_local_name("R")
        assert public_name("R_l") == "R"
        assert public_name("R") == "R"


class TestCatalog:
    def test_add_and_lookup(self):
        schema = RelationSchema.of("R", ["a"])
        catalog = Catalog([schema])
        assert "R" in catalog
        assert catalog["R"] is schema
        assert catalog.get("S") is None

    def test_conflicting_redefinition_rejected(self):
        catalog = Catalog([RelationSchema.of("R", ["a"])])
        with pytest.raises(SchemaError):
            catalog.add(RelationSchema.of("R", ["a", "b"]))

    def test_identical_redefinition_allowed(self):
        schema = RelationSchema.of("R", ["a"])
        catalog = Catalog([schema])
        catalog.add(RelationSchema.of("R", ["a"]))
        assert len(catalog) == 1

    def test_unknown_relation_raises(self):
        with pytest.raises(SchemaError):
            Catalog()["nope"]


class TestInstance:
    @pytest.fixture
    def instance(self):
        return Instance(
            Catalog(
                [
                    RelationSchema.of("R", ["a", "b"], key=["a"]),
                    RelationSchema.of("S", ["x"]),
                ]
            )
        )

    def test_insert_is_set_semantics(self, instance):
        assert instance.insert("R", (1, 2))
        assert not instance.insert("R", (1, 2))
        assert instance.size("R") == 1

    def test_insert_many_counts_new_only(self, instance):
        added = instance.insert_many("R", [(1, 2), (1, 2), (3, 4)])
        assert added == 2

    def test_arity_checked(self, instance):
        with pytest.raises(SchemaError):
            instance.insert("R", (1,))

    def test_delete(self, instance):
        instance.insert("R", (1, 2))
        assert instance.delete("R", (1, 2))
        assert not instance.delete("R", (1, 2))
        assert instance.size("R") == 0

    def test_contains(self, instance):
        instance.insert("S", (9,))
        assert instance.contains("S", (9,))
        assert not instance.contains("S", (8,))

    def test_unknown_relation(self, instance):
        with pytest.raises(SchemaError):
            instance["nope"]

    def test_size_totals(self, instance):
        instance.insert("R", (1, 2))
        instance.insert("S", (1,))
        assert instance.size() == 2
        assert sorted(instance.non_empty_relations()) == ["R", "S"]

    def test_copy_is_independent(self, instance):
        instance.insert("R", (1, 2))
        clone = instance.copy()
        clone.insert("R", (3, 4))
        assert instance.size("R") == 1
        assert clone.size("R") == 2
        assert instance != clone

    def test_equality(self, instance):
        other = Instance(instance.catalog)
        assert instance == other
        instance.insert("R", (1, 2))
        assert instance != other

