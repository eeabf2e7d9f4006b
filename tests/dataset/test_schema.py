"""Tests for attribute and schema definitions."""

import pytest

from repro.dataset.schema import Attribute, AttributeKind, Schema
from repro.exceptions import SchemaError


class TestAttribute:
    def test_numeric_constructor_sets_bounds(self):
        attribute = Attribute.numeric("price", 10, 100)
        assert attribute.kind is AttributeKind.NUMERIC
        assert attribute.lower == 10.0
        assert attribute.upper == 100.0
        assert attribute.is_numeric and not attribute.is_categorical

    def test_categorical_constructor_is_not_rankable(self):
        attribute = Attribute.categorical("cut", ["good", "ideal"])
        assert attribute.is_categorical
        assert not attribute.rankable

    def test_numeric_requires_bounds(self):
        with pytest.raises(SchemaError):
            Attribute(name="price", kind=AttributeKind.NUMERIC)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(SchemaError):
            Attribute.numeric("price", 100, 10)

    def test_categorical_requires_categories(self):
        with pytest.raises(SchemaError):
            Attribute(name="cut", kind=AttributeKind.CATEGORICAL)

    def test_duplicate_categories_rejected(self):
        with pytest.raises(SchemaError):
            Attribute.categorical("cut", ["good", "good"])

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            Attribute.numeric("", 0, 1)

    def test_width(self):
        assert Attribute.numeric("price", 10, 110).width == 100

    def test_width_of_categorical_raises(self):
        with pytest.raises(SchemaError):
            _ = Attribute.categorical("cut", ["good"]).width

    def test_contains_numeric(self):
        attribute = Attribute.numeric("price", 10, 100)
        assert attribute.contains(10)
        assert attribute.contains(100.0)
        assert not attribute.contains(9.99)
        assert not attribute.contains("10")

    def test_contains_refuses_bool_in_a_numeric_column(self):
        """No range predicate matches ``True`` (``is_numeric`` and
        ``SearchQuery.matches`` refuse it), so a stored ``True`` would match
        the unconstrained query and no range spanning the domain: the
        column test refuses it, alone or mixed with real numbers, whichever
        branch (exact types or the per-value fallback) decides."""
        attribute = Attribute.numeric("price", 0, 100)
        assert attribute.contains(1) and attribute.contains_all([0, 1.0])
        assert not attribute.contains(True)
        assert not attribute.contains_all([1.0, False])

        class Real(float):
            pass

        assert attribute.contains_all([Real(3.0), 1])
        assert not attribute.contains_all([Real(3.0), True])

    def test_contains_categorical(self):
        attribute = Attribute.categorical("cut", ["good", "ideal"])
        assert attribute.contains("good")
        assert not attribute.contains("bad")


class TestSchema:
    def _schema(self) -> Schema:
        return Schema(
            key="id",
            attributes=(
                Attribute.numeric("price", 0, 1000),
                Attribute.numeric("carat", 0, 5, rankable=True),
                Attribute.categorical("cut", ["good", "ideal"]),
            ),
        )

    def test_names_and_partitions(self):
        schema = self._schema()
        assert schema.names == ["price", "carat", "cut"]
        assert schema.numeric_names == ["price", "carat"]
        assert schema.categorical_names == ["cut"]
        assert schema.rankable_names == ["price", "carat"]
        assert len(schema) == 3
        assert "price" in schema and "missing" not in schema

    def test_duplicate_attribute_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema(
                attributes=(
                    Attribute.numeric("price", 0, 1),
                    Attribute.numeric("price", 0, 2),
                )
            )

    def test_key_cannot_collide_with_attribute(self):
        with pytest.raises(SchemaError):
            Schema(key="price", attributes=(Attribute.numeric("price", 0, 1),))

    def test_attribute_lookup(self):
        schema = self._schema()
        assert schema.attribute("carat").name == "carat"
        with pytest.raises(SchemaError):
            schema.attribute("missing")

    def test_require_numeric_and_categorical(self):
        schema = self._schema()
        assert schema.require_numeric("price").is_numeric
        assert schema.require_categorical("cut").is_categorical
        with pytest.raises(SchemaError):
            schema.require_numeric("cut")
        with pytest.raises(SchemaError):
            schema.require_categorical("price")

    def test_domain_bounds(self):
        assert self._schema().domain_bounds("price") == (0.0, 1000.0)

    def test_validate_row_accepts_complete_row(self):
        row = {"id": "x", "price": 10.0, "carat": 1.0, "cut": "good"}
        self._schema().validate_row(row)

    def test_validate_row_missing_key(self):
        with pytest.raises(SchemaError):
            self._schema().validate_row({"price": 10.0, "carat": 1.0, "cut": "good"})

    def test_validate_row_missing_attribute(self):
        with pytest.raises(SchemaError):
            self._schema().validate_row({"id": "x", "price": 10.0, "cut": "good"})

    def test_validate_row_refuses_a_bool_price(self):
        with pytest.raises(SchemaError):
            self._schema().validate_row({"id": "x", "price": True, "carat": 1.0, "cut": "good"})

    def test_validate_row_out_of_domain(self):
        row = {"id": "x", "price": 10000.0, "carat": 1.0, "cut": "good"}
        with pytest.raises(SchemaError):
            self._schema().validate_row(row)

    def test_columns_order(self):
        assert self._schema().columns() == ["id", "price", "carat", "cut"]
