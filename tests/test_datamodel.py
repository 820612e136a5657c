"""Tests for the pivot-model encodings of relational, document and key-value data."""

import pytest

from repro.core import Atom, chase
from repro.datamodel import (
    DocumentEncoding,
    KeyValueCollectionSchema,
    KeyValueEncoding,
    RelationalEncoding,
    RelationalSchema,
    TableSchema,
)
from repro.errors import PivotModelError, SchemaError


def _shop_schema() -> RelationalSchema:
    schema = RelationalSchema()
    schema.add(TableSchema("users", ("uid", "name", "city"), primary_key=("uid",)))
    schema.add(
        TableSchema(
            "orders",
            ("order_id", "uid", "total"),
            primary_key=("order_id",),
            foreign_keys=((("uid",), "users", ("uid",)),),
            functional_dependencies=(((("order_id",)), ("total",)),),
        )
    )
    return schema


class TestRelationalEncoding:
    def test_signatures(self):
        encoding = RelationalEncoding(_shop_schema())
        names = {s.name for s in encoding.signatures()}
        assert names == {"users", "orders"}
        assert encoding.signature("users").arity == 3

    def test_primary_key_becomes_egd(self):
        encoding = RelationalEncoding(_shop_schema())
        egds = encoding.constraints().egds()
        assert any(c.name == "pk_users" for c in egds)

    def test_foreign_key_becomes_tgd(self):
        encoding = RelationalEncoding(_shop_schema())
        tgds = encoding.constraints().tgds()
        assert any(c.name == "fk_orders_users" for c in tgds)

    def test_encode_rows_as_mapping_and_sequence(self):
        encoding = RelationalEncoding(_shop_schema())
        fact_from_mapping = encoding.encode_row("users", {"uid": 1, "name": "a", "city": "p"})
        fact_from_sequence = encoding.encode_row("users", [1, "a", "p"])
        assert fact_from_mapping == fact_from_sequence == Atom("users", [1, "a", "p"])

    def test_missing_column_rejected(self):
        encoding = RelationalEncoding(_shop_schema())
        with pytest.raises(SchemaError):
            encoding.encode_row("users", {"uid": 1, "name": "a"})

    def test_wrong_arity_rejected(self):
        encoding = RelationalEncoding(_shop_schema())
        with pytest.raises(SchemaError):
            encoding.encode_row("users", [1, "a"])

    def test_bulk_encode(self):
        encoding = RelationalEncoding(_shop_schema())
        facts = encoding.encode({"users": [{"uid": 1, "name": "a", "city": "p"}]})
        assert facts == [Atom("users", [1, "a", "p"])]

    def test_unknown_table(self):
        encoding = RelationalEncoding(_shop_schema())
        with pytest.raises(PivotModelError):
            encoding.encode({"missing": []})

    def test_key_column_validation(self):
        with pytest.raises(PivotModelError):
            TableSchema("bad", ("a",), primary_key=("z",))

    def test_foreign_key_chase_adds_referenced_tuple(self):
        encoding = RelationalEncoding(_shop_schema())
        facts = [Atom("orders", [1, 42, 10.0])]
        result = chase(facts, encoding.constraints())
        users = [f for f in result.facts if f.relation == "users"]
        assert len(users) == 1
        assert users[0].terms[0] == Atom("orders", [1, 42, 10.0]).terms[1]


class TestDocumentEncoding:
    def test_relations_and_prefix(self):
        encoding = DocumentEncoding(prefix="carts")
        assert encoding.relation("Node") == "cartsNode"
        assert {s.name for s in encoding.signatures()} == {
            "cartsDocument", "cartsRoot", "cartsNode", "cartsChild", "cartsDescendant", "cartsValue",
        }

    def test_axioms_present(self):
        encoding = DocumentEncoding()
        names = {c.name for c in encoding.constraints()}
        assert "Node_single_tag" in names
        assert "Child_is_descendant" in names
        assert "Descendant_transitive" in names

    def test_encode_simple_document(self):
        encoding = DocumentEncoding()
        facts = encoding.encode_document({"title": "book", "price": 10}, document_name="d1")
        relations = {f.relation for f in facts}
        assert {"Document", "Root", "Node", "Child", "Value", "Descendant"} <= relations
        titles = [f for f in facts if f.relation == "Node" and f.terms[1].value == "title"]
        assert len(titles) == 1

    def test_nested_document_descendants(self):
        encoding = DocumentEncoding()
        facts = encoding.encode_document({"user": {"address": {"city": "paris"}}}, document_name="d")
        descendants = [f for f in facts if f.relation == "Descendant"]
        # root has 3 descendants (user, address, city); user has 2; address has 1.
        assert len(descendants) == 6

    def test_lists_become_indexed_children(self):
        encoding = DocumentEncoding()
        facts = encoding.encode_document({"items": [{"sku": 1}, {"sku": 2}]}, document_name="d")
        labels = {f.terms[1].value for f in facts if f.relation == "Node"}
        assert "[0]" in labels and "[1]" in labels

    def test_child_single_parent_axiom_holds_on_encoded_data(self):
        encoding = DocumentEncoding()
        facts = encoding.encode_document({"a": 1, "b": {"c": 2}}, document_name="d")
        # Chase with the axioms: no EGD failure and no new Child facts expected.
        result = chase(facts, encoding.constraints())
        assert {f for f in facts if f.relation == "Child"} == {
            f for f in result.facts if f.relation == "Child"
        }

    def test_encode_list_of_documents(self):
        encoding = DocumentEncoding()
        facts = encoding.encode([{"a": 1}, {"a": 2}])
        assert len([f for f in facts if f.relation == "Document"]) == 2


class TestKeyValueEncoding:
    def test_plain_collection_signature(self):
        encoding = KeyValueEncoding([KeyValueCollectionSchema("sessions")])
        signature = encoding.signature("sessions")
        assert signature.columns == ("key", "value")

    def test_hash_collection_signature(self):
        encoding = KeyValueEncoding([KeyValueCollectionSchema("prefs", ("category", "city"))])
        assert encoding.signature("prefs").columns == ("key", "category", "city")

    def test_access_pattern_marks_key_as_input(self):
        encoding = KeyValueEncoding([KeyValueCollectionSchema("prefs", ("category",))])
        pattern = encoding.access_patterns()[0]
        assert pattern.pattern == "io"
        assert pattern.input_positions() == (0,)

    def test_key_constraint_generated(self):
        encoding = KeyValueEncoding([KeyValueCollectionSchema("prefs", ("category",))])
        assert len(encoding.constraints().egds()) == 1

    def test_encode_plain_and_hash(self):
        encoding = KeyValueEncoding(
            [KeyValueCollectionSchema("sessions"), KeyValueCollectionSchema("prefs", ("category",))]
        )
        facts = encoding.encode(
            {"sessions": {"abc": "token"}, "prefs": {1: {"category": "books"}}}
        )
        assert Atom("sessions", ["abc", "token"]) in facts
        assert Atom("prefs", [1, "books"]) in facts

    def test_hash_entry_missing_field_rejected(self):
        encoding = KeyValueEncoding([KeyValueCollectionSchema("prefs", ("category",))])
        with pytest.raises(PivotModelError):
            encoding.encode({"prefs": {1: {"wrong": "x"}}})

    def test_duplicate_collection_rejected(self):
        with pytest.raises(PivotModelError):
            KeyValueEncoding([KeyValueCollectionSchema("a"), KeyValueCollectionSchema("a")])
