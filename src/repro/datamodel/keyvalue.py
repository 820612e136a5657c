"""Pivot encoding of the key-value data model with access-pattern restrictions.

A key-value collection ``C`` maps keys to values (or to field/value maps, as
in Redis hashes or Voldemort stores).  The pivot encoding uses one relation
per collection:

* ``C(key, value)`` for plain collections, or
* ``C(key, field, value)`` for hash collections,

together with the EGD stating that the key (or key+field) functionally
determines the value, and — crucially — an :class:`AccessPattern` with the
key position(s) marked as *input*: the paper's "the value of the key must be
specified in order to access the values associated to this key".
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

from repro.core.binding_patterns import AccessPattern
from repro.core.constraints import ConstraintSet, key_constraint
from repro.core.terms import Atom
from repro.datamodel.encoding import DataModelEncoding, RelationSignature
from repro.errors import PivotModelError

__all__ = ["KeyValueCollectionSchema", "KeyValueEncoding"]


@dataclass(frozen=True, slots=True)
class KeyValueCollectionSchema:
    """Schema of one key-value collection.

    ``hash_fields`` lists the value fields when the collection stores hashes
    (field/value maps); when empty the collection stores opaque single values.
    """

    name: str
    hash_fields: tuple[str, ...] = ()

    @property
    def arity(self) -> int:
        """Arity of the pivot relation encoding the collection."""
        return 2 if not self.hash_fields else 1 + len(self.hash_fields)

    def columns(self) -> tuple[str, ...]:
        """Column names of the pivot relation."""
        if not self.hash_fields:
            return ("key", "value")
        return ("key",) + self.hash_fields

    def access_pattern(self) -> AccessPattern:
        """Key must be bound; all other positions are outputs."""
        return AccessPattern(self.name, "i" + "o" * (self.arity - 1))


class KeyValueEncoding(DataModelEncoding):
    """Pivot encoding of a set of key-value collections."""

    model_name = "keyvalue"

    def __init__(self, collections: Iterable[KeyValueCollectionSchema]) -> None:
        self._collections: dict[str, KeyValueCollectionSchema] = {}
        for collection in collections:
            if collection.name in self._collections:
                raise PivotModelError(f"duplicate key-value collection {collection.name!r}")
            self._collections[collection.name] = collection

    @property
    def collections(self) -> Mapping[str, KeyValueCollectionSchema]:
        """The registered collection schemas, by name."""
        return dict(self._collections)

    def signatures(self) -> Sequence[RelationSignature]:
        return [
            RelationSignature(collection.name, collection.columns())
            for collection in self._collections.values()
        ]

    def constraints(self) -> ConstraintSet:
        constraints = ConstraintSet()
        for collection in self._collections.values():
            if collection.arity > 1:
                constraints.add(
                    key_constraint(
                        collection.name,
                        collection.arity,
                        [0],
                        name=f"kv_key_{collection.name}",
                    )
                )
        return constraints

    def access_patterns(self) -> list[AccessPattern]:
        """The binding patterns of every collection (key position is input)."""
        return [collection.access_pattern() for collection in self._collections.values()]

    def encode(self, data: Mapping[str, Mapping[object, object]], **options: object) -> list[Atom]:
        """Encode ``{collection: {key: value-or-field-map}}`` into pivot facts."""
        facts: list[Atom] = []
        for collection_name, entries in data.items():
            collection = self._collections.get(collection_name)
            if collection is None:
                raise PivotModelError(f"unknown key-value collection {collection_name!r}")
            for key, value in entries.items():
                facts.append(self.encode_entry(collection, key, value))
        return facts

    def encode_entry(
        self, collection: KeyValueCollectionSchema, key: object, value: object
    ) -> Atom:
        """Encode one key-value entry into a pivot fact."""
        if not collection.hash_fields:
            return Atom(collection.name, [key, value])
        if not isinstance(value, Mapping):
            raise PivotModelError(
                f"collection {collection.name!r} stores hashes; value for key {key!r} "
                "must be a mapping"
            )
        missing = [f for f in collection.hash_fields if f not in value]
        if missing:
            raise PivotModelError(
                f"hash entry for key {key!r} in {collection.name!r} missing fields {missing}"
            )
        return Atom(collection.name, [key] + [value[f] for f in collection.hash_fields])
