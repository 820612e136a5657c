"""Pivot encoding of nested relations (Pig/HBase/Spark-style).

A nested relation has top-level atomic columns plus *nested* columns whose
values are bags of records.  Following the paper's remark that "the encoding
of nested relations ... is very similar" to the document encoding, we encode
a nested relation ``N`` with:

* ``N(rowID, a1, ..., ak)`` — one pivot relation holding the atomic columns
  plus a surrogate row identifier;
* ``N_<nested>(rowID, b1, ..., bm)`` — one pivot relation per nested column,
  linking the inner records to their parent row.

The row identifier is a key of the top-level relation, and each nested
relation has an inclusion dependency into the top-level one (every inner
record belongs to an existing row).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.constraints import ConstraintSet, inclusion_dependency, key_constraint
from repro.core.terms import Atom
from repro.datamodel.encoding import DataModelEncoding, RelationSignature
from repro.errors import PivotModelError, SchemaError

__all__ = ["NestedRelationSchema", "NestedEncoding"]


@dataclass(frozen=True, slots=True)
class NestedRelationSchema:
    """Schema of a nested relation.

    Attributes
    ----------
    name:
        Relation name.
    atomic_columns:
        Top-level atomic column names.
    nested_columns:
        Mapping from nested column name to the inner record's column names.
    key:
        Atomic columns forming a key of the top level (optional; a surrogate
        ``rowID`` is always added and is always a key).
    """

    name: str
    atomic_columns: tuple[str, ...]
    nested_columns: tuple[tuple[str, tuple[str, ...]], ...] = ()
    key: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.atomic_columns and not self.nested_columns:
            raise PivotModelError(f"nested relation {self.name!r} has no columns")
        for column in self.key:
            if column not in self.atomic_columns:
                raise PivotModelError(
                    f"nested relation {self.name!r}: key column {column!r} is not atomic"
                )

    def top_level_relation(self) -> str:
        """Pivot relation name of the top level."""
        return self.name

    def nested_relation(self, nested_column: str) -> str:
        """Pivot relation name of one nested column."""
        return f"{self.name}_{nested_column}"

    def top_level_columns(self) -> tuple[str, ...]:
        """Columns of the top-level pivot relation (surrogate id first)."""
        return ("rowID",) + self.atomic_columns

    def inner_columns(self, nested_column: str) -> tuple[str, ...]:
        """Columns of one nested column's pivot relation (parent id first)."""
        for name, columns in self.nested_columns:
            if name == nested_column:
                return ("rowID",) + columns
        raise PivotModelError(
            f"nested relation {self.name!r} has no nested column {nested_column!r}"
        )


class NestedEncoding(DataModelEncoding):
    """Pivot encoding of a set of nested relations."""

    model_name = "nested"

    def __init__(self, schemas: Iterable[NestedRelationSchema]) -> None:
        self._schemas: dict[str, NestedRelationSchema] = {}
        for schema in schemas:
            if schema.name in self._schemas:
                raise PivotModelError(f"duplicate nested relation {schema.name!r}")
            self._schemas[schema.name] = schema

    @property
    def schemas(self) -> Mapping[str, NestedRelationSchema]:
        """The registered nested relation schemas."""
        return dict(self._schemas)

    def signatures(self) -> Sequence[RelationSignature]:
        signatures: list[RelationSignature] = []
        for schema in self._schemas.values():
            signatures.append(
                RelationSignature(schema.top_level_relation(), schema.top_level_columns())
            )
            for nested_column, _ in schema.nested_columns:
                signatures.append(
                    RelationSignature(
                        schema.nested_relation(nested_column),
                        schema.inner_columns(nested_column),
                    )
                )
        return signatures

    def constraints(self) -> ConstraintSet:
        constraints = ConstraintSet()
        for schema in self._schemas.values():
            top_arity = len(schema.top_level_columns())
            if top_arity > 1:
                constraints.add(
                    key_constraint(
                        schema.top_level_relation(), top_arity, [0],
                        name=f"nested_rowid_{schema.name}",
                    )
                )
            if schema.key:
                positions = [schema.top_level_columns().index(c) for c in schema.key]
                if len(positions) < top_arity:
                    constraints.add(
                        key_constraint(
                            schema.top_level_relation(), top_arity, positions,
                            name=f"nested_key_{schema.name}",
                        )
                    )
            for nested_column, _ in schema.nested_columns:
                inner = schema.nested_relation(nested_column)
                inner_arity = len(schema.inner_columns(nested_column))
                constraints.add(
                    inclusion_dependency(
                        inner, inner_arity, [0],
                        schema.top_level_relation(), top_arity, [0],
                        name=f"nested_parent_{inner}",
                    )
                )
        return constraints

    def encode(
        self, data: Mapping[str, Sequence[Mapping[str, object]]], **options: object
    ) -> list[Atom]:
        """Encode ``{relation: [record, ...]}`` into pivot facts.

        Each record maps atomic columns to values and nested columns to lists
        of inner records.
        """
        facts: list[Atom] = []
        for relation_name, records in data.items():
            schema = self._schemas.get(relation_name)
            if schema is None:
                raise PivotModelError(f"unknown nested relation {relation_name!r}")
            for index, record in enumerate(records):
                facts.extend(self.encode_record(schema, record, row_id=f"{relation_name}#{index}"))
        return facts

    def encode_record(
        self, schema: NestedRelationSchema, record: Mapping[str, object], row_id: str
    ) -> list[Atom]:
        """Encode one nested record into pivot facts."""
        missing = [c for c in schema.atomic_columns if c not in record]
        if missing:
            raise SchemaError(
                f"record for {schema.name!r} missing atomic columns {missing}"
            )
        facts = [
            Atom(
                schema.top_level_relation(),
                [row_id] + [record[c] for c in schema.atomic_columns],
            )
        ]
        for nested_column, inner_columns in schema.nested_columns:
            inner_records = record.get(nested_column, [])
            if not isinstance(inner_records, (list, tuple)):
                raise SchemaError(
                    f"nested column {nested_column!r} of {schema.name!r} must be a list"
                )
            for inner in inner_records:
                inner_missing = [c for c in inner_columns if c not in inner]
                if inner_missing:
                    raise SchemaError(
                        f"inner record of {schema.name}.{nested_column} missing {inner_missing}"
                    )
                facts.append(
                    Atom(
                        schema.nested_relation(nested_column),
                        [row_id] + [inner[c] for c in inner_columns],
                    )
                )
        return facts
