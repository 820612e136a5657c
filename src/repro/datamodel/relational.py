"""Pivot encoding of the relational data model.

A relational table ``T(c1, ..., cn)`` is encoded directly as the pivot
relation ``T`` of the same arity.  The encoding carries the declared keys and
functional dependencies as EGDs and foreign keys as inclusion-dependency TGDs,
so the rewriting engine can exploit them (e.g. to remove redundant joins or to
validate fragment layouts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence

from repro.core.constraints import ConstraintSet, functional_dependency, inclusion_dependency, key_constraint
from repro.core.terms import Atom
from repro.datamodel.encoding import DataModelEncoding, RelationSignature
from repro.errors import PivotModelError, SchemaError

__all__ = ["TableSchema", "RelationalSchema", "RelationalEncoding"]


@dataclass(frozen=True, slots=True)
class TableSchema:
    """Schema of one relational table.

    Attributes
    ----------
    name:
        Table name (also the pivot relation name).
    columns:
        Ordered column names.
    primary_key:
        Column names forming the primary key (may be empty).
    functional_dependencies:
        Additional FDs as ``(determinant columns, dependent columns)`` pairs.
    foreign_keys:
        ``(local columns, referenced table, referenced columns)`` triples.
    """

    name: str
    columns: tuple[str, ...]
    primary_key: tuple[str, ...] = ()
    functional_dependencies: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = ()
    foreign_keys: tuple[tuple[tuple[str, ...], str, tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        if not self.columns:
            raise PivotModelError(f"table {self.name!r} needs at least one column")
        unknown = [c for c in self.primary_key if c not in self.columns]
        if unknown:
            raise PivotModelError(f"table {self.name!r}: key columns {unknown} not in schema")

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def position_of(self, column: str) -> int:
        """Index of ``column`` in the table."""
        try:
            return self.columns.index(column)
        except ValueError as exc:
            raise PivotModelError(f"table {self.name!r} has no column {column!r}") from exc

    def signature(self) -> RelationSignature:
        """The pivot relation signature of the table."""
        return RelationSignature(self.name, self.columns)


@dataclass(slots=True)
class RelationalSchema:
    """A collection of table schemas forming one relational dataset."""

    tables: dict[str, TableSchema] = field(default_factory=dict)

    def add(self, table: TableSchema) -> None:
        """Register a table schema (replacing any previous definition)."""
        self.tables[table.name] = table

    def table(self, name: str) -> TableSchema:
        """Look up a table schema by name."""
        try:
            return self.tables[name]
        except KeyError as exc:
            raise PivotModelError(f"unknown table {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def __iter__(self):
        return iter(self.tables.values())

    def __len__(self) -> int:
        return len(self.tables)


class RelationalEncoding(DataModelEncoding):
    """Pivot encoding of a relational schema (identity encoding + constraints)."""

    model_name = "relational"

    def __init__(self, schema: RelationalSchema) -> None:
        self._schema = schema

    @property
    def schema(self) -> RelationalSchema:
        """The encoded relational schema."""
        return self._schema

    def signatures(self) -> Sequence[RelationSignature]:
        return [table.signature() for table in self._schema]

    def constraints(self) -> ConstraintSet:
        constraints = ConstraintSet()
        for table in self._schema:
            if table.primary_key and len(table.primary_key) < table.arity:
                key_positions = [table.position_of(c) for c in table.primary_key]
                constraints.add(
                    key_constraint(table.name, table.arity, key_positions,
                                   name=f"pk_{table.name}")
                )
            for determinant, dependent in table.functional_dependencies:
                constraints.add(
                    functional_dependency(
                        table.name,
                        table.arity,
                        [table.position_of(c) for c in determinant],
                        [table.position_of(c) for c in dependent],
                        name=f"fd_{table.name}_{'_'.join(determinant)}",
                    )
                )
            for local_columns, referenced_table, referenced_columns in table.foreign_keys:
                target = self._schema.table(referenced_table)
                constraints.add(
                    inclusion_dependency(
                        table.name,
                        table.arity,
                        [table.position_of(c) for c in local_columns],
                        target.name,
                        target.arity,
                        [target.position_of(c) for c in referenced_columns],
                        name=f"fk_{table.name}_{referenced_table}",
                    )
                )
        return constraints

    def encode(self, data: Mapping[str, Iterable[Mapping[str, object] | Sequence[object]]],
               **options: object) -> list[Atom]:
        """Encode ``{table name: rows}`` into pivot facts.

        Rows may be mappings (column name → value) or sequences in column
        order; missing columns raise :class:`SchemaError`.
        """
        facts: list[Atom] = []
        for table_name, rows in data.items():
            table = self._schema.table(table_name)
            for row in rows:
                facts.append(self.encode_row(table_name, row))
        return facts

    def encode_row(self, table_name: str, row: Mapping[str, object] | Sequence[object]) -> Atom:
        """Encode a single row of ``table_name`` into a pivot fact."""
        table = self._schema.table(table_name)
        if isinstance(row, Mapping):
            missing = [c for c in table.columns if c not in row]
            if missing:
                raise SchemaError(
                    f"row for table {table_name!r} is missing columns {missing}"
                )
            values = [row[c] for c in table.columns]
        else:
            values = list(row)
            if len(values) != table.arity:
                raise SchemaError(
                    f"row for table {table_name!r} has {len(values)} values, "
                    f"expected {table.arity}"
                )
        return Atom(table_name, values)
