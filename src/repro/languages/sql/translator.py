"""Translation of parsed SQL statements into the pivot model.

The conjunctive core of the statement (tables, column equalities, constant
equality predicates) becomes a :class:`ConjunctiveQuery`; everything the
conjunctive pivot model cannot express — inequality predicates, aggregates,
DISTINCT, LIMIT — is returned as *residual* work for the ESTOCADA runtime to
apply on top of the rewritten plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.query import ConjunctiveQuery
from repro.core.terms import Atom, Constant, Term, Variable
from repro.datamodel.relational import RelationalSchema
from repro.errors import TranslationError
from repro.languages.sql.parser import (
    ColumnRef,
    Condition,
    Literal,
    SelectStatement,
    parse_select,
)

__all__ = ["ResidualPredicate", "ResidualAggregation", "TranslatedQuery", "SqlTranslator"]


@dataclass(frozen=True, slots=True)
class ResidualPredicate:
    """A non-equality predicate the runtime must apply after rewriting."""

    variable: str
    op: str
    value: object
    value_is_column: bool = False


@dataclass(frozen=True, slots=True)
class ResidualAggregation:
    """Aggregation (and grouping) the runtime must apply after rewriting."""

    group_by: tuple[str, ...]
    aggregations: Mapping[str, tuple[str, str | None]]


@dataclass(slots=True)
class TranslatedQuery:
    """The pivot query plus the residual (non-conjunctive) work."""

    query: ConjunctiveQuery
    output_names: tuple[str, ...]
    residual_predicates: tuple[ResidualPredicate, ...] = ()
    aggregation: ResidualAggregation | None = None
    distinct: bool = False
    limit: int | None = None


class SqlTranslator:
    """Translates SQL over a relational dataset schema into the pivot model."""

    def __init__(self, schema: RelationalSchema, query_name: str = "Q") -> None:
        self._schema = schema
        self._query_name = query_name

    # -- public API -----------------------------------------------------------------
    def translate(self, statement: SelectStatement | str) -> TranslatedQuery:
        """Translate a statement (or SQL text) into a :class:`TranslatedQuery`."""
        if isinstance(statement, str):
            statement = parse_select(statement)

        alias_to_table = self._resolve_tables(statement)
        variables = self._build_variables(alias_to_table)
        union_find = _UnionFind(variables)

        residual: list[ResidualPredicate] = []
        constants: dict[str, object] = {}
        # Two passes: column-column equalities first (they change variable
        # representatives), then constants and residual predicates, so every
        # later lookup uses the final representative names.
        for condition in statement.conditions:
            if isinstance(condition.right, ColumnRef) and condition.op == "=":
                union_find.union(
                    self._resolve_column(condition.left, alias_to_table),
                    self._resolve_column(condition.right, alias_to_table),
                )
        for condition in statement.conditions:
            if isinstance(condition.right, ColumnRef) and condition.op == "=":
                continue
            self._apply_condition(condition, alias_to_table, union_find, constants, residual)

        atoms = self._build_atoms(alias_to_table, union_find, constants)
        head_terms, output_names = self._build_head(statement, alias_to_table, union_find, constants)
        query = ConjunctiveQuery(self._query_name, head_terms, atoms, name=self._query_name)

        aggregation = self._build_aggregation(
            statement, alias_to_table, union_find, constants
        )
        return TranslatedQuery(
            query=query,
            output_names=output_names,
            residual_predicates=tuple(residual),
            aggregation=aggregation,
            distinct=statement.distinct,
            limit=statement.limit,
        )

    # -- helpers -----------------------------------------------------------------------
    def _resolve_tables(self, statement: SelectStatement) -> dict[str, str]:
        alias_to_table: dict[str, str] = {}
        for reference in statement.tables:
            if reference.table not in self._schema:
                raise TranslationError(f"unknown table {reference.table!r}")
            if reference.alias in alias_to_table:
                raise TranslationError(f"duplicate table alias {reference.alias!r}")
            alias_to_table[reference.alias] = reference.table
        return alias_to_table

    def _build_variables(self, alias_to_table: Mapping[str, str]) -> list[str]:
        names: list[str] = []
        for alias, table_name in alias_to_table.items():
            for column in self._schema.table(table_name).columns:
                names.append(self._variable_name(alias, column))
        return names

    @staticmethod
    def _variable_name(alias: str, column: str) -> str:
        return f"{alias}_{column}"

    def _resolve_column(
        self, reference: ColumnRef, alias_to_table: Mapping[str, str]
    ) -> str:
        if reference.table is not None:
            if reference.table not in alias_to_table:
                raise TranslationError(f"unknown table alias {reference.table!r}")
            table = self._schema.table(alias_to_table[reference.table])
            if reference.column not in table.columns:
                raise TranslationError(
                    f"table {table.name!r} has no column {reference.column!r}"
                )
            return self._variable_name(reference.table, reference.column)
        matches = [
            alias
            for alias, table_name in alias_to_table.items()
            if reference.column in self._schema.table(table_name).columns
        ]
        if not matches:
            raise TranslationError(f"unknown column {reference.column!r}")
        if len(matches) > 1:
            raise TranslationError(f"ambiguous column {reference.column!r} (tables {matches})")
        return self._variable_name(matches[0], reference.column)

    def _apply_condition(
        self,
        condition: Condition,
        alias_to_table: Mapping[str, str],
        union_find: "_UnionFind",
        constants: dict[str, object],
        residual: list[ResidualPredicate],
    ) -> None:
        left = self._resolve_column(condition.left, alias_to_table)
        if isinstance(condition.right, Literal):
            if condition.op == "=":
                representative = union_find.find(left)
                existing = constants.get(representative)
                if existing is not None and existing != condition.right.value:
                    raise TranslationError(
                        f"contradictory constants for {condition.left}: "
                        f"{existing!r} vs {condition.right.value!r}"
                    )
                constants[representative] = condition.right.value
            else:
                residual.append(
                    ResidualPredicate(
                        variable=union_find.find(left),
                        op=condition.op,
                        value=condition.right.value,
                    )
                )
            return
        right = self._resolve_column(condition.right, alias_to_table)
        if condition.op == "=":
            union_find.union(left, right)
        else:
            residual.append(
                ResidualPredicate(
                    variable=union_find.find(left),
                    op=condition.op,
                    value=union_find.find(right),
                    value_is_column=True,
                )
            )

    def _term_for(
        self, variable: str, union_find: "_UnionFind", constants: Mapping[str, object]
    ) -> Term:
        representative = union_find.find(variable)
        if representative in constants:
            return Constant(constants[representative])
        return Variable(representative)

    def _build_atoms(
        self,
        alias_to_table: Mapping[str, str],
        union_find: "_UnionFind",
        constants: Mapping[str, object],
    ) -> list[Atom]:
        atoms: list[Atom] = []
        for alias, table_name in alias_to_table.items():
            table = self._schema.table(table_name)
            terms = [
                self._term_for(self._variable_name(alias, column), union_find, constants)
                for column in table.columns
            ]
            atoms.append(Atom(table_name, terms))
        return atoms

    def _build_head(
        self,
        statement: SelectStatement,
        alias_to_table: Mapping[str, str],
        union_find: "_UnionFind",
        constants: Mapping[str, object],
    ) -> tuple[list[Term], tuple[str, ...]]:
        head_terms: list[Term] = []
        output_names: list[str] = []
        if statement.select_star:
            for alias, table_name in alias_to_table.items():
                for column in self._schema.table(table_name).columns:
                    head_terms.append(
                        self._term_for(self._variable_name(alias, column), union_find, constants)
                    )
                    output_names.append(
                        column if len(alias_to_table) == 1 else self._variable_name(alias, column)
                    )
        for item in statement.plain_items():
            variable = self._resolve_column(item.column, alias_to_table)
            head_terms.append(self._term_for(variable, union_find, constants))
            output_names.append(item.alias)
        # Aggregate arguments and GROUP BY columns must be exposed by the
        # conjunctive core so the runtime can aggregate on top of it.
        for column in statement.group_by:
            variable = self._resolve_column(column, alias_to_table)
            term = self._term_for(variable, union_find, constants)
            if term not in head_terms:
                head_terms.append(term)
                output_names.append(column.column)
        for item in statement.aggregates():
            if item.argument is None:
                continue
            variable = self._resolve_column(item.argument, alias_to_table)
            term = self._term_for(variable, union_find, constants)
            if term not in head_terms:
                head_terms.append(term)
                output_names.append(item.argument.column)
        if not head_terms:
            raise TranslationError("the SELECT list resolves to no output columns")
        return head_terms, tuple(output_names)

    def _build_aggregation(
        self,
        statement: SelectStatement,
        alias_to_table: Mapping[str, str],
        union_find: "_UnionFind",
        constants: Mapping[str, object],
    ) -> ResidualAggregation | None:
        aggregates = statement.aggregates()
        if not aggregates:
            return None
        # A column pinned to a constant is not a variable of the conjunctive
        # core (the head carries the constant), and grouping by it groups by
        # nothing.
        representatives = (
            union_find.find(self._resolve_column(column, alias_to_table))
            for column in statement.group_by
        )
        group_by = tuple(name for name in representatives if name not in constants)
        aggregations: dict[str, tuple[str, str | None]] = {}
        for item in aggregates:
            argument = (
                union_find.find(self._resolve_column(item.argument, alias_to_table))
                if item.argument is not None
                else None
            )
            aggregations[item.alias] = (item.function, argument)
        return ResidualAggregation(group_by=group_by, aggregations=aggregations)


class _UnionFind:
    """Union-find over variable names, used to merge equated columns."""

    def __init__(self, names: list[str]) -> None:
        self._parent: dict[str, str] = {name: name for name in names}

    def find(self, name: str) -> str:
        parent = self._parent.setdefault(name, name)
        if parent == name:
            return name
        root = self.find(parent)
        self._parent[name] = root
        return root

    def union(self, left: str, right: str) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root != right_root:
            # Deterministic orientation: keep the lexicographically smaller root.
            small, large = sorted((left_root, right_root))
            self._parent[large] = small
