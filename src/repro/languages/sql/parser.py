"""A small SQL front-end: lexer, AST and recursive-descent parser.

ESTOCADA lets applications keep querying each dataset in its native language;
for relational datasets that language is SQL.  The dialect supported here
covers the conjunctive core used throughout the paper plus the aggregates
needed by the Big-Data-Benchmark-style workload:

.. code-block:: sql

    SELECT [DISTINCT] item [, item ...]
    FROM table [alias] [, table [alias] ...]
    [WHERE condition AND condition ...]
    [GROUP BY column [, column ...]]
    [LIMIT n]

where an item is a (qualified) column, ``*``, an aggregate ``COUNT/SUM/AVG/
MIN/MAX(column | *)`` optionally aliased with ``AS``, and a condition compares
a column with a literal or another column using ``= != < <= > >=``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ParseError

__all__ = [
    "Token",
    "tokenize",
    "ColumnRef",
    "Literal",
    "AggregateItem",
    "SelectItem",
    "Condition",
    "TableRef",
    "SelectStatement",
    "parse_select",
]

_KEYWORDS = {
    "select", "distinct", "from", "where", "and", "group", "by", "limit", "as", "join", "on",
}
_AGGREGATES = {"count", "sum", "avg", "min", "max"}
_TOKEN_SPEC = [
    ("NUMBER", r"\d+(\.\d+)?"),
    ("STRING", r"'(?:[^'\\]|\\.)*'"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("OP", r"<=|>=|!=|<>|=|<|>"),
    ("STAR", r"\*"),
    ("COMMA", r","),
    ("DOT", r"\."),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("WS", r"\s+"),
]
_MASTER_PATTERN = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))


@dataclass(frozen=True, slots=True)
class Token:
    """One lexical token with its position (for error messages)."""

    kind: str
    value: str
    position: int


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text; raises :class:`ParseError` on illegal characters."""
    tokens: list[Token] = []
    position = 0
    while position < len(text):
        match = _MASTER_PATTERN.match(text, position)
        if match is None:
            raise ParseError(f"illegal character {text[position]!r}", position=position)
        kind = match.lastgroup or ""
        value = match.group()
        if kind != "WS":
            if kind == "IDENT" and value.lower() in _KEYWORDS:
                tokens.append(Token("KEYWORD", value.lower(), position))
            else:
                tokens.append(Token(kind, value, position))
        position = match.end()
    tokens.append(Token("EOF", "", position))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ColumnRef:
    """A possibly table-qualified column reference."""

    table: str | None
    column: str

    def __str__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True, slots=True)
class Literal:
    """A string or numeric literal."""

    value: object


@dataclass(frozen=True, slots=True)
class AggregateItem:
    """An aggregate select item, e.g. ``SUM(r.revenue) AS total``."""

    function: str
    argument: ColumnRef | None
    alias: str


@dataclass(frozen=True, slots=True)
class SelectItem:
    """A plain column select item with an output alias."""

    column: ColumnRef
    alias: str


@dataclass(frozen=True, slots=True)
class Condition:
    """A comparison ``left <op> right`` where right is a column or a literal."""

    left: ColumnRef
    op: str
    right: ColumnRef | Literal


@dataclass(frozen=True, slots=True)
class TableRef:
    """A table reference with its alias (alias defaults to the table name)."""

    table: str
    alias: str


@dataclass(frozen=True, slots=True)
class SelectStatement:
    """The parsed SELECT statement."""

    items: tuple[SelectItem | AggregateItem, ...]
    tables: tuple[TableRef, ...]
    conditions: tuple[Condition, ...]
    group_by: tuple[ColumnRef, ...] = ()
    distinct: bool = False
    select_star: bool = False
    limit: int | None = None

    def aggregates(self) -> tuple[AggregateItem, ...]:
        """The aggregate items of the SELECT list."""
        return tuple(item for item in self.items if isinstance(item, AggregateItem))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: Sequence[Token]) -> None:
        self._tokens = list(tokens)
        self._index = 0
        # JOIN ... ON conditions are folded into the WHERE conditions.
        self._pending_join_conditions: list[Condition] = []

    # -- token helpers -------------------------------------------------------
    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._peek()
        if token.kind != kind or (value is not None and token.value != value):
            expected = value or kind
            raise ParseError(
                f"expected {expected!r} but found {token.value or token.kind!r}",
                position=token.position,
            )
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        token = self._peek()
        if token.kind == "KEYWORD" and token.value == word:
            self._advance()
            return True
        return False

    # -- grammar -------------------------------------------------------------
    def parse(self) -> SelectStatement:
        self._expect("KEYWORD", "select")
        distinct = self._accept_keyword("distinct")
        items, select_star = self._parse_select_list()
        self._expect("KEYWORD", "from")
        tables = self._parse_from()
        conditions: list[Condition] = []
        if self._accept_keyword("where"):
            conditions = self._parse_conditions()
        group_by: list[ColumnRef] = []
        if self._accept_keyword("group"):
            self._expect("KEYWORD", "by")
            group_by = self._parse_column_list()
        limit: int | None = None
        if self._accept_keyword("limit"):
            token = self._expect("NUMBER")
            limit = int(float(token.value))
        self._expect("EOF")
        return SelectStatement(
            items=tuple(items),
            tables=tuple(tables),
            conditions=tuple(conditions),
            group_by=tuple(group_by),
            distinct=distinct,
            select_star=select_star,
            limit=limit,
        )

    def _parse_select_list(self) -> tuple[list[SelectItem | AggregateItem], bool]:
        items: list[SelectItem | AggregateItem] = []
        select_star = False
        while True:
            token = self._peek()
            if token.kind == "STAR":
                self._advance()
                select_star = True
            elif token.kind == "IDENT" and token.value.lower() in _AGGREGATES and \
                    self._tokens[self._index + 1].kind == "LPAREN":
                items.append(self._parse_aggregate())
            else:
                column = self._parse_column_ref()
                alias = self._parse_optional_alias(default=column.column)
                items.append(SelectItem(column=column, alias=alias))
            if self._peek().kind == "COMMA":
                self._advance()
                continue
            break
        return items, select_star

    def _parse_aggregate(self) -> AggregateItem:
        function = self._advance().value.lower()
        self._expect("LPAREN")
        argument: ColumnRef | None = None
        if self._peek().kind == "STAR":
            self._advance()
        else:
            argument = self._parse_column_ref()
        self._expect("RPAREN")
        default_alias = f"{function}_{argument.column}" if argument else function
        alias = self._parse_optional_alias(default=default_alias)
        return AggregateItem(function=function, argument=argument, alias=alias)

    def _parse_optional_alias(self, default: str) -> str:
        if self._accept_keyword("as"):
            return self._expect("IDENT").value
        if self._peek().kind == "IDENT":
            # bare alias (SELECT col alias)
            return self._advance().value
        return default

    def _parse_from(self) -> list[TableRef]:
        tables = [self._parse_table_ref()]
        while True:
            if self._peek().kind == "COMMA":
                self._advance()
                tables.append(self._parse_table_ref())
            elif self._peek().kind == "KEYWORD" and self._peek().value == "join":
                self._advance()
                tables.append(self._parse_table_ref())
                self._expect("KEYWORD", "on")
                condition = self._parse_condition()
                self._pending_join_conditions.append(condition)
            else:
                break
        return tables

    def _parse_table_ref(self) -> TableRef:
        table = self._expect("IDENT").value
        alias = table
        if self._peek().kind == "IDENT":
            alias = self._advance().value
        return TableRef(table=table, alias=alias)

    def _parse_conditions(self) -> list[Condition]:
        conditions = [self._parse_condition()]
        while self._accept_keyword("and"):
            conditions.append(self._parse_condition())
        return conditions

    def _parse_condition(self) -> Condition:
        left = self._parse_column_ref()
        op_token = self._expect("OP")
        op = "!=" if op_token.value == "<>" else op_token.value
        token = self._peek()
        right: ColumnRef | Literal
        if token.kind in {"NUMBER", "STRING"}:
            right = Literal(self._parse_literal())
        else:
            right = self._parse_column_ref()
        return Condition(left=left, op=op, right=right)

    def _parse_literal(self) -> object:
        token = self._advance()
        if token.kind == "NUMBER":
            value = float(token.value)
            return int(value) if value.is_integer() else value
        if token.kind == "STRING":
            return token.value[1:-1].replace("\\'", "'")
        raise ParseError(f"expected a literal, found {token.value!r}", position=token.position)

    def _parse_column_ref(self) -> ColumnRef:
        first = self._expect("IDENT").value
        if self._peek().kind == "DOT":
            self._advance()
            second = self._expect("IDENT").value
            return ColumnRef(table=first, column=second)
        return ColumnRef(table=None, column=first)

    def _parse_column_list(self) -> list[ColumnRef]:
        columns = [self._parse_column_ref()]
        while self._peek().kind == "COMMA":
            self._advance()
            columns.append(self._parse_column_ref())
        return columns

def parse_select(text: str) -> SelectStatement:
    """Parse a SELECT statement; raises :class:`ParseError` on invalid input."""
    parser = _Parser(tokenize(text))
    statement = parser.parse()
    if parser._pending_join_conditions:
        statement = SelectStatement(
            items=statement.items,
            tables=statement.tables,
            conditions=statement.conditions + tuple(parser._pending_join_conditions),
            group_by=statement.group_by,
            distinct=statement.distinct,
            select_star=statement.select_star,
            limit=statement.limit,
        )
    return statement
