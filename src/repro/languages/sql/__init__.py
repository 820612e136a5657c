"""SQL front-end: parser and translation to the pivot model."""

from repro.languages.sql.parser import SelectStatement, parse_select, tokenize
from repro.languages.sql.translator import (
    ResidualAggregation,
    SqlTranslator,
    TranslatedQuery,
)

__all__ = [
    "parse_select",
    "tokenize",
    "SelectStatement",
    "SqlTranslator",
    "TranslatedQuery",
    "ResidualAggregation",
]
