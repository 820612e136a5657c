"""Native query-language front-ends translated into the pivot model."""

from repro.languages.sql import SqlTranslator, parse_select
from repro.languages.docql import DocumentQuery

__all__ = ["SqlTranslator", "parse_select", "DocumentQuery"]
