"""Simulated document store (MongoDB stand-in)."""

from repro.stores.document.store import (
    DocumentStore,
    flatten_document,
    get_path,
    unflatten_document,
)

__all__ = ["DocumentStore", "get_path", "flatten_document", "unflatten_document"]
