"""Pivot-model encodings of the heterogeneous data models ESTOCADA supports.

Each encoding maps one native data model (relational, document, key-value)
onto the relational pivot model, providing the virtual
relation signatures, the constraints axiomatising the model, and an encoder
for concrete instances.
"""

from repro.datamodel.document import DOCUMENT_RELATIONS, DocumentEncoding
from repro.datamodel.encoding import DataModelEncoding, RelationSignature
from repro.datamodel.keyvalue import KeyValueCollectionSchema, KeyValueEncoding
from repro.datamodel.relational import RelationalEncoding, RelationalSchema, TableSchema

__all__ = [
    "DataModelEncoding",
    "RelationSignature",
    "RelationalEncoding",
    "RelationalSchema",
    "TableSchema",
    "DocumentEncoding",
    "DOCUMENT_RELATIONS",
    "KeyValueEncoding",
    "KeyValueCollectionSchema",
]
