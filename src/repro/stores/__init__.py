"""Simulated DMS substrates used in place of Postgres/MongoDB/Redis/SOLR/Spark.

Every store implements the common :class:`repro.stores.base.Store` interface:
a capability profile consulted by the translation layer when deciding what to
delegate, plus execution of the store-request micro-IR with per-request
metrics.
"""

from repro.stores.base import (
    JoinRequest,
    LookupRequest,
    Predicate,
    ScanRequest,
    SearchRequest,
    Store,
    StoreCapabilities,
    StoreMetrics,
    StoreRequest,
    StoreResult,
)
from repro.stores.document import DocumentStore
from repro.stores.fulltext import FullTextStore
from repro.stores.keyvalue import KeyValueStore
from repro.stores.parallel import ParallelStore
from repro.stores.relational import RelationalStore
from repro.stores.replicated import ReplicatedStore, ReplicationPolicy
from repro.stores.sharded import ShardedStore
from repro.stores.sharding import ShardingSpec, stable_hash

__all__ = [
    "Store",
    "StoreCapabilities",
    "StoreMetrics",
    "StoreResult",
    "StoreRequest",
    "Predicate",
    "ScanRequest",
    "LookupRequest",
    "JoinRequest",
    "SearchRequest",
    "RelationalStore",
    "DocumentStore",
    "KeyValueStore",
    "FullTextStore",
    "ParallelStore",
    "ReplicatedStore",
    "ReplicationPolicy",
    "ShardedStore",
    "ShardingSpec",
    "stable_hash",
]
