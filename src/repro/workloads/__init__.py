"""Synthetic workload and data generators (marketplace, Big Data Benchmark)."""

from repro.workloads.bigdata import BigDataConfig, BigDataData, generate_bigdata
from repro.workloads.marketplace import (
    MarketplaceConfig,
    MarketplaceData,
    generate_marketplace,
    key_lookup_workload,
)

__all__ = [
    "MarketplaceConfig",
    "MarketplaceData",
    "generate_marketplace",
    "key_lookup_workload",
    "BigDataConfig",
    "BigDataData",
    "generate_bigdata",
]
