"""Deterministic fault injection and load generation.

This is *product* code, not test scaffolding: the :class:`FaultInjector`
injects stragglers, errors and crashes around any store, and the
:class:`OpenLoopDriver` offers load on a fixed schedule; operators can use
both to rehearse failure and overload drills against a deployment.
"""

from repro.testing.faults import (
    DiskFaultInjector,
    DiskFaultProfile,
    FaultInjector,
    FaultProfile,
)
from repro.testing.workload import LoadReport, OpenLoopDriver, WorkloadQuery, percentile

__all__ = [
    "DiskFaultInjector",
    "DiskFaultProfile",
    "FaultInjector",
    "FaultProfile",
    "LoadReport",
    "OpenLoopDriver",
    "WorkloadQuery",
    "percentile",
]
