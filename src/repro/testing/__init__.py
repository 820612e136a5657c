"""Deterministic fault injection.

This is *product* code, not test scaffolding: the :class:`FaultInjector`
injects stragglers, errors and crashes around any store, and the
:class:`DiskFaultInjector` tears and crashes the durable write path;
operators can use both to rehearse failure drills against a deployment.
"""

from repro.testing.faults import (
    DiskFaultInjector,
    DiskFaultProfile,
    FaultInjector,
    FaultProfile,
)

__all__ = [
    "DiskFaultInjector",
    "DiskFaultProfile",
    "FaultInjector",
    "FaultProfile",
]
