"""Values of the ESTOCADA runtime.

The execution engine's operators exchange rows as
:class:`~repro.runtime.batch.RowBatch` tuples; a *binding* — a dictionary
mapping variable names to values — is the shape a query result's rows take.
"""

from __future__ import annotations

__all__ = ["Binding"]

Binding = dict[str, object]
