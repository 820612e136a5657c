"""Exception hierarchy for the ESTOCADA reproduction.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Sub-hierarchies mirror the subsystems: the
pivot model / rewriting engine, the catalog, the simulated stores, query
languages, the translation layer, the runtime and the advisor.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A ``REPRO_*`` environment variable holds a value it does not accept.

    ``variable`` names the variable; the message also gives its value and
    what the variable accepts (see :mod:`repro.settings`).
    """

    def __init__(self, message: str, variable: str = "") -> None:
        super().__init__(message)
        self.variable = variable


# ---------------------------------------------------------------------------
# Pivot model / rewriting
# ---------------------------------------------------------------------------

class PivotModelError(ReproError):
    """Malformed pivot-model object (atom, query, constraint, ...)."""


class ArityError(PivotModelError):
    """An atom was built with the wrong number of arguments for its relation."""


class ChaseError(ReproError):
    """The chase could not complete (non-termination guard hit, bad input)."""


class ChaseNonTerminationError(ChaseError):
    """The chase exceeded its step budget and was aborted."""


class RewritingError(ReproError):
    """View-based rewriting failed."""


class NoRewritingFoundError(RewritingError):
    """No equivalent rewriting exists over the registered fragments."""


class InfeasibleRewritingError(RewritingError):
    """All candidate rewritings violate an access-pattern (binding) restriction."""


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------

class CatalogError(ReproError):
    """Problems registering or resolving datasets, stores or fragments."""


class UnknownDatasetError(CatalogError):
    """The referenced dataset has not been registered."""


class UnknownStoreError(CatalogError):
    """The referenced store has not been registered."""


class UnknownFragmentError(CatalogError):
    """The referenced fragment descriptor does not exist."""


class DuplicateRegistrationError(CatalogError):
    """A dataset, store or fragment with the same name is already registered."""


# ---------------------------------------------------------------------------
# Stores
# ---------------------------------------------------------------------------

class StoreError(ReproError):
    """Base class for errors raised by the simulated stores."""


class UnsupportedOperationError(StoreError):
    """The store does not support the requested operation (e.g. joins)."""


class TransientStoreError(StoreError):
    """A request failed in a way that a retry can be expected to fix.

    Models dropped requests, timeouts and mid-stream connection losses: the
    store itself is believed alive, so the replication layer retries the same
    replica (bounded) before failing over.
    """


class StoreCrashedError(StoreError):
    """The store instance is down; requests to it cannot succeed until revival.

    Retrying the same instance is pointless — the replication layer fails
    over to another replica and marks this one unhealthy.
    """


class AllReplicasFailedError(StoreError):
    """Every replica of a replicated store failed to serve a request."""


class AccessPatternViolation(StoreError):
    """A store access did not supply a value for a required (bound) field."""


class SchemaError(StoreError):
    """Tuple or document does not match the declared schema."""


class KeyNotFoundError(StoreError):
    """Key-value lookup for a missing key (when missing_ok is False)."""


# ---------------------------------------------------------------------------
# Durable storage (WAL + columnar segments)
# ---------------------------------------------------------------------------

class DurabilityError(StoreError):
    """Base class for errors raised by the durable segment backing."""


class WalCorruptionError(DurabilityError):
    """A WAL frame failed its CRC or structural check *before* the tail.

    A torn **final** frame is expected after a crash and is silently dropped
    by recovery; corruption anywhere earlier means the log cannot be trusted
    and recovery refuses to proceed past it.
    """


class SegmentCorruptError(DurabilityError):
    """A segment file is unreadable: bad magic, short read, or CRC mismatch."""


class SimulatedCrashError(DurabilityError):
    """An injected crash fired inside the WAL append/fsync window.

    Raised by the disk fault injector's crash hook; tests catch it, reopen
    the directory, and assert recovery restores the pre-crash state.
    """


# ---------------------------------------------------------------------------
# Write path / fragment maintenance
# ---------------------------------------------------------------------------

class WriteError(ReproError):
    """A DML operation (insert/update/delete) could not be applied."""


class PartialWriteError(WriteError):
    """A fan-out write failed on some children after succeeding on others.

    The writer attempts to roll the successful children back by applying the
    inverse delta; ``rolled_back`` records whether that undo itself succeeded
    (when it did not, the named children may hold the write while the others
    do not — the fragment is marked stale so readers never trust it silently).
    """

    def __init__(
        self,
        message: str,
        failed_children: tuple[str, ...] = (),
        rolled_back: bool = True,
    ) -> None:
        super().__init__(message)
        self.failed_children = failed_children
        self.rolled_back = rolled_back


class DeltaError(ReproError):
    """A delta could not be applied or propagated (e.g. deleting a missing row)."""


class MaintenanceError(ReproError):
    """Incremental fragment maintenance failed."""


class MaintenanceCancelledError(MaintenanceError):
    """A maintenance pass was cancelled before draining every pending delta.

    Fragments whose deltas were fully applied are fresh; the rest keep their
    pending deltas and stay *detectably* stale (never silently wrong).
    """


class StaleFragmentError(MaintenanceError):
    """No plan satisfies the query's ``max_staleness`` bound and the stale
    fragments cannot be maintained (e.g. their store is down)."""


class MigrationError(MaintenanceError):
    """A live fragment migration could not start or complete.

    A failed or cancelled migration always rolls back to serving the old
    placement — the catalog is never left half-cut.
    """


# ---------------------------------------------------------------------------
# Query languages
# ---------------------------------------------------------------------------

class LanguageError(ReproError):
    """Base class for query-language front-end errors."""


class ParseError(LanguageError):
    """The query text could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        super().__init__(message)
        self.position = position


class TranslationError(LanguageError):
    """The parsed query cannot be translated to the pivot model."""


# ---------------------------------------------------------------------------
# Translation / planning / runtime
# ---------------------------------------------------------------------------

class PlanningError(ReproError):
    """The rewriting could not be turned into an executable plan."""


class ExecutionError(ReproError):
    """The runtime engine failed while evaluating a plan."""


class DeadlineExceededError(ExecutionError):
    """The query's time budget elapsed before the result was complete.

    Raised both for queries whose deadline expires while queued in the
    serving layer and for queries cancelled mid-stream by the engine's
    deadline timer; in either case the query's service slot is released and
    its in-flight store requests are cancelled cooperatively.
    """

    def __init__(self, message: str, deadline_seconds: float | None = None) -> None:
        super().__init__(message)
        self.deadline_seconds = deadline_seconds


# ---------------------------------------------------------------------------
# Query service (admission control)
# ---------------------------------------------------------------------------

class ServiceError(ReproError):
    """Base class for errors raised by the multi-tenant query service."""


class OverloadedError(ServiceError):
    """The service fast-rejected a submission instead of queueing it.

    ``reason`` is ``"queue_full"`` (the tenant's bounded queue is at
    capacity — backpressure) or ``"rate_limited"`` (the tenant's token
    bucket is empty — quota).  Shedding at submission keeps rejection cheap
    and latency bounded; callers should back off and retry.
    """

    def __init__(self, message: str, tenant: str = "", reason: str = "") -> None:
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason


class ServiceClosedError(ServiceError):
    """The query service has been shut down and accepts no new submissions."""


class UnknownTenantError(ServiceError):
    """The submission names a tenant the service was not configured with."""


# ---------------------------------------------------------------------------
# Cost model / advisor
# ---------------------------------------------------------------------------

class CostModelError(ReproError):
    """Cost or cardinality estimation failed."""


class AdvisorError(ReproError):
    """The storage advisor could not produce a recommendation."""
