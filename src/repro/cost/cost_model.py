"""Per-store access cost formulas and whole-plan cost estimation.

Each store kind has a small cost profile (cost to scan one row, to perform
one key/index lookup, per-request overhead, and a parallelism factor for the
partitioned store).  The plan cost estimator walks the same delegation groups
the planner produces and charges:

* full-scan or index-assisted cost for the first group,
* per-probe lookup cost times the estimated number of left rows for groups
  fetched by a keyed (bind) join — the price of one request per left row,
  though the keyed join issues one per ``batch_size`` distinct keys,
* scan + build cost for hash-joined groups,
* a mediator (runtime) cost proportional to the rows the runtime touches.

Absolute numbers are arbitrary units; only *relative* comparisons matter for
choosing among rewritings — the same role the cost model plays in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.catalog.statistics import StatisticsCatalog
from repro.core.terms import Constant, Variable
from repro.cost.cardinality import CardinalityEstimator
from repro.errors import CostModelError
from repro.stores.base import Predicate
from repro.translation.grouping import AtomAccess, DelegationGroup

__all__ = [
    "StoreCostProfile",
    "DEFAULT_PROFILES",
    "LATENCY_COST_PER_SECOND",
    "PlanCostEstimate",
    "RewritingCostBound",
    "CostModel",
]


@dataclass(frozen=True, slots=True)
class StoreCostProfile:
    """Cost constants of one store kind (arbitrary units per row / per call).

    ``request_latency_seconds`` mirrors the simulated per-request service
    latency of the store (0 by default): each request charged to a store adds
    ``request_latency_seconds * LATENCY_COST_PER_SECOND`` cost units, so
    per-probe plans against a slow store lose to single-scan plans.
    """

    scan_row_cost: float
    lookup_cost: float
    request_overhead: float
    parallelism: float = 1.0
    request_latency_seconds: float = 0.0

    @property
    def request_cost(self) -> float:
        """Fixed cost of issuing one request (overhead + simulated latency)."""
        return self.request_overhead + self.request_latency_seconds * LATENCY_COST_PER_SECOND


DEFAULT_PROFILES: Mapping[str, StoreCostProfile] = {
    "relational": StoreCostProfile(scan_row_cost=1.0, lookup_cost=2.0, request_overhead=5.0),
    "document": StoreCostProfile(scan_row_cost=1.3, lookup_cost=2.5, request_overhead=5.0),
    "keyvalue": StoreCostProfile(scan_row_cost=5.0, lookup_cost=0.6, request_overhead=1.0),
    "fulltext": StoreCostProfile(scan_row_cost=1.5, lookup_cost=1.5, request_overhead=5.0),
    "nested": StoreCostProfile(scan_row_cost=1.0, lookup_cost=1.2, request_overhead=8.0, parallelism=4.0),
}

_RUNTIME_ROW_COST = 0.3
"""Mediator cost charged per runtime-touched row.

The kernels resolve column positions once per batch and run fused
Filter/Project/Output chains in a single pass over row tuples, so a
mediator-touched row is markedly cheaper than a store-scanned one.
"""

LATENCY_COST_PER_SECOND = 1000.0
"""Cost units charged per second of simulated per-request store latency."""

SHARD_FANOUT_CONCURRENCY = 4.0
"""Assumed overlap of per-shard requests when a scan fans out across shards.

Mirrors the scatter-gather executor's typical width: an unpruned scan of an
N-shard fragment pays every shard's request overhead, but the per-row scan
work (and the request latencies) overlap up to this factor.  Only relative
comparisons matter — the constant makes pruned single-shard plans clearly
cheaper than fan-outs while keeping fan-outs cheaper than N serial scans.
"""


@dataclass(slots=True)
class PlanCostEstimate:
    """Estimated cost and cardinality of one planned rewriting."""

    rewriting_name: str
    total_cost: float
    estimated_rows: float
    per_group_costs: list[float]

    def __lt__(self, other: "PlanCostEstimate") -> bool:
        return self.total_cost < other.total_cost


class RewritingCostBound:
    """Per-fragment cost bounds used to prune dominated rewriting candidates.

    The backchase asks two questions about a candidate's fragment set:

    * :meth:`lower_bound` — an *admissible* floor: no physical plan touching
      these fragments can cost less (every access pays at least a tenth of the
      store's request overhead, the cheapest path the access-cost formulas
      can take);
    * :meth:`estimate` — a scan-all proxy for what an accepted candidate will
      actually cost (full delegated scan of each fragment plus mediator row
      work), used as the best-so-far yardstick.

    A candidate whose floor already reaches the best accepted estimate cannot
    win the plan ranking, so :func:`repro.core.pacb.pacb_rewrite` discards it
    before the expensive equivalence verification.  Per-fragment numbers are
    resolved lazily and cached, so constructing a bound never scans the
    catalog — cost stays proportional to the fragments actually examined.
    """

    __slots__ = ("_profile_for", "_cardinality_for", "_entries")

    def __init__(
        self,
        profile_for: Callable[[str], StoreCostProfile | None],
        cardinality_for: Callable[[str], float],
    ) -> None:
        self._profile_for = profile_for
        self._cardinality_for = cardinality_for
        self._entries: dict[str, tuple[float, float]] = {}

    def _entry(self, fragment: str) -> tuple[float, float]:
        entry = self._entries.get(fragment)
        if entry is None:
            profile = self._profile_for(fragment)
            if profile is None:
                # Unknown fragment: floor 0 keeps the bound admissible and an
                # infinite estimate means it never prunes other candidates.
                entry = (0.0, float("inf"))
            else:
                floor = 0.1 * profile.request_overhead
                rows = max(float(self._cardinality_for(fragment)), 0.0)
                estimate = (
                    profile.request_cost
                    + (rows * profile.scan_row_cost) / max(profile.parallelism, 1.0)
                    + _RUNTIME_ROW_COST * rows
                )
                entry = (floor, estimate)
            self._entries[fragment] = entry
        return entry

    def lower_bound(self, fragments: Iterable[str]) -> float:
        """Admissible cost floor of any plan over ``fragments``."""
        return sum(self._entry(fragment)[0] for fragment in fragments)

    def estimate(self, fragments: Iterable[str]) -> float:
        """Scan-all cost proxy for a plan over ``fragments``."""
        return sum(self._entry(fragment)[1] for fragment in fragments)


class CostModel:
    """Estimates the execution cost of planned rewritings."""

    def __init__(self, statistics: StatisticsCatalog) -> None:
        self._statistics = statistics
        self._estimator = CardinalityEstimator(statistics)

    # -- profiles -------------------------------------------------------------------
    def profile_for(self, data_model: str) -> StoreCostProfile:
        """The cost profile of a store data model (defaults to relational)."""
        profile = DEFAULT_PROFILES.get(data_model)
        if profile is None:
            profile = DEFAULT_PROFILES.get("relational")
        if profile is None:
            raise CostModelError(f"no cost profile for data model {data_model!r}")
        return profile

    @property
    def estimator(self) -> CardinalityEstimator:
        """The cardinality estimator used by this cost model."""
        return self._estimator

    def rewriting_bound(
        self, data_model_for: Callable[[str], str | None]
    ) -> RewritingCostBound:
        """A :class:`RewritingCostBound` backed by this model's statistics.

        ``data_model_for`` maps a fragment name to the data model of its store
        (or None for unknown fragments); resolution happens lazily per
        fragment, so the bound is cheap to build even on huge catalogs.
        """

        def profile(fragment: str) -> StoreCostProfile | None:
            data_model = data_model_for(fragment)
            if data_model is None:
                return None
            return self.profile_for(data_model)

        return RewritingCostBound(profile, self.estimated_cardinality)

    # -- runtime feedback --------------------------------------------------------------
    def record_observation(self, fragment: str, observed_rows: int) -> float | None:
        """Feed one observed fragment cardinality back into the statistics.

        The statistics catalog refreshes its exponentially-weighted estimate;
        subsequent :meth:`estimate_groups` / :meth:`join_algorithm` calls use
        the refreshed value.  Returns the drift of the estimate relative to
        what the planner was using (see
        :meth:`repro.catalog.statistics.StatisticsCatalog.record_observation`).
        """
        return self._statistics.record_observation(fragment, observed_rows)

    def estimated_cardinality(self, fragment: str) -> int:
        """The cardinality the planner currently assumes for ``fragment``."""
        return self._statistics.get(fragment).cardinality

    # -- staleness pricing -------------------------------------------------------------
    def staleness_cost(self, fragment: str, profile: StoreCostProfile) -> float:
        """Cost penalty for serving from a fragment with a maintenance backlog.

        A stale fragment either forces maintenance before the read or returns
        slightly old data; both are worth avoiding when a fresh copy exists,
        so each access is charged the backlog's pending row volume at the
        store's scan rate (roughly the work of catching the fragment up).
        Fresh fragments pay nothing, so the penalty only reorders plans when
        copies genuinely differ in staleness.
        """
        staleness = self._statistics.fragment_staleness(fragment)
        if staleness.fresh:
            return 0.0
        return staleness.pending_rows * profile.scan_row_cost + staleness.age * 0.1

    # -- replica selection --------------------------------------------------------------
    def request_latency_seconds(self, store, profile: StoreCostProfile) -> float:
        """Per-request latency charged for ``store`` under ``profile``.

        For a replicated store with observed latencies this is the cheapest
        *healthy* replica's EWMA service latency — the request is expected to
        route there, so pricing the static profile latency would overcharge a
        deployment whose fast replicas are healthy (and undercharge one whose
        only healthy replicas are slow).  Falls back to the profile constant
        when no replica data exists.
        """
        board = getattr(store, "health", None)
        if board is not None:
            best = board.best_healthy_latency()
            if best is not None:
                return best
        return profile.request_latency_seconds

    # -- group costs -------------------------------------------------------------------
    def _access_cost(self, access: AtomAccess, left_rows: float, bound: set[Variable]) -> tuple[float, float]:
        """Cost and output cardinality of accessing one atom given ``left_rows``.

        ``bound`` holds the variables already produced by earlier groups; an
        access whose input columns are bound behaves like a per-row probe.
        """
        stats = self._statistics.get(access.descriptor.fragment_name)
        profile = self.profile_for(access.store.capabilities().data_model)
        estimate = self._estimator.atom_estimate(access)
        staleness_penalty = self.staleness_cost(access.descriptor.fragment_name, profile)

        probe_columns = [
            column
            for column, term in zip(access.columns, access.atom.terms)
            if isinstance(term, Variable) and term in bound
        ]
        constant_columns = [
            column
            for column, term in zip(access.columns, access.atom.terms)
            if isinstance(term, Constant)
        ]
        has_index = any(
            column in stats.indexed_columns for column in probe_columns + constant_columns
        )
        requires_key = access.store.capabilities().requires_key_lookup or (
            access.descriptor.access.kind == "lookup"
        )
        key_columns = set(access.descriptor.access.key_columns) | set(access.input_columns())
        constant_on_key = bool(key_columns & set(constant_columns))

        # Replica selection: a replicated store serves the request from its
        # cheapest healthy replica, so its observed EWMA latency (not the
        # static profile constant) prices each request.
        request_latency = self.request_latency_seconds(access.store, profile)
        per_probe_latency = request_latency * LATENCY_COST_PER_SECOND
        request_cost = profile.request_overhead + per_probe_latency

        if probe_columns and (requires_key or has_index):
            # Keyed (bind) join: priced as one lookup request per left row,
            # each paying the store's latency.  The keyed join sends one
            # request per `batch_size` distinct keys instead; this price is
            # kept on purpose, so every statement keeps its plan, until the
            # model is calibrated against the runtime (ROADMAP.md, "Plan
            # quality").
            per_probe_rows = stats.cardinality
            for column in probe_columns + constant_columns:
                per_probe_rows *= stats.selectivity_of_equality(column)
            cost = left_rows * (
                profile.lookup_cost + profile.request_overhead * 0.1 + per_probe_latency
            )
            output = left_rows * max(per_probe_rows, 0.0)
            return cost + staleness_penalty, output

        if constant_on_key and requires_key:
            # A constant pins the lookup key: a single point access.
            per_lookup_rows = stats.cardinality
            for column in constant_columns:
                per_lookup_rows *= stats.selectivity_of_equality(column)
            cost = profile.lookup_cost + request_cost
            output = max(per_lookup_rows, 0.0)
            if left_rows:
                cost += _RUNTIME_ROW_COST * (left_rows + output)
                output = left_rows * output
            return cost + staleness_penalty, output

        # Delegated scan (possibly index-assisted on a constant).
        scanned = stats.cardinality
        if has_index and constant_columns:
            scanned = max(estimate.estimated_rows, 1.0)
        else:
            fraction = self._segment_fraction(access)
            if fraction is not None:
                # Durable deployments serve unindexed scans from frozen
                # segments; the backing knows which segments the equality
                # constants exclude, so only the survivors are priced.
                scanned *= fraction
        spec = access.descriptor.sharding
        if spec is not None:
            scan_cost = self._sharded_scan_cost(access, spec, stats, profile, scanned)
        else:
            scan_cost = request_cost + (scanned * profile.scan_row_cost) / max(
                profile.parallelism, 1.0
            )
        if left_rows:
            # The mediator joins this scan with the left side.
            scan_cost += _RUNTIME_ROW_COST * (left_rows + estimate.estimated_rows)
            join_selectivity = 1.0
            for column in probe_columns:
                join_selectivity *= stats.selectivity_of_equality(column)
            output = left_rows * estimate.estimated_rows * join_selectivity
        else:
            output = estimate.estimated_rows
        return scan_cost + staleness_penalty, output

    def _segment_fraction(self, access: AtomAccess) -> float | None:
        """Zone-map survival fraction of a delegated full scan, when known.

        Maps the atom's equality constants onto store-side columns and asks
        the store how much of the collection survives segment pruning; None
        when the store has no durable backing (or no frozen segments yet).
        """
        fraction_of = getattr(access.store, "segment_scan_fraction", None)
        if fraction_of is None:
            return None
        layout = access.descriptor.layout
        bounds = tuple(
            Predicate(layout.store_column(column), "=", value)
            for column, value in access.constant_by_column().items()
        )
        return fraction_of(layout.collection, bounds)

    def _sharded_scan_cost(
        self,
        access: AtomAccess,
        spec,
        stats,
        profile: StoreCostProfile,
        scanned: float,
    ) -> float:
        """Scan cost of a sharded fragment: pruned single-shard vs fan-out.

        A constant on the shard key routes the scan to one shard — one
        request, that shard's rows.  Otherwise the planner fans out one
        request per shard; every request's overhead (and latency, amortized
        by the executor's overlap) is paid, and the row work overlaps across
        shards.  Costs are computed from the catalog's *per-shard*
        cardinalities, so drifting shard statistics re-price cached plans
        after invalidation.
        """
        request_latency = self.request_latency_seconds(access.store, profile)
        constants = access.constant_by_column()
        if spec.shard_key in constants:
            target = spec.route(constants[spec.shard_key])
            shard_rows = float(stats.shard_cardinality(target))
            # Other constants still narrow the shard-local scan estimate.
            for column, _ in constants.items():
                if column != spec.shard_key:
                    shard_rows *= stats.selectivity_of_equality(column)
            point_request = (
                profile.request_overhead + request_latency * LATENCY_COST_PER_SECOND
            )
            return point_request + shard_rows * profile.scan_row_cost
        overlap = max(min(float(spec.shards), SHARD_FANOUT_CONCURRENCY), 1.0)
        fixed = profile.request_overhead * spec.shards
        latency = (
            request_latency * LATENCY_COST_PER_SECOND * spec.shards
        ) / overlap
        return fixed + latency + (scanned * profile.scan_row_cost) / overlap

    # -- join algorithm choice ---------------------------------------------------------
    def join_algorithm(
        self,
        access: AtomAccess,
        left_rows: float,
        probe_columns: Sequence[str] = (),
    ) -> str:
        """'bind' when fetching ``access`` by the left side's keys beats scanning it.

        Used by the physical planning pass for groups that do not *require*
        a bind join: compares the per-probe lookup cost (times the estimated
        left cardinality — the per-left-row price kept until the model is
        calibrated against the keyed join's batched requests) against a
        delegated scan plus the mediator-side hash join of its result.
        """
        stats = self._statistics.get(access.descriptor.fragment_name)
        profile = self.profile_for(access.store.capabilities().data_model)
        estimate = self._estimator.atom_estimate(access)
        left_rows = max(left_rows, 1.0)

        request_latency = self.request_latency_seconds(access.store, profile)
        per_probe_latency = request_latency * LATENCY_COST_PER_SECOND
        request_cost = profile.request_overhead + per_probe_latency
        probe_cost = left_rows * (
            profile.lookup_cost + profile.request_overhead * 0.1 + per_probe_latency
        )
        if not any(column in stats.indexed_columns for column in probe_columns):
            # Unindexed probes degenerate to one filtered scan per left row.
            probe_cost = left_rows * (
                request_cost
                + (stats.cardinality * profile.scan_row_cost)
                / max(profile.parallelism, 1.0)
            )
        scan_cost = (
            request_cost
            + (stats.cardinality * profile.scan_row_cost) / max(profile.parallelism, 1.0)
            + _RUNTIME_ROW_COST * (left_rows + estimate.estimated_rows)
        )
        return "bind" if probe_cost < scan_cost else "hash"

    # -- plan costs ------------------------------------------------------------------------
    def estimate_groups(
        self, rewriting_name: str, groups: Sequence[DelegationGroup]
    ) -> PlanCostEstimate:
        """Estimate the cost of executing the delegation groups in order."""
        total_cost = 0.0
        per_group: list[float] = []
        rows = 0.0
        bound: set[Variable] = set()
        first = True
        for group in groups:
            group_cost = 0.0
            group_rows = 0.0 if first else rows
            for access in group.accesses:
                cost, output = self._access_cost(access, 0.0 if first else rows, bound)
                group_cost += cost
                group_rows = output if first else output
                first = False
                rows = group_rows
                bound.update(access.atom.variable_set())
            per_group.append(group_cost)
            total_cost += group_cost
        total_cost += _RUNTIME_ROW_COST * rows
        return PlanCostEstimate(
            rewriting_name=rewriting_name,
            total_cost=total_cost,
            estimated_rows=rows,
            per_group_costs=per_group,
        )
