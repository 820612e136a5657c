"""Per-plan compiled kernels: batch-at-a-time closures over tuple rows.

Residual predicates, projections and output shaping are evaluated by
**kernels**: closures specialized against a batch schema exactly once,
operating on plain row tuples by column *position* — no binding dict is
rebuilt per row.

Three pieces:

* **kernel builders** (:func:`predicate_kernel`, :func:`projection_kernel`,
  :func:`key_kernel`) — turn a declarative spec plus a schema into a closure
  over whole row lists (`itemgetter`-backed where every column resolves);
  :func:`key_kernel` is the vectorized hash-join build/probe primitive — it
  extracts the key column(s) of an entire batch in one pass and represents
  single-column keys as bare scalars (no per-row tuple allocation);
* **stages** (:class:`FilterStage`, :class:`ProjectStage`,
  :class:`OutputStage`) — the declarative, fusable forms of residual
  filtering, projection and output shaping.  Being data (not opaque
  callables), stages can be concatenated by :func:`attach_stage`;
* :class:`FusedPipeline` — a single operator evaluating a chain of stages
  (plus an optional LIMIT) in one pass per batch: rows are filtered,
  projected and reshaped without materializing a batch per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.runtime.batch import RowBatch
from repro.runtime.operators import ExecutionContext, Operator
from repro.stores.base import COMPARATORS, tuple_picker

__all__ = [
    "PredicateSpec",
    "ZoneBound",
    "extract_zone_bounds",
    "predicate_kernel",
    "projection_kernel",
    "pick_kernel",
    "key_kernel",
    "FilterStage",
    "ProjectStage",
    "OutputStage",
    "FusedPipeline",
    "attach_stage",
]


# -- kernel builders -----------------------------------------------------------------

RowsKernel = Callable[[list], list]


@dataclass(frozen=True, slots=True)
class PredicateSpec:
    """One residual comparison, compilable against any batch schema.

    ``value`` is a literal, or — with ``value_is_column`` — the name of the
    other column.  A ``None`` operand (or a column absent from the schema)
    fails the comparison.
    """

    column: str
    op: str
    value: object
    value_is_column: bool = False

    def describe(self) -> str:
        """Compact rendering for plan text."""
        target = self.value if self.value_is_column else repr(self.value)
        return f"{self.column} {self.op} {target}"


@dataclass(frozen=True, slots=True)
class ZoneBound:
    """One literal comparison usable for zone-map segment pruning.

    The durable segment engine compares these against a segment's per-column
    min/max to decide whether the segment can possibly contain a matching
    row.  Only comparisons against a non-None **literal** qualify:
    column-to-column comparisons and ``None`` literals carry no prunable
    bound (``= None`` matches nulls, which zone min/max does not describe).
    """

    column: str
    op: str
    value: object


def extract_zone_bounds(predicates: Sequence) -> tuple[ZoneBound, ...]:
    """The prunable bounds of a predicate conjunction.

    Accepts both runtime :class:`PredicateSpec` objects and store-layer
    ``Predicate`` objects (anything with ``column``/``op``/``value``; a
    truthy ``value_is_column`` disqualifies the comparison).  The result is
    what :meth:`repro.stores.segment.segments.SegmentReader.excluded_by`
    consumes, and what the cost model feeds into
    ``Store.segment_scan_fraction`` when pricing delegated scans.
    """
    bounds: list[ZoneBound] = []
    for predicate in predicates:
        if getattr(predicate, "value_is_column", False):
            continue
        op = predicate.op
        if op not in COMPARATORS:
            continue
        value = predicate.value
        if value is None:
            continue
        bounds.append(ZoneBound(predicate.column, op, value))
    return tuple(bounds)


def predicate_kernel(specs: Sequence[PredicateSpec], schema: Sequence[str]) -> RowsKernel:
    """Compile a conjunction of comparisons into one batch-level filter.

    Column positions are resolved against ``schema`` here, once; the
    returned closure filters a whole row list with direct tuple indexing.
    """
    schema = tuple(schema)
    checks: list[tuple[int | None, Callable, object, bool]] = []
    for spec in specs:
        comparator = COMPARATORS[spec.op]
        left = schema.index(spec.column) if spec.column in schema else None
        if spec.value_is_column:
            right = schema.index(spec.value) if spec.value in schema else None
            checks.append((left, comparator, right, True))
        else:
            checks.append((left, comparator, spec.value, False))

    if any(
        left is None or (is_column and right is None)
        for left, _, right, is_column in checks
    ):
        # A missing operand column means no row can satisfy the conjunction.
        return lambda rows: []

    if len(checks) == 1:
        left, comparator, right, is_column = checks[0]
        if is_column:
            return lambda rows: [
                row
                for row in rows
                if row[left] is not None
                and row[right] is not None
                and comparator(row[left], row[right])
            ]
        return lambda rows: [
            row for row in rows if row[left] is not None and comparator(row[left], right)
        ]

    def keep(row: tuple) -> bool:
        for left, comparator, right, is_column in checks:
            left_value = row[left]
            if left_value is None:
                return False
            if is_column:
                right_value = row[right]
                if right_value is None or not comparator(left_value, right_value):
                    return False
            elif not comparator(left_value, right):
                return False
        return True

    return lambda rows: [row for row in rows if keep(row)]


def projection_kernel(
    schema: Sequence[str], wanted: Sequence[str]
) -> Callable[[tuple], tuple]:
    """A row-tuple transform selecting ``wanted`` columns (None when absent)."""
    schema = tuple(schema)
    indices = [schema.index(column) if column in schema else None for column in wanted]
    if all(index is not None for index in indices):
        if len(indices) == 1:
            only = indices[0]
            return lambda row: (row[only],)
        return itemgetter(*indices)
    return lambda row: tuple(row[i] if i is not None else None for i in indices)


def pick_kernel(indices: Sequence[int]) -> RowsKernel:
    """A rows kernel that only picks positions, tagged so adjacent picks compose.

    ``kernel.picks`` holds the positions; :class:`FusedPipeline` replaces two
    neighbouring pick kernels by the one that indexes through both.
    """
    kernel = tuple_picker(indices)
    kernel.picks = tuple(indices)
    return kernel


def key_kernel(schema: Sequence[str], columns: Sequence[str]) -> Callable[[list], list]:
    """Vectorized join-key extraction: the keys of a whole batch in one pass.

    Single-column keys are bare values (no tuple allocation per row); both
    sides of a join must therefore use this kernel so representations agree.
    Columns absent from the schema contribute ``None``, matching the
    row-at-a-time indexer semantics.
    """
    schema = tuple(schema)
    indices = [schema.index(column) if column in schema else None for column in columns]
    if not indices:
        # No key columns (cartesian join): every row shares the empty key.
        return lambda rows: [()] * len(rows)
    if len(indices) == 1:
        only = indices[0]
        if only is None:
            return lambda rows: [None] * len(rows)
        return lambda rows: [row[only] for row in rows]
    if all(index is not None for index in indices):
        getter = itemgetter(*indices)
        return lambda rows: [getter(row) for row in rows]
    return lambda rows: [
        tuple(row[i] if i is not None else None for i in indices) for row in rows
    ]


# -- fusable stages ------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FilterStage:
    """A conjunction of residual comparisons."""

    specs: tuple[PredicateSpec, ...]

    def compile(self, schema: tuple[str, ...]) -> tuple[tuple[str, ...], RowsKernel]:
        """(output schema, rows transform) against ``schema``."""
        return schema, predicate_kernel(self.specs, schema)

    def describe(self) -> str:
        return "filter(" + " AND ".join(spec.describe() for spec in self.specs) + ")"


@dataclass(frozen=True, slots=True)
class ProjectStage:
    """Keep only ``variables``, optionally renaming."""

    variables: tuple[str, ...]
    renaming: tuple[tuple[str, str], ...] = ()

    def compile(self, schema: tuple[str, ...]) -> tuple[tuple[str, ...], RowsKernel]:
        renaming = dict(self.renaming)
        output_schema = tuple(renaming.get(v, v) for v in self.variables)
        if all(variable in schema for variable in self.variables):
            return output_schema, pick_kernel([schema.index(v) for v in self.variables])
        transform = projection_kernel(schema, self.variables)
        return output_schema, lambda rows: [transform(row) for row in rows]

    def describe(self) -> str:
        return f"project({', '.join(self.variables)})"


@dataclass(frozen=True, slots=True)
class OutputStage:
    """Rename head variables to output column names.

    ``outputs`` holds one ``(name, is_variable, payload)`` triple per output
    column: the payload is the head variable's name, or the constant value
    for constant head terms.  Columns of the input schema that are neither
    claimed outputs nor head variables (aggregation results, computed
    extras) are appended unchanged.
    """

    outputs: tuple[tuple[str, bool, object], ...]

    def compile(self, schema: tuple[str, ...]) -> tuple[tuple[str, ...], RowsKernel]:
        head_variables = {payload for _, is_var, payload in self.outputs if is_var}
        plan: list[tuple[str, bool, object]] = []  # (name, is_constant, value/pos)
        for name, is_var, payload in self.outputs:
            if is_var:
                if payload in schema:
                    plan.append((name, False, schema.index(payload)))
                elif name in schema:
                    plan.append((name, False, schema.index(name)))
                else:
                    plan.append((name, True, None))
            else:
                plan.append((name, True, payload))
        taken = {name for name, _, _ in plan}
        extras = [
            (column, index)
            for index, column in enumerate(schema)
            if column not in taken and column not in head_variables
        ]
        output_schema = tuple(name for name, _, _ in plan) + tuple(c for c, _ in extras)
        if not extras and all(not is_constant for _, is_constant, _ in plan):
            return output_schema, pick_kernel([position for _, _, position in plan])
        extra_positions = tuple(index for _, index in extras)
        plan_items = tuple(plan)
        return output_schema, lambda rows: [
            tuple(
                value if is_constant else row[value]
                for _, is_constant, value in plan_items
            )
            + tuple(row[i] for i in extra_positions)
            for row in rows
        ]

    def describe(self) -> str:
        return f"output({', '.join(name for name, _, _ in self.outputs)})"


Stage = FilterStage | ProjectStage | OutputStage


class FusedPipeline(Operator):
    """A Filter→Project→Output(→LIMIT) chain collapsed into one operator.

    Stages run in tuple order (innermost first); each is compiled against
    an incoming batch schema exactly once per pipeline — the kernels are
    kept on the instance per source schema, so a pipeline that outlives one
    execution (the facade memoizes the lowered tree) compiles nothing on the
    next, and schema drift compiles a second entry.  A batch makes a single
    pass through the compiled kernels — no intermediate :class:`RowBatch`
    objects, no per-row dict, no repeated column resolution.  The optional ``limit`` truncates the final stream
    and abandons the upstream pipeline early.
    """

    def __init__(
        self,
        child: Operator,
        stages: Sequence[Stage] = (),
        limit: int | None = None,
    ) -> None:
        self._child = child
        self._stages = tuple(stages)
        self._limit = limit
        # source schema -> (kernels, output schema).  Pure functions of the
        # stages and the schema, so executions sharing this pipeline may race
        # to fill a slot: the values are interchangeable, the last one stays.
        self._compiled: dict[tuple[str, ...], tuple[tuple[RowsKernel, ...], tuple[str, ...]]] = {}

    @property
    def child(self) -> Operator:
        """The operator feeding the fused chain."""
        return self._child

    @property
    def stages(self) -> tuple[Stage, ...]:
        """The fused stages, in execution order."""
        return self._stages

    @property
    def limit(self) -> int | None:
        """The row limit applied after the last stage (None = unlimited)."""
        return self._limit

    def children(self) -> Sequence[Operator]:
        return (self._child,)

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        remaining = self._limit
        if remaining is not None and remaining <= 0:
            return  # LIMIT 0: no store request, no batch
        source_schema: tuple[str, ...] | None = None
        kernels: tuple[RowsKernel, ...] = ()
        output_schema: tuple[str, ...] = ()
        for batch in self._child.batches(context):
            if batch.columns != source_schema:
                source_schema = batch.columns
                compiled = self._compiled.get(source_schema)
                if compiled is None:
                    compiling: list[RowsKernel] = []
                    schema = source_schema
                    for stage in self._stages:
                        schema, kernel = stage.compile(schema)
                        picks = getattr(kernel, "picks", None)
                        inner = getattr(compiling[-1], "picks", None) if compiling else None
                        if picks is not None and inner is not None:
                            # project → output (or project → project): one pass
                            compiling[-1] = pick_kernel([inner[i] for i in picks])
                        else:
                            compiling.append(kernel)
                    compiled = self._compiled[source_schema] = (tuple(compiling), schema)
                kernels, output_schema = compiled
            rows = batch.rows
            for kernel in kernels:
                if not rows:
                    break
                rows = kernel(rows)
            if not rows:
                continue
            if remaining is not None and len(rows) > remaining:
                rows = rows[:remaining]
            context.runtime_rows_processed += len(rows)
            yield RowBatch(output_schema, rows)
            if remaining is not None:
                remaining -= len(rows)
                if remaining <= 0:
                    return

    def describe(self) -> str:
        parts = [stage.describe() for stage in self._stages]
        if self._limit is not None:
            parts.append(f"limit {self._limit}")
        return f"Fused[{' → '.join(parts) or 'passthrough'}]"


def attach_stage(
    root: Operator, stage: Stage | None, limit: int | None = None
) -> FusedPipeline:
    """Attach one compiled stage (and/or a LIMIT) above ``root``, fusing chains.

    This is the fusion primitive of the physical lowering: a stage attached
    to a :class:`FusedPipeline` that has no terminal LIMIT is *absorbed* into
    it — consecutive Filter → Project → Output (→ LIMIT) steps collapse into
    one operator.  A pipeline that already truncates is never extended:
    fusing across its LIMIT would filter before truncating.
    """
    stages = () if stage is None else (stage,)
    if isinstance(root, FusedPipeline) and root.limit is None:
        return FusedPipeline(root.child, root.stages + stages, limit)
    return FusedPipeline(root, stages, limit)
