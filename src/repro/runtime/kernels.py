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
  filtering, projection and output shaping, one per logical
  Filter/Project/Output node (:mod:`repro.plan.physical` lowers a chain of
  them into one pipeline);
* :class:`FusedPipeline` — a single operator evaluating a chain of stages
  (plus an optional LIMIT) in one pass per batch: rows are filtered,
  projected and reshaped without materializing a batch per stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from repro.runtime.batch import RowBatch, binding_kernel
from repro.runtime.operators import ExecutionContext, Operator
from repro.stores.base import COMPARATORS, tuple_picker

__all__ = [
    "PredicateSpec",
    "predicate_kernel",
    "projection_kernel",
    "pick_kernel",
    "key_kernel",
    "FilterStage",
    "ProjectStage",
    "OutputStage",
    "FusedPipeline",
]


# -- kernel builders -----------------------------------------------------------------

RowsKernel = Callable[[list], list]


@dataclass(frozen=True, slots=True)
class PredicateSpec:
    """One WHERE comparison over a statement's variables.

    ``value`` is a literal, or — with ``value_is_column`` — the name of the
    other column.  A ``None`` operand (or a column absent from the schema)
    fails the comparison.  The SQL translator emits these; lowering compiles
    the ones a store can take into its request's ``Predicate``s (which
    compare a column with a literal, never two columns) and a Filter
    evaluates the rest.
    """

    column: str
    op: str
    value: object
    value_is_column: bool = False

    def describe(self) -> str:
        """Compact rendering for plan text."""
        target = self.value if self.value_is_column else repr(self.value)
        return f"{self.column} {self.op} {target}"


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
    """Keep only ``variables`` (None for one absent from the schema)."""

    variables: tuple[str, ...]

    def compile(self, schema: tuple[str, ...]) -> tuple[tuple[str, ...], RowsKernel]:
        if all(variable in schema for variable in self.variables):
            return self.variables, pick_kernel([schema.index(v) for v in self.variables])
        transform = projection_kernel(schema, self.variables)
        return self.variables, lambda rows: [transform(row) for row in rows]

    def describe(self) -> str:
        return f"project({', '.join(self.variables)})"


@dataclass(frozen=True, slots=True)
class OutputStage:
    """Name the statement's columns, in order.

    ``outputs`` holds one ``(name, is_variable, payload)`` triple per output
    column: the payload is the input column a variable output reads (None
    when the schema lacks it), or the constant value of a constant output.
    """

    outputs: tuple[tuple[str, bool, object], ...]

    def compile(self, schema: tuple[str, ...]) -> tuple[tuple[str, ...], RowsKernel]:
        plan: list[tuple[bool, object]] = []  # (is_constant, value or position)
        for _, is_var, payload in self.outputs:
            if is_var and payload in schema:
                plan.append((False, schema.index(payload)))
            else:
                plan.append((True, None if is_var else payload))
        output_schema = tuple(name for name, _, _ in self.outputs)
        if all(not is_constant for is_constant, _ in plan):
            return output_schema, pick_kernel([position for _, position in plan])
        plan_items = tuple(plan)
        return output_schema, lambda rows: [
            tuple(value if is_constant else row[value] for is_constant, value in plan_items)
            for row in rows
        ]

    def describe(self) -> str:
        return f"output({', '.join(name for name, _, _ in self.outputs)})"


Stage = FilterStage | ProjectStage | OutputStage


class FusedPipeline(Operator):
    """A Filter/Project/Output(→LIMIT) chain collapsed into one operator.

    Stages run in tuple order (innermost first); each is compiled against
    the child's schema (one per execution, the same on every one) exactly
    once per pipeline, so a pipeline that outlives one execution (the facade
    memoizes the lowered tree) compiles nothing on the next.  Adjacent picks
    compose into one, and a pick that keeps every column in order compiles
    to nothing.  A batch makes a single pass through the compiled kernels —
    no intermediate :class:`RowBatch` objects, no per-row dict, no repeated
    column resolution.  The optional ``limit`` truncates the final stream
    and abandons the upstream pipeline early.  At the result boundary
    (:meth:`bindings`) a final pick is not applied at all: it folds into the
    construction of the binding dicts.
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
        # What `_compile` returns for the child's one schema.  A pure function
        # of the stages and that schema, so executions sharing this pipeline
        # may race to fill it: the values are interchangeable.
        self._compiled: tuple | None = None

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

    def _compile(self, source: tuple[str, ...]) -> tuple:
        """``(kernels, output schema, final pick, boundary kernel)`` against ``source``.

        The final pick, when the last kernel is one, is split off: the batch
        path applies it, the result boundary's kernel folds it into the
        binding dicts instead.
        """
        kernels: list[RowsKernel] = []
        widths: list[int] = []  # the row width each kernel reads
        schema = source
        for stage in self._stages:
            width = len(schema)
            schema, kernel = stage.compile(schema)
            picks = getattr(kernel, "picks", None)
            if picks is not None and kernels and getattr(kernels[-1], "picks", None) is not None:
                # project → output (or project → project): one pass
                inner, width = kernels.pop().picks, widths.pop()
                picks = tuple(inner[i] for i in picks)
            if picks is not None and picks == tuple(range(width)):
                continue  # keeps every column in order: nothing to run
            kernels.append(kernel if picks is None else pick_kernel(picks))
            widths.append(width)
        final = None
        positions, width = tuple(range(len(schema))), len(schema)
        if kernels and getattr(kernels[-1], "picks", None) is not None:
            final = kernels.pop()
            positions, width = final.picks, widths.pop()
        return tuple(kernels), schema, final, binding_kernel(positions, width)

    def _stream(self, context: ExecutionContext) -> Iterator[tuple[list, tuple]]:
        """``(rows, compiled)`` per output batch, every kernel but the final pick run."""
        remaining = self._limit
        if remaining is not None and remaining <= 0:
            return  # LIMIT 0: no store request, no batch
        compiled = self._compiled
        for batch in self._child.batches(context):
            if compiled is None:
                compiled = self._compiled = self._compile(batch.columns)
            rows = batch.rows
            for kernel in compiled[0]:
                if not rows:
                    break
                rows = kernel(rows)
            if not rows:
                continue
            if remaining is not None and len(rows) > remaining:
                rows = rows[:remaining]
            context.runtime_rows_processed += len(rows)
            yield rows, compiled
            if remaining is not None:
                remaining -= len(rows)
                if remaining <= 0:
                    return

    def _batches(self, context: ExecutionContext) -> Iterator[RowBatch]:
        for rows, (_, schema, final, _) in self._stream(context):
            yield RowBatch(schema, rows if final is None else final(rows))

    def bindings(self, context: ExecutionContext) -> Iterator[list[dict[str, object]]]:
        """The result boundary: the final pick folds into the binding dicts."""
        name = type(self).__name__
        for rows, (_, schema, _, boundary) in self._stream(context):
            context.tally(name, len(rows))
            yield boundary(rows, *schema)

    def describe(self) -> str:
        parts = [stage.describe() for stage in self._stages]
        if self._limit is not None:
            parts.append(f"limit {self._limit}")
        return f"Fused[{' → '.join(parts) or 'passthrough'}]"
