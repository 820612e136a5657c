"""View (fragment) definitions and their compilation to constraints.

In ESTOCADA every stored fragment is a *materialized view* over one or more
application datasets (local-as-view).  A :class:`ViewDefinition` pairs a view
name with the conjunctive query defining it over the source (pivot) schema,
plus an optional access pattern describing how the underlying store lets the
view be accessed.

For the chase & backchase, each view contributes two TGDs:

* the **forward** constraint ``body(V) → V(head)`` — whenever the source
  pattern holds, the corresponding view tuple exists; used while chasing the
  query into the universal plan, where view atoms appear;
* the **backward** constraint ``V(head) → ∃ body(V)`` — every view tuple is
  witnessed by source tuples; used by the backchase to check that a candidate
  rewriting over the views is equivalent to the original query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.binding_patterns import AccessPattern
from repro.core.constraints import TGD, ConstraintSet
from repro.core.memo import LRUMemo
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Atom
from repro.errors import PivotModelError

__all__ = [
    "ViewDefinition",
    "view_constraints",
    "views_constraint_set",
    "combined_constraint_set",
]


@dataclass(frozen=True, slots=True)
class ViewDefinition:
    """A named materialized view (fragment) over the pivot schema.

    Attributes
    ----------
    name:
        The view's relation name in rewritings (unique per catalog).
    definition:
        The conjunctive query over source relations defining the view's
        contents.  The query's head relation is ignored; ``name`` is used.
    access_pattern:
        Optional binding pattern restricting how the view can be accessed
        (e.g. ``"io"`` for a key-value collection keyed on the first column).
    store:
        Optional identifier of the store hosting the fragment (used by the
        translation layer; the rewriting engine itself does not need it).
    """

    name: str
    definition: ConjunctiveQuery
    access_pattern: AccessPattern | None = None
    store: str | None = None
    column_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise PivotModelError("view name must be non-empty")
        if self.access_pattern is not None and (
            self.access_pattern.arity != len(self.definition.head_terms)
        ):
            raise PivotModelError(
                f"access pattern of view {self.name!r} has arity "
                f"{self.access_pattern.arity}, head has {len(self.definition.head_terms)}"
            )
        if self.column_names is not None and len(self.column_names) != len(
            self.definition.head_terms
        ):
            raise PivotModelError(
                f"view {self.name!r} declares {len(self.column_names)} column names "
                f"but exposes {len(self.definition.head_terms)} columns"
            )

    @property
    def arity(self) -> int:
        """Number of columns exposed by the view."""
        return len(self.definition.head_terms)

    def head_atom(self) -> Atom:
        """The view atom ``name(head terms)`` used in constraints and rewritings."""
        return Atom(self.name, self.definition.head_terms)

    def forward_constraint(self) -> TGD:
        """``body(V) → V(head)``: source tuples imply view tuples."""
        return TGD(
            self.definition.body,
            [self.head_atom()],
            name=f"{self.name}_fwd",
        )

    def backward_constraint(self) -> TGD:
        """``V(head) → body(V)``: view tuples are witnessed in the sources."""
        return TGD(
            [self.head_atom()],
            self.definition.body,
            name=f"{self.name}_bwd",
        )


def view_constraints(view: ViewDefinition) -> tuple[TGD, TGD]:
    """The (forward, backward) constraint pair of a single view."""
    return view.forward_constraint(), view.backward_constraint()


def views_constraint_set(
    views: Iterable[ViewDefinition],
    direction: str = "both",
) -> ConstraintSet:
    """Bundle the constraints of several views.

    ``direction`` is ``"forward"``, ``"backward"`` or ``"both"``.
    """
    if direction not in {"forward", "backward", "both"}:
        raise PivotModelError(f"unknown direction {direction!r}")
    constraints = ConstraintSet()
    for view in views:
        if direction in {"forward", "both"}:
            constraints.add(view.forward_constraint())
        if direction in {"backward", "both"}:
            constraints.add(view.backward_constraint())
    return constraints


_combined_memo = LRUMemo("views_constraint_union", max_entries=512)


def combined_constraint_set(
    views: Iterable[ViewDefinition],
    schema: ConstraintSet,
    direction: str = "both",
) -> ConstraintSet:
    """``views_constraint_set(views, direction) ∪ schema``, memoized.

    The chase and containment memos key on each :class:`ConstraintSet`'s
    mutation token, never its content, so a freshly built (but identical)
    constraint set would miss every earlier entry.  Returning the *same*
    object for repeated (views, schema, direction) combinations keeps those
    tokens stable across rewrites — this is what makes the memos effective
    across queries, not just within one backchase run.  Callers must treat
    the returned set as immutable.
    """
    views = tuple(views)
    key = (views, direction, schema.token)
    return _combined_memo.get_or_compute(
        key, lambda: views_constraint_set(views, direction).union(schema)
    )
