"""Relation-signature index over views and constraints (rewrite-at-scale).

With catalogs of thousands of registered fragments, handing every view to
:func:`repro.core.pacb.pacb_rewrite` makes the rewrite itself the bottleneck:
the forward/backward constraint sets grow linearly with the catalog and the
chase scans all of them each round even though a query over three relations
can only ever use a handful of views.

:class:`RewriteIndex` fixes the selection step.  It maintains

* an inverted map ``relation -> views whose definition body mentions it``,
* a reachability graph whose edges are the schema TGDs (``body relations ->
  head relations``) and the views' forward constraints (``body relations ->
  view name``),

and answers ``candidate_views(query relations)`` by computing the TGD
*reachability closure* of the query's relations and returning exactly the
views whose definition bodies fall inside it.  The closure is sound for
candidate selection: a view atom can only ever appear in the universal plan
if every relation of the view's body is derivable from the query's relations
through forward constraints, and EGDs never introduce new relations.

The index is also :class:`repro.core.rewriting.Rewriter`'s only registry of
views.  Its reference is the brute-force oracle in
``tests/test_differential_equivalence.py``, not a second code path here.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from repro.core.constraints import TGD, Constraint
from repro.core.views import ViewDefinition

__all__ = ["RewriteIndex"]

_CLOSURE_CACHE_LIMIT = 1024


class RewriteIndex:
    """Inverted relation-signature index over view definitions and TGDs.

    The index is incremental: views and constraints can be added or removed
    one at a time (fragment registration/drop), and closure results are cached
    until the next mutation.
    """

    __slots__ = (
        "_views",
        "_views_by_relation",
        "_edges",
        "_edges_by_relation",
        "_edges_by_view",
        "_seq",
        "_edge_ids",
        "_closure_cache",
    )

    def __init__(
        self,
        views: Iterable[ViewDefinition] = (),
        constraints: Iterable[Constraint] = (),
    ) -> None:
        # view name -> (registration sequence, definition)
        self._views: dict[str, tuple[int, ViewDefinition]] = {}
        self._views_by_relation: dict[str, set[str]] = {}
        # edge id -> (body relations, head relations)
        self._edges: dict[int, tuple[frozenset[str], frozenset[str]]] = {}
        self._edges_by_relation: dict[str, set[int]] = {}
        self._edges_by_view: dict[str, int] = {}
        self._seq = itertools.count()
        self._edge_ids = itertools.count()
        self._closure_cache: dict[frozenset[str], frozenset[str]] = {}
        for view in views:
            self.add_view(view)
        self.add_constraints(constraints)

    # -- mutation ------------------------------------------------------------
    def add_view(self, view: ViewDefinition) -> None:
        """Index a fragment definition (replacing any same-named one)."""
        if view.name in self._views:
            self.remove_view(view.name)
        body_relations = view.definition.relations()
        self._views[view.name] = (next(self._seq), view)
        for relation in body_relations:
            self._views_by_relation.setdefault(relation, set()).add(view.name)
        self._edges_by_view[view.name] = self._add_edge(
            body_relations, frozenset((view.name,))
        )
        self._closure_cache.clear()

    def remove_view(self, name: str) -> ViewDefinition | None:
        """Drop a view from the index; returns its definition if present."""
        entry = self._views.pop(name, None)
        if entry is None:
            return None
        _, view = entry
        for relation in view.definition.relations():
            names = self._views_by_relation.get(relation)
            if names is not None:
                names.discard(name)
                if not names:
                    del self._views_by_relation[relation]
        edge_id = self._edges_by_view.pop(name, None)
        if edge_id is not None:
            self._remove_edge(edge_id)
        self._closure_cache.clear()
        return view

    def add_constraints(self, constraints: Iterable[Constraint]) -> None:
        """Index schema TGDs as reachability edges (EGDs add no relations)."""
        added = False
        for constraint in constraints:
            if isinstance(constraint, TGD):
                body = frozenset(a.relation for a in constraint.body)
                head = frozenset(a.relation for a in constraint.head)
                self._add_edge(body, head)
                added = True
        if added:
            self._closure_cache.clear()

    def _add_edge(self, body: frozenset[str], head: frozenset[str]) -> int:
        edge_id = next(self._edge_ids)
        self._edges[edge_id] = (body, head)
        for relation in body:
            self._edges_by_relation.setdefault(relation, set()).add(edge_id)
        return edge_id

    def _remove_edge(self, edge_id: int) -> None:
        edge = self._edges.pop(edge_id, None)
        if edge is None:
            return
        for relation in edge[0]:
            ids = self._edges_by_relation.get(relation)
            if ids is not None:
                ids.discard(edge_id)
                if not ids:
                    del self._edges_by_relation[relation]

    # -- queries -------------------------------------------------------------
    def closure(self, relations: Iterable[str]) -> frozenset[str]:
        """TGD-reachability closure of ``relations``.

        A TGD edge fires once *all* of its body relations are available; the
        relations of its head (for views: the view name) then become
        available.  The result is cached until the index next mutates.
        """
        start = frozenset(relations)
        cached = self._closure_cache.get(start)
        if cached is not None:
            return cached
        available: set[str] = set(start)
        queue = list(start)
        while queue:
            relation = queue.pop()
            for edge_id in self._edges_by_relation.get(relation, ()):
                body, head = self._edges[edge_id]
                if body <= available:
                    fresh = head - available
                    if fresh:
                        available.update(fresh)
                        queue.extend(fresh)
        result = frozenset(available)
        if len(self._closure_cache) >= _CLOSURE_CACHE_LIMIT:
            self._closure_cache.clear()
        self._closure_cache[start] = result
        return result

    def candidate_views(self, relations: Iterable[str]) -> list[ViewDefinition]:
        """Views usable by a query over ``relations``, in registration order.

        A view qualifies when every relation of its definition body lies in
        the reachability closure of the query's relations.  The scan touches
        only views indexed under closure relations, never the whole catalog.
        """
        reachable = self.closure(relations)
        names: set[str] = set()
        for relation in reachable:
            names.update(self._views_by_relation.get(relation, ()))
        selected: list[tuple[int, ViewDefinition]] = []
        for name in names:
            seq, view = self._views[name]
            if view.definition.relations() <= reachable:
                selected.append((seq, view))
        selected.sort(key=lambda item: item[0])
        return [view for _, view in selected]

    def views_over(self, relation: str) -> frozenset[str]:
        """Names of views whose definition body mentions ``relation``."""
        return frozenset(self._views_by_relation.get(relation, ()))

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: object) -> bool:
        return name in self._views

    def __iter__(self) -> Iterator[ViewDefinition]:
        return iter(view for _, view in self._views.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RewriteIndex({len(self._views)} views, {len(self._edges)} edges)"
