"""Candidate fragment enumeration for the storage advisor.

Given a workload of pivot queries, the advisor first enumerates *candidate*
fragments — materialized views that could speed the workload up — together
with the store kind each candidate is best suited to:

* **key-access candidates**: a query that selects by equality on a column and
  projects a few others suggests a key-value fragment keyed on that column
  (the paper's user-preferences / shopping-carts example, worth ≈20 %);
* **single-relation projections**: frequently accessed column subsets of one
  relation suggest a narrower relational or document fragment;
* **materialized join candidates**: queries joining two or more relations
  suggest materializing the join result as a nested relation in the parallel
  store, indexed by the join/selection columns (the paper's purchases ⋈
  browsing-history example, worth ≈40 %).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.query import ConjunctiveQuery
from repro.core.terms import Atom, Constant, Variable

__all__ = ["WorkloadQuery", "CandidateFragment", "enumerate_candidates"]


@dataclass(frozen=True, slots=True)
class WorkloadQuery:
    """One workload entry: a pivot query and its relative frequency (weight)."""

    query: ConjunctiveQuery
    weight: float = 1.0
    bound_columns: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class CandidateFragment:
    """A candidate materialized view proposed by the advisor."""

    name: str
    definition: ConjunctiveQuery
    target_model: str
    key_columns: tuple[str, ...] = ()
    reason: str = ""
    supporting_queries: tuple[str, ...] = ()

    def arity(self) -> int:
        """Number of columns the candidate exposes."""
        return len(self.definition.head_terms)


def enumerate_candidates(
    workload: Sequence[WorkloadQuery], name_prefix: str = "cand"
) -> list[CandidateFragment]:
    """Enumerate candidate fragments for a workload of pivot queries."""
    candidates: dict[tuple, CandidateFragment] = {}
    counter = 0

    for entry in workload:
        query = entry.query
        atoms = query.body
        # (a) single-relation candidates: projection of the used columns, keyed
        # on the selection column when the query is a key lookup.
        for atom in atoms:
            variables = [t for t in atom.terms if isinstance(t, Variable)]
            if not variables:
                continue
            constant_positions = [
                position for position, term in enumerate(atom.terms) if isinstance(term, Constant)
            ]
            bound_positions = list(constant_positions)
            # Variables that the application supplies at run time (parameters)
            # also behave as lookup keys.
            for position, term in enumerate(atom.terms):
                if isinstance(term, Variable) and term.name in entry.bound_columns:
                    bound_positions.append(position)
            key = ("single", atom.relation, tuple(sorted(bound_positions)))
            if key in candidates:
                existing = candidates[key]
                candidates[key] = CandidateFragment(
                    name=existing.name,
                    definition=existing.definition,
                    target_model=existing.target_model,
                    key_columns=existing.key_columns,
                    reason=existing.reason,
                    supporting_queries=existing.supporting_queries + (query.name,),
                )
                continue
            counter += 1
            head = [Variable(f"x{i}") for i in range(len(atom.terms))]
            body = [Atom(atom.relation, head)]
            definition = ConjunctiveQuery(
                f"{name_prefix}{counter}", head, body, name=f"{name_prefix}{counter}"
            )
            if bound_positions:
                target_model = "keyvalue"
                key_columns = tuple(f"c{i}" for i in sorted(set(bound_positions)))
                reason = (
                    f"query {query.name!r} accesses {atom.relation} by equality on "
                    f"position(s) {sorted(set(bound_positions))}: a key-value fragment fits"
                )
            else:
                target_model = "relational"
                key_columns = ()
                reason = f"query {query.name!r} scans {atom.relation}: a projection fragment fits"
            candidates[key] = CandidateFragment(
                name=f"{name_prefix}{counter}",
                definition=definition,
                target_model=target_model,
                key_columns=key_columns,
                reason=reason,
                supporting_queries=(query.name,),
            )

        # (b) materialized-join candidate: the whole conjunctive body.
        if len(atoms) >= 2:
            key = ("join", frozenset(a.relation for a in atoms))
            if key in candidates:
                existing = candidates[key]
                candidates[key] = CandidateFragment(
                    name=existing.name,
                    definition=existing.definition,
                    target_model=existing.target_model,
                    key_columns=existing.key_columns,
                    reason=existing.reason,
                    supporting_queries=existing.supporting_queries + (query.name,),
                )
            else:
                counter += 1
                head_variables = list(dict.fromkeys(
                    term for atom in atoms for term in atom.terms if isinstance(term, Variable)
                ))
                definition = ConjunctiveQuery(
                    f"{name_prefix}{counter}", head_variables, list(atoms),
                    name=f"{name_prefix}{counter}",
                )
                candidates[key] = CandidateFragment(
                    name=f"{name_prefix}{counter}",
                    definition=definition,
                    target_model="nested",
                    key_columns=(),
                    reason=(
                        f"query {query.name!r} joins "
                        f"{sorted(a.relation for a in atoms)}: materializing the join in the "
                        "parallel nested store removes the mediator-side join"
                    ),
                    supporting_queries=(query.name,),
                )
    return list(candidates.values())
