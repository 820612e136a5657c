"""Grouping rewriting atoms per fragment and per store.

The first step of "making rewritings executable" (paper, Section III): the
atoms of a relational rewriting are grouped so that (i) the atoms referring
to the same fragment are recognised, and (ii) atoms over fragments hosted by
the same join-capable store can be delegated together as one sub-query — "the
largest subquery that can be delegated to that DMS".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.catalog.descriptors import StorageDescriptor
from repro.catalog.manager import StorageDescriptorManager
from repro.core.binding_patterns import AccessPatternRegistry, feasible_order
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Atom, Constant, Variable
from repro.errors import PlanningError
from repro.stores.base import Store

__all__ = ["AtomAccess", "DelegationGroup", "resolve_atoms", "order_atoms", "group_for_delegation"]


@dataclass(slots=True)
class AtomAccess:
    """One rewriting atom resolved against the catalog.

    Carries everything the planner needs: the fragment descriptor, the store,
    the mapping from view column names to the atom's terms, and the input
    columns required by the fragment's access pattern.
    """

    atom: Atom
    descriptor: StorageDescriptor
    store: Store
    columns: tuple[str, ...]

    def variable_by_column(self) -> dict[str, Variable]:
        """View column name → variable bound at that position (if any)."""
        mapping: dict[str, Variable] = {}
        for column, term in zip(self.columns, self.atom.terms):
            if isinstance(term, Variable):
                mapping[column] = term
        return mapping

    def constant_by_column(self) -> dict[str, object]:
        """View column name → constant required at that position (if any)."""
        mapping: dict[str, object] = {}
        for column, term in zip(self.columns, self.atom.terms):
            if isinstance(term, Constant):
                mapping[column] = term.value
        return mapping

    def input_columns(self) -> tuple[str, ...]:
        """Columns that must be bound before the fragment can be accessed."""
        pattern = self.descriptor.access_pattern()
        if pattern is None:
            return ()
        return tuple(self.columns[position] for position in pattern.input_positions())

    def requires_binding(self, parameter_variables: set[Variable]) -> bool:
        """True when some input column is fed by a runtime variable.

        An input position filled by a constant can be pushed into the store
        request directly; an input position filled by a variable (other than a
        caller-supplied parameter) must receive its values from the rest of
        the plan, i.e. through a keyed join fed the left side's distinct keys.
        """
        for column in self.input_columns():
            position = self.columns.index(column)
            term = self.atom.terms[position]
            if isinstance(term, Variable) and term not in parameter_variables:
                return True
        return False


@dataclass(slots=True)
class DelegationGroup:
    """A maximal set of atom accesses delegated together to one store."""

    store: Store
    accesses: list[AtomAccess] = field(default_factory=list)

    def variables(self) -> set[Variable]:
        """All variables produced by the group."""
        produced: set[Variable] = set()
        for access in self.accesses:
            produced.update(access.atom.variable_set())
        return produced

    def is_single(self) -> bool:
        """True when the group contains exactly one atom."""
        return len(self.accesses) == 1


def resolve_atoms(
    rewriting: ConjunctiveQuery, manager: StorageDescriptorManager
) -> list[AtomAccess]:
    """Resolve every atom of ``rewriting`` against the fragment catalog."""
    accesses: list[AtomAccess] = []
    for atom in rewriting.body:
        descriptor = manager.fragment(atom.relation)
        columns = descriptor.view_columns()
        if len(columns) != atom.arity:
            raise PlanningError(
                f"atom {atom!r} has arity {atom.arity} but fragment "
                f"{descriptor.fragment_name!r} exposes {len(columns)} columns"
            )
        accesses.append(
            AtomAccess(
                atom=atom,
                descriptor=descriptor,
                store=manager.store(descriptor.store),
                columns=columns,
            )
        )
    return accesses


def order_atoms(
    rewriting: ConjunctiveQuery,
    manager: StorageDescriptorManager,
    registry: AccessPatternRegistry | None = None,
    bound_parameters: Sequence[Variable] = (),
) -> list[AtomAccess]:
    """Order the rewriting atoms so that every access pattern is satisfiable."""
    registry = registry or manager.access_pattern_registry()
    ordered_atoms = feasible_order(rewriting.body, registry, initially_bound=bound_parameters)
    if ordered_atoms is None:
        raise PlanningError(
            f"rewriting {rewriting.name!r} admits no access-pattern-feasible atom order"
        )
    accesses = {id(atom): access for atom, access in zip(rewriting.body, resolve_atoms(rewriting, manager))}
    # feasible_order returns the same Atom objects (they are hashable/immutable),
    # but duplicates of equal atoms must keep a 1:1 pairing: rebuild by matching.
    remaining = list(accesses.values())
    ordered: list[AtomAccess] = []
    for atom in ordered_atoms:
        for index, access in enumerate(remaining):
            if access.atom == atom:
                ordered.append(remaining.pop(index))
                break
        else:  # pragma: no cover - defensive, should be impossible
            raise PlanningError(f"internal error: atom {atom!r} lost during ordering")
    return ordered


def group_for_delegation(ordered: Sequence[AtomAccess]) -> list[DelegationGroup]:
    """Group consecutive accesses that can be delegated to the same store.

    Two consecutive accesses join the same group when they target the same
    store, the store supports joins, neither needs a runtime-supplied binding
    (access-pattern inputs), and the new atom shares at least one variable
    with the group (so the delegated sub-query is a join, not a product).
    """
    groups: list[DelegationGroup] = []
    for access in ordered:
        if groups:
            current = groups[-1]
            same_store = current.store is access.store
            joinable = access.store.capabilities().supports_join
            no_inputs = not access.input_columns()
            shares_variable = bool(current.variables() & access.atom.variable_set())
            if same_store and joinable and no_inputs and shares_variable:
                current.accesses.append(access)
                continue
        groups.append(DelegationGroup(store=access.store, accesses=[access]))
    return groups
