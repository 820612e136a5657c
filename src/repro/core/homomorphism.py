"""One conjunctive matcher: a compiled positional join over hash-indexed bags.

The chase (triggers, and whether a TGD's head already holds), CQ containment,
PACB's read-off and view maintenance (:mod:`repro.core.deltas`) all match
conjunctions of atoms here.  Before any row is read, each atom is compiled
into the positions it probes, where each probe key comes from (a constant or
a binding slot), the positions that extend the binding and the checks for a
variable repeated inside the atom.  A binding is a tuple with one slot per
variable; multiplicities multiply through the join.  The steps run depth
first off an explicit stack, so a first match or a ``limit`` stops early and
no recursive closure is left for the cycle collector.

Behind the matcher is one index protocol, ``probe(positions, key)`` yielding
``(row, count)`` pairs, answered by :class:`BagIndex`.  :class:`InstanceIndex`
is its set-semantic face: one ``BagIndex`` per (relation, arity), each fact
the row of its terms at count 1.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.terms import Atom, Constant, Substitution, Term, Variable
from repro.errors import DeltaError

__all__ = [
    "BagIndex",
    "InstanceIndex",
    "Program",
    "apply_delta_to_bag",
    "compile_pattern",
    "find_homomorphism",
    "iterate_homomorphisms",
]


def apply_delta_to_bag(state: Counter, delta: Mapping[tuple, int]) -> None:
    """Apply a signed delta to ``state`` in place (strict bag semantics).

    Driving any multiplicity below zero raises :class:`DeltaError`: a
    negative count means the delta deletes a row the state never held, i.e.
    the two sides have diverged.
    """
    for row, count in delta.items():
        updated = state[row] + count
        if updated < 0:
            raise DeltaError(
                f"delta drives multiplicity of {row!r} to {updated} (< 0); "
                "state and delta have diverged"
            )
        if updated:
            state[row] = updated
        else:
            del state[row]


class BagIndex:
    """Hash indexes over one bag, keyed by column-position subsets.

    ``probe(positions, key)`` returns the ``(row, count)`` pairs whose values
    at ``positions`` equal ``key`` (the empty position tuple: the whole bag),
    as a live view.  Indexes are built lazily per position subset and updated
    in place by :meth:`update`, so a small delta costs O(|Δ|).
    """

    __slots__ = ("_bag", "_indexes")

    def __init__(self, rows: Counter | None = None) -> None:
        self._bag: Counter = rows if rows is not None else Counter()
        self._indexes: dict[tuple[int, ...], dict[tuple, Counter]] = {}

    @property
    def rows(self) -> Counter:
        """The underlying bag (do not mutate directly; use :meth:`update`)."""
        return self._bag

    def _index_for(self, positions: tuple[int, ...]) -> dict[tuple, Counter]:
        index = self._indexes.get(positions)
        if index is None:
            index = {}
            key_of = _tuple_getter(positions)
            for row, count in self._bag.items():
                key = key_of(row)
                bucket = index.get(key)
                if bucket is None:
                    bucket = index[key] = Counter()
                bucket[row] = count
            self._indexes[positions] = index
        return index

    def probe(self, positions: tuple[int, ...], key: tuple) -> Iterable[tuple[tuple, int]]:
        """``(row, signed count)`` pairs matching ``key`` at ``positions``."""
        if not positions:
            return self._bag.items()
        bucket = self._index_for(positions).get(key)
        return bucket.items() if bucket is not None else ()

    def update(self, delta: Mapping[tuple, int]) -> None:
        """Apply a signed delta to the bag and to every built index (strict)."""
        apply_delta_to_bag(self._bag, delta)
        for positions, index in self._indexes.items():
            key_of = _tuple_getter(positions)
            for row, count in delta.items():
                key = key_of(row)
                bucket = index.setdefault(key, Counter())
                updated = bucket[row] + count
                if updated:
                    bucket[row] = updated
                else:
                    del bucket[row]
                if not bucket:
                    del index[key]


def _tuple_getter(positions: Sequence[int]) -> Callable[[Sequence[object]], tuple]:
    """A callable taking a sequence to the tuple of its items at ``positions``."""
    if len(positions) == 1:
        (position,) = positions
        return lambda values: (values[position],)
    if not positions:
        return lambda values: ()
    return itemgetter(*positions)


def _binding_getter(sources: Sequence[tuple[int | None, object]]) -> Callable[[tuple], tuple]:
    """A callable taking a binding tuple to one tuple of ``sources``, each a
    ``(slot, None)`` read off the binding or a ``(None, value)`` constant."""
    if all(slot is not None for slot, _ in sources):
        return _tuple_getter([slot for slot, _ in sources])

    def pick(binding: tuple) -> tuple:
        return tuple(value if slot is None else binding[slot] for slot, value in sources)

    return pick


class Program:
    """A conjunction of atoms compiled against the bags it probes.

    ``slots`` maps each variable to its binding position: the ``bound``
    variables first, then each atom's fresh ones.  With ``values`` the bags
    hold raw values (view maintenance) and a constant stands for its value;
    otherwise they hold terms (an :class:`InstanceIndex`'s facts).
    """

    __slots__ = ("atoms", "slots", "_values", "_steps")

    def __init__(
        self,
        atoms: Sequence[tuple[Atom, BagIndex]],
        bound: Sequence[Variable] = (),
        values: bool = False,
    ) -> None:
        self.atoms = tuple(atom for atom, _ in atoms)
        self.slots: dict[Variable, int] = {variable: slot for slot, variable in enumerate(bound)}
        self._values = values
        self._steps = tuple((index, *self._compile(atom.terms)) for atom, index in atoms)

    def _source(self, term: Term) -> tuple[int | None, object]:
        if isinstance(term, Constant):
            return None, term.value if self._values else term
        return self.slots[term], None

    def _compile(self, terms: Sequence[Term]) -> tuple:
        """One atom's probe positions, the key of a binding (in probe order),
        the fresh values of a row (their variables get the next slots) and
        the ``(position, first position)`` checks of a repeated variable."""
        probe: list[int] = []
        sources: list[tuple[int | None, object]] = []
        fresh: list[int] = []
        first_seen: dict[Variable, int] = {}
        checks: list[tuple[int, int]] = []
        for position, term in enumerate(terms):
            if isinstance(term, Constant) or term in self.slots:
                probe.append(position)
                sources.append(self._source(term))
            elif term in first_seen:
                checks.append((position, first_seen[term]))
            else:
                first_seen[term] = position
                fresh.append(position)
        for term in first_seen:
            self.slots[term] = len(self.slots)
        return tuple(probe), _binding_getter(sources), _tuple_getter(fresh), tuple(checks)

    def getter(self, terms: Sequence[Term]) -> Callable[[tuple], tuple]:
        """A callable taking a binding to the values of ``terms``."""
        return _binding_getter([self._source(term) for term in terms])

    def substitution(self, binding: tuple) -> Substitution:
        """``binding`` as a substitution of the program's variables."""
        return Substitution(dict(zip(self.slots, binding)))

    def run(self, binding: tuple = (), count: int = 1) -> Iterator[tuple[tuple, int]]:
        """Yield ``(binding, count)`` for every match extending ``binding``
        (the bound variables' values), depth first with one row iterator per
        atom.  Do not update a probed bag while this iterator is live."""
        steps = self._steps
        if not steps:
            yield binding, count
            return
        last = len(steps) - 1
        bindings = [binding] * len(steps)
        counts = [count] * len(steps)
        index, probe, key_of, _, _ = steps[0]
        rows = [iter(index.probe(probe, key_of(binding)))] * len(steps)
        level = 0
        while level >= 0:
            fresh_of, checks = steps[level][3:]
            for row, row_count in rows[level]:
                # A variable repeated inside the atom (a self-equality
                # selection) that the probe key could not cover.
                if checks and any(row[at] != row[first] for at, first in checks):
                    continue
                grown = bindings[level] + fresh_of(row)
                grown_count = counts[level] * row_count
                if level == last:
                    yield grown, grown_count
                    continue
                level += 1
                bindings[level] = grown
                counts[level] = grown_count
                index, probe, key_of, _, _ = steps[level]
                rows[level] = iter(index.probe(probe, key_of(grown)))
                break
            else:
                level -= 1


class InstanceIndex:
    """A set of facts, as one :class:`BagIndex` per (relation, arity), each
    fact the row of its terms at count 1.  The arity in the key keeps a match
    arity-exact where one relation name has facts of several arities."""

    __slots__ = ("_bags", "_relations")

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        self._bags: dict[tuple[str, int], BagIndex] = {}
        self._relations: set[str] = set()
        self.add_all(facts)

    def bag(self, relation: str, arity: int) -> BagIndex:
        """The facts of ``relation`` with ``arity`` (an empty bag when none)."""
        bag = self._bags.get((relation, arity))
        if bag is None:
            bag = self._bags[(relation, arity)] = BagIndex()
        return bag

    def add(self, fact: Atom) -> bool:
        """Add a fact; returns False when it was already present."""
        bag = self.bag(fact.relation, fact.arity)
        if fact.terms in bag.rows:
            return False
        bag.update({fact.terms: 1})
        self._relations.add(fact.relation)
        return True

    def add_all(self, facts: Iterable[Atom]) -> int:
        """Add several facts; returns how many were new."""
        return sum(1 for fact in facts if self.add(fact))

    def merge(self, old: Term, new: Term) -> None:
        """Replace ``old`` by ``new`` in every fact (an EGD firing): each
        renamed row leaves its bag as a -1 and comes back renamed as a +1
        unless already present, so no relation loses its last fact."""
        for bag in self._bags.values():
            renamed = [row for row in bag.rows if old in row]
            bag.update(dict.fromkeys(renamed, -1))
            for row in renamed:
                row = tuple(new if term == old else term for term in row)
                if row not in bag.rows:
                    bag.update({row: 1})

    def __contains__(self, fact: Atom) -> bool:
        bag = self._bags.get((fact.relation, fact.arity))
        return bag is not None and fact.terms in bag.rows

    def __len__(self) -> int:
        return sum(len(bag.rows) for bag in self._bags.values())

    def facts(self) -> frozenset[Atom]:
        """All facts as a frozen set."""
        return frozenset(
            Atom(relation, row) for (relation, _), bag in self._bags.items() for row in bag.rows
        )

    def relations(self) -> set[str]:
        """Relation names present in the instance (a live set)."""
        return self._relations


def compile_pattern(
    pattern: Sequence[Atom], index: InstanceIndex, bound: Sequence[Variable] = ()
) -> Program:
    """Compile ``pattern`` against ``index``, most constrained atom first:
    greedily, the atom whose constants select the fewest facts, then the one
    sharing most variables with those placed, then pattern order."""
    if len(pattern) == 1:
        return Program([(pattern[0], index.bag(pattern[0].relation, pattern[0].arity))], bound)
    remaining = []
    for atom in pattern:
        bag = index.bag(atom.relation, atom.arity)
        constants = tuple(p for p, term in enumerate(atom.terms) if isinstance(term, Constant))
        size = len(bag.probe(constants, tuple(atom.terms[p] for p in constants)))
        remaining.append((atom, bag, size, atom.variable_set()))
    ordered: list[tuple[Atom, BagIndex]] = []
    placed: set[Variable] = set()
    while remaining:
        best = min(
            range(len(remaining)),
            key=lambda i: (remaining[i][2], -len(remaining[i][3] & placed)),
        )
        atom, bag, _, variables = remaining.pop(best)
        ordered.append((atom, bag))
        placed |= variables
    return Program(ordered, bound)


def iterate_homomorphisms(
    pattern: Sequence[Atom],
    instance: InstanceIndex | Iterable[Atom],
    seed: Substitution | None = None,
    limit: int | None = None,
) -> Iterator[Substitution]:
    """Homomorphisms from ``pattern`` into ``instance`` (an index, or ground
    atoms indexed on the spot) that extend ``seed``, lazily, at most ``limit``."""
    if not isinstance(instance, InstanceIndex):
        instance = InstanceIndex(instance)
    seed = seed or Substitution.empty()
    bound = tuple(seed)
    program = compile_pattern(pattern, instance, bound)
    start = tuple(seed.get(variable) for variable in bound)
    matches = (program.substitution(binding) for binding, _ in program.run(start))
    return matches if limit is None else islice(matches, limit)


def find_homomorphism(
    pattern: Sequence[Atom],
    instance: InstanceIndex | Iterable[Atom],
    seed: Substitution | None = None,
    requirement: Callable[[Substitution], bool] | None = None,
) -> Substitution | None:
    """One homomorphism from ``pattern`` into ``instance`` that satisfies
    ``requirement`` (e.g. "the head maps onto the frozen head"), or None."""
    matches = iterate_homomorphisms(pattern, instance, seed=seed)
    return next((h for h in matches if requirement is None or requirement(h)), None)
