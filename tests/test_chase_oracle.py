"""The relation-stamped chase against a naive round loop, and its program memo.

``chase`` and ``provenance_chase`` visit a constraint only when a relation it
watches changed since its last visit, and they fire from cached templates.
The oracle below is the naive loop they replaced: every round re-matches
every constraint, compiling each pattern afresh.  Skipping a visit is only
sound if that visit would have fired nothing, so both must agree on
everything: the facts, the equalities, the step count and the provenance
formulas.  The labelled-null counter restarts before each run, so the nulls
the two invent carry the same names when they fire in the same order.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import types
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import Atom, Constant, Variable
from repro.core.chase import (
    ChaseConfig,
    ChaseFailure,
    ProvenanceChaseResult,
    _count_step,
    _fresh_null,
    _resolve_egd_equality,
    chase,
    provenance_chase,
)
from repro.core.constraints import TGD, ConstraintSet, key_constraint
from repro.core.homomorphism import BagIndex, InstanceIndex, Program, Template, compile_pattern
from repro.core.memo import clear_memos, memo_stats
from repro.core.provenance import ProvenanceFormula
from repro.errors import ChaseNonTerminationError

# The package exports the function ``chase`` under the submodule's name.
chase_module = importlib.import_module("repro.core.chase")

# ---------------------------------------------------------------------------
# The oracle: the naive round loop, compiling every pattern on every visit
# ---------------------------------------------------------------------------


def _by_name(variable: Variable) -> str:
    return variable.name


def _head_check(tgd, body, index):
    frontier = sorted(tgd.frontier(), key=_by_name)
    return compile_pattern(tgd.head, index, frontier), body.getter(frontier)


def _fire_tgd(tgd, trigger):
    extended = trigger
    for variable in sorted(tgd.existential_variables(), key=_by_name):
        extended = extended.bind(variable, _fresh_null(variable.name))
    return [atom.apply(extended) for atom in tgd.head]


def _unmet_equality(egd, index):
    body = compile_pattern(egd.body, index)
    sides = body.getter([term for pair in egd.equalities for term in pair])
    for binding, _ in body.run():
        values = sides(binding)
        for left, right in zip(values[::2], values[1::2]):
            resolution = _resolve_egd_equality(left, right)
            if resolution is not None:
                return body.substitution(binding), *resolution
    return None


def _check_size(index, config, name):
    if len(index) > config.max_facts:
        raise ChaseNonTerminationError(f"{name} instance exceeded {config.max_facts} facts")


def naive_chase(facts, constraints, config=ChaseConfig()):
    """``(facts, steps, equalities)`` of the naive restricted chase."""
    constraints = ConstraintSet(constraints)
    index = InstanceIndex(facts)
    equalities = {}
    steps = 0
    changed = True
    while changed:
        changed = False
        for constraint, body_relations in constraints.constraints_with_body_relations():
            if not body_relations <= index.relations():
                continue
            if isinstance(constraint, TGD):
                body = compile_pattern(constraint.body, index)
                head, frontier_of = _head_check(constraint, body, index)
                new_facts = []
                for binding, _ in body.run():
                    if next(head.run(frontier_of(binding)), None) is not None:
                        continue
                    steps = _count_step(steps, config, "chase")
                    trigger = body.substitution(binding)
                    new_facts.extend(f for f in _fire_tgd(constraint, trigger) if f not in index)
                if index.add_all(new_facts):
                    changed = True
                    _check_size(index, config, "chase")
            else:
                while (unmet := _unmet_equality(constraint, index)) is not None:
                    _, old, new = unmet
                    steps = _count_step(steps, config, "chase")
                    index.merge(old, new)
                    if isinstance(old, Constant):
                        equalities[old] = new
                    changed = True
    return index.facts(), steps, equalities


def naive_provenance_chase(annotated_facts, constraints, config=ChaseConfig()):
    """``(facts, provenance, steps, equalities)`` of the naive provenance chase."""
    constraints = ConstraintSet(constraints)
    provenance = dict(annotated_facts)
    index = InstanceIndex(annotated_facts)
    equalities = {}
    steps = 0
    true = ProvenanceFormula.true()
    name = "provenance chase"
    changed = True
    while changed:
        changed = False
        for constraint, body_relations in constraints.constraints_with_body_relations():
            if not body_relations <= index.relations():
                continue
            if isinstance(constraint, TGD):
                body = compile_pattern(constraint.body, index)
                head, frontier_of = _head_check(constraint, body, index)
                body_images = [(a.relation, body.getter(a.terms)) for a in constraint.body]
                head_images = [(a.relation, head.getter(a.terms)) for a in constraint.head]
                for binding, _ in list(body.run()):
                    trigger_provenance = true
                    for relation, image_of in body_images:
                        trigger_provenance = trigger_provenance.conjunction(
                            provenance.get(Atom(relation, image_of(binding)), true)
                        )
                    head_match = next(head.run(frontier_of(binding)), None)
                    if head_match is not None:
                        updated = False
                        for relation, image_of in head_images:
                            image = Atom(relation, image_of(head_match[0]))
                            old = provenance.get(image, ProvenanceFormula.false())
                            new = old.disjunction(trigger_provenance)
                            if new != old:
                                provenance[image] = new
                                updated = True
                        if updated:
                            changed = True
                            steps = _count_step(steps, config, name)
                        continue
                    steps = _count_step(steps, config, name)
                    for fact in _fire_tgd(constraint, body.substitution(binding)):
                        old = provenance.get(fact)
                        if old is None:
                            provenance[fact] = trigger_provenance
                            index.add(fact)
                            changed = True
                        else:
                            new = old.disjunction(trigger_provenance)
                            if new != old:
                                provenance[fact] = new
                                changed = True
                    _check_size(index, config, name)
            else:
                while (unmet := _unmet_equality(constraint, index)) is not None:
                    trigger, old_term, new_term = unmet
                    steps = _count_step(steps, config, name)
                    trigger_provenance = true
                    for body_atom in constraint.body:
                        trigger_provenance = trigger_provenance.conjunction(
                            provenance.get(body_atom.apply(trigger), true)
                        )
                    new_provenance = {}
                    for fact, formula in provenance.items():
                        if old_term in fact.terms:
                            renamed = Atom(
                                fact.relation,
                                [new_term if t == old_term else t for t in fact.terms],
                            )
                            merged = formula.conjunction(trigger_provenance)
                            existing = new_provenance.get(renamed)
                            if existing is not None:
                                merged = existing.disjunction(merged)
                            other = provenance.get(renamed)
                            if other is not None and renamed != fact:
                                merged = merged.disjunction(other)
                            new_provenance[renamed] = merged
                        else:
                            existing = new_provenance.get(fact)
                            if existing is not None:
                                new_provenance[fact] = existing.disjunction(formula)
                            else:
                                new_provenance[fact] = formula
                    provenance = new_provenance
                    index.merge(old_term, new_term)
                    if isinstance(old_term, Constant):
                        equalities[old_term] = new_term
                    changed = True
    return index.facts(), provenance, steps, equalities


def _outcome(run, *args):
    """``run(*args)`` with the labelled-null counter restarted, or the type of
    the chase error it raised."""
    with mock.patch.object(chase_module, "_null_counter", itertools.count()):
        try:
            return run(*args)
        except (ChaseFailure, ChaseNonTerminationError) as error:
            return type(error)


# ---------------------------------------------------------------------------
# Weakly acyclic constraint sets.  Relations are ordered R0 < R1 < R2 < R3;
# a TGD with an existential variable puts its head strictly after its body,
# and a full TGD (no existential) no earlier than its body, so a cycle may
# recurse inside one relation but never through an invented null.
# ---------------------------------------------------------------------------

_RELATIONS = ("R0", "R1", "R2", "R3")
_variables = st.sampled_from(["x", "y", "z"]).map(Variable)
_values = st.sampled_from([0, 1, 2, "_:a", "_:b", "_:c"]).map(Constant)


@st.composite
def _tgds(draw):
    full = draw(st.booleans())
    split = draw(st.integers(min_value=1, max_value=len(_RELATIONS) - (0 if full else 1)))
    body_relations = _RELATIONS[:split]
    head_relations = _RELATIONS[split - 1:] if full else _RELATIONS[split:]
    body = [
        Atom(draw(st.sampled_from(body_relations)),
             [draw(st.one_of(_variables, _variables, st.just(Constant(1)))) for _ in range(2)])
        for _ in range(draw(st.integers(min_value=1, max_value=2)))
    ]
    body_variables = sorted({t for atom in body for t in atom.terms if isinstance(t, Variable)},
                            key=_by_name)
    head_terms = [st.just(Constant(2))]
    if body_variables:
        head_terms.append(st.sampled_from(body_variables))
    if not full:
        head_terms.append(st.sampled_from([Variable("e"), Variable("f")]))
    head = [
        Atom(draw(st.sampled_from(head_relations)),
             [draw(st.one_of(*head_terms)) for _ in range(2)])
        for _ in range(draw(st.integers(min_value=1, max_value=2)))
    ]
    return TGD(body, head)


@st.composite
def _constraint_sets(draw):
    constraints = draw(st.lists(_tgds(), min_size=1, max_size=4))
    # A chain whose heads feed the next body, so firings cascade.
    if draw(st.booleans()):
        x, y, e = Variable("x"), Variable("y"), Variable("e")
        constraints += [
            TGD([Atom("R0", [x, y])], [Atom("R1", [y, e])]),
            TGD([Atom("R1", [x, y])], [Atom("R2", [x, y])]),
        ]
    # Key EGDs merge nulls, equate a null with a constant or fail.
    for relation in draw(st.lists(st.sampled_from(_RELATIONS), max_size=3, unique=True)):
        constraints.append(key_constraint(relation, 2, [0]))
    return draw(st.permutations(constraints))


_instances = st.lists(
    st.builds(lambda relation, a, b: Atom(relation, [a, b]),
              st.sampled_from(_RELATIONS), _values, _values),
    max_size=8,
)

_SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


_x, _y, _z = Variable("x"), Variable("y"), Variable("z")


@given(_instances, _constraint_sets())
# A TGD whose firings feed its own body: its own new facts make it due again.
@example(
    [Atom("R0", [0, 1]), Atom("R0", [1, 2]), Atom("R0", [2, "_:a"])],
    [TGD([Atom("R0", [_x, _y]), Atom("R0", [_y, _z])], [Atom("R0", [_x, _z])])],
)
# A merge that makes a join match: the relation it renamed makes the TGD due.
@example(
    [Atom("R1", [3, "_:a"]), Atom("R1", [3, 2]), Atom("R1", [4, "_:a"]), Atom("R2", [2, 0])],
    [TGD([Atom("R1", [_x, _y]), Atom("R2", [_y, _z])], [Atom("R3", [_x, _z])]),
     key_constraint("R1", 2, [0])],
)
@_SETTINGS
def test_chase_fires_exactly_what_the_naive_loop_fires(facts, constraints):
    expected = _outcome(naive_chase, facts, constraints)
    result = _outcome(chase, facts, constraints)
    if isinstance(expected, type):
        assert result is expected
        return
    assert (result.facts, result.steps, result.equalities) == expected


@given(_instances, _constraint_sets(), st.data())
@_SETTINGS
def test_provenance_chase_fires_exactly_what_the_naive_loop_fires(facts, constraints, data):
    # Most facts are view atoms with their own provenance variable; a few are
    # free (TRUE), as schema facts would be.
    free = data.draw(st.sets(st.integers(min_value=0, max_value=5), max_size=2))
    annotated = {
        fact: ProvenanceFormula.true() if i in free else ProvenanceFormula.variable(i)
        for i, fact in enumerate(dict.fromkeys(facts))
    }
    expected = _outcome(naive_provenance_chase, annotated, constraints)
    result = _outcome(provenance_chase, annotated, constraints)
    if isinstance(expected, type):
        assert result is expected
        return
    assert isinstance(result, ProvenanceChaseResult)
    assert (result.facts, result.provenance, result.steps, result.equalities) == expected
    # PACB reads the result off the index the chase built.
    assert result.index().facts() == result.facts


# ---------------------------------------------------------------------------
# The program memo: each constraint compiles once, and no index is kept
# ---------------------------------------------------------------------------


def _chain():
    x, y, e = Variable("x"), Variable("y"), Variable("e")
    return [
        TGD([Atom("A", [x, y])], [Atom("B", [y, e])]),
        TGD([Atom("B", [x, y])], [Atom("C", [x, y])]),
        TGD([Atom("C", [x, y])], [Atom("D", [y, x])]),
    ]


def test_each_constraint_compiles_once_over_two_chases(monkeypatch):
    clear_memos()
    compiled = []
    build = Template.__init__

    def counted(template, atoms, bound=(), values=False):
        compiled.append((tuple(atoms), tuple(bound)))
        build(template, atoms, bound, values)

    monkeypatch.setattr(Template, "__init__", counted)
    tgds = _chain()
    facts = [Atom("A", [1, 2]), Atom("A", [2, 3]), Atom("A", [3, 1])]
    first = _outcome(chase, facts, tgds)
    second = _outcome(chase, facts, tgds)
    assert (first.facts, first.steps) == (second.facts, second.steps)
    assert first.steps == 9
    bodies = [(tgd.body, ()) for tgd in tgds]
    assert [compiled.count(body) for body in bodies] == [1, 1, 1]
    # Heads (frontier bound) compile once too: nothing compiles twice.
    assert len(compiled) == len(set(compiled)) == 6


def _reachable(roots):
    """Every object reachable from ``roots``, not descending into modules,
    classes, code or a function's globals."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.CodeType)):
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, types.FunctionType):
            stack.extend(obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))


def test_the_program_memo_keeps_no_index_alive():
    clear_memos()
    tgds = _chain()
    facts = [Atom("A", [1, 2]), Atom("A", [2, 3])]
    chase(facts, tgds + [key_constraint("B", 2, [0])])
    annotated = {fact: ProvenanceFormula.variable(i) for i, fact in enumerate(facts)}
    provenance_chase(annotated, tgds)
    memo = chase_module._programs
    assert len(memo) > 0
    reachable = list(_reachable([memo._entries]))
    assert any(isinstance(obj, Template) for obj in reachable)
    assert not [obj for obj in reachable if isinstance(obj, (BagIndex, InstanceIndex, Program))]
    stats = memo_stats()["chase_programs"]
    assert stats["size"] == len(memo) and stats["misses"] > 0
    clear_memos()
    assert len(memo) == 0
    assert memo_stats()["chase_programs"] == {"size": 0, "hits": 0, "misses": 0, "evictions": 0}


def test_substitution_free_firing_names_nulls_in_existential_order():
    """A firing invents one null per existential, in name order, as the
    substitution-based firing did."""
    x, e, f = Variable("x"), Variable("e"), Variable("f")
    tgd = TGD([Atom("A", [x])], [Atom("B", [x, f, e])])
    result = _outcome(chase, [Atom("A", [7])], [tgd])
    expected = _outcome(naive_chase, [Atom("A", [7])], [tgd])
    assert result.facts == expected[0] == frozenset(
        {Atom("A", [7]), Atom("B", [7, "_:c1_f", "_:c0_e"])}
    )
