"""The pivot model and constraint-based rewriting engine (ESTOCADA's core).

This package implements the paper's primary contribution: a relational pivot
model with constraints able to encode heterogeneous data models, and
view-based query rewriting under constraints via the Chase & Backchase — both
the classical algorithm (baseline) and the Provenance-Aware C&B (PACB) that
ESTOCADA actually uses.
"""

from repro.core.backchase import BackchaseStatistics, classical_backchase
from repro.core.binding_patterns import AccessPattern, AccessPatternRegistry, feasible_order, is_feasible
from repro.core.chase import ChaseConfig, ChaseFailure, ChaseResult, chase, provenance_chase
from repro.core.constraints import (
    EGD,
    TGD,
    ConstraintSet,
    functional_dependency,
    inclusion_dependency,
    key_constraint,
)
from repro.core.containment import (
    is_contained_in,
    is_contained_under_constraints,
    is_equivalent,
    is_equivalent_under_constraints,
)
from repro.core.homomorphism import InstanceIndex, find_homomorphism, iterate_homomorphisms
from repro.core.index import RewriteIndex
from repro.core.memo import clear_memos, memo_stats
from repro.core.minimization import minimize, minimize_under_constraints
from repro.core.pacb import PACBResult, PACBStatistics, pacb_rewrite
from repro.core.provenance import ProvenanceFormula
from repro.core.query import ConjunctiveQuery, UnionQuery
from repro.core.rewriting import Rewriter, RewritingOutcome
from repro.core.terms import Atom, Constant, Substitution, Variable, fresh_variable
from repro.core.universal_plan import UniversalPlan, chase_query
from repro.core.views import ViewDefinition, views_constraint_set

__all__ = [
    "Atom",
    "Constant",
    "Variable",
    "Substitution",
    "fresh_variable",
    "ConjunctiveQuery",
    "UnionQuery",
    "TGD",
    "EGD",
    "ConstraintSet",
    "key_constraint",
    "functional_dependency",
    "inclusion_dependency",
    "InstanceIndex",
    "find_homomorphism",
    "iterate_homomorphisms",
    "ChaseConfig",
    "ChaseResult",
    "ChaseFailure",
    "chase",
    "provenance_chase",
    "chase_query",
    "UniversalPlan",
    "is_contained_in",
    "is_equivalent",
    "is_contained_under_constraints",
    "is_equivalent_under_constraints",
    "minimize",
    "minimize_under_constraints",
    "ProvenanceFormula",
    "AccessPattern",
    "AccessPatternRegistry",
    "feasible_order",
    "is_feasible",
    "ViewDefinition",
    "views_constraint_set",
    "classical_backchase",
    "BackchaseStatistics",
    "pacb_rewrite",
    "PACBResult",
    "PACBStatistics",
    "Rewriter",
    "RewritingOutcome",
    "RewriteIndex",
    "memo_stats",
    "clear_memos",
]
