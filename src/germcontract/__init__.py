"""Exact decision procedures for contracting the exceptional configuration
of a plane curve germ tangent to a line, after r extra blow-ups.

Pipeline: parse a Puiseux series (or take characteristic pairs directly),
attach the generic degree-wise series, compute essential key forms and
virtual poles, decide analytic contractibility and whether an algebraic
contraction exists, and build the weighted dual graph of the configuration.
All arithmetic is over Q; there is no floating point anywhere.
"""

from .criteria import (
    AlgebraicityReport,
    Classification,
    S2Entry,
    SemigroupReport,
    VirtualPoles,
    WitnessCurve,
    alpha_invariant,
    is_algebraic,
    is_contractible,
    semigroup_conditions,
    semigroup_membership,
    single_pair_closed_form,
    single_pair_test,
    virtual_poles,
    witness_curves,
)
from .dualgraph import (
    DGVertex,
    DualGraph,
    build_dual_graph,
    export_graph,
    intersection_matrix,
    is_negative_definite,
    parse_graph_json,
)
from .errors import InvariantViolationError, PreconditionError, SeriesParseError
from .keyforms import (
    EssentialKeyForms,
    all_key_forms,
    essential_key_forms,
    is_polynomial,
    omega_decompose,
)
from .poly import Poly
from .puiseux import (
    CharacteristicData,
    Orientation,
    PuiseuxPoly,
    degreewise_to_local,
    format_puiseux,
    local_to_degreewise,
    parse_puiseux,
    puiseux_pairs,
)
from .semidegree import (
    GenericDPS,
    generic_dps_from_curve,
    parse_poly,
    semidegree_eval,
    substitute,
)

__all__ = [
    "AlgebraicityReport",
    "CharacteristicData",
    "Classification",
    "DGVertex",
    "DualGraph",
    "EssentialKeyForms",
    "GenericDPS",
    "InvariantViolationError",
    "Orientation",
    "Poly",
    "PreconditionError",
    "PuiseuxPoly",
    "S2Entry",
    "SemigroupReport",
    "SeriesParseError",
    "VirtualPoles",
    "WitnessCurve",
    "all_key_forms",
    "alpha_invariant",
    "build_dual_graph",
    "degreewise_to_local",
    "essential_key_forms",
    "export_graph",
    "format_puiseux",
    "generic_dps_from_curve",
    "intersection_matrix",
    "is_algebraic",
    "is_contractible",
    "is_negative_definite",
    "is_polynomial",
    "local_to_degreewise",
    "omega_decompose",
    "parse_graph_json",
    "parse_poly",
    "parse_puiseux",
    "puiseux_pairs",
    "semidegree_eval",
    "semigroup_conditions",
    "semigroup_membership",
    "single_pair_closed_form",
    "single_pair_test",
    "substitute",
    "virtual_poles",
    "witness_curves",
]
