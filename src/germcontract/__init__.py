"""Exact decision procedures for contracting the exceptional configuration
of a plane curve germ tangent to a line, after r extra blow-ups.

Pipeline: parse a Puiseux series (or take characteristic pairs directly),
attach the generic degree-wise series, compute essential key forms and
virtual poles, decide analytic contractibility and whether an algebraic
contraction exists, and build the weighted dual graph of the configuration.
All arithmetic is over Q; there is no floating point anywhere.

The namespace is lazy (PEP 562): `import germcontract` loads none of the
library modules, so a CLI process compiles only the modules its subcommand
imports.  The first read of any name in __all__ loads the whole library and
binds every name here, not only the module of the name read: code that
reads one name and then walks sys.modules, such as a tracer that rebinds
the public functions of every loaded module, finds all of them.
"""

# home module -> the names it exports here
_EXPORTS = {
    "criteria": (
        "AlgebraicityReport", "Classification", "S2Entry", "SemigroupReport",
        "VirtualPoles", "WitnessCurve", "alpha_invariant", "is_algebraic",
        "is_contractible", "semigroup_conditions", "semigroup_membership",
        "single_pair_closed_form", "single_pair_test", "virtual_poles",
        "witness_curves",
    ),
    "dualgraph": (
        "DGVertex", "DualGraph", "build_dual_graph", "export_graph",
        "intersection_matrix", "is_negative_definite", "parse_graph_json",
    ),
    "errors": ("InvariantViolationError", "PreconditionError", "SeriesParseError"),
    "keyforms": (
        "EssentialKeyForms", "all_key_forms", "essential_key_forms", "is_polynomial",
        "omega_decompose",
    ),
    "poly": ("Poly",),
    "puiseux": (
        "CharacteristicData", "Orientation", "PuiseuxPoly", "degreewise_to_local",
        "format_puiseux", "local_to_degreewise", "parse_puiseux", "puiseux_pairs",
    ),
    "semidegree": (
        "GenericDPS", "generic_dps_from_curve", "parse_poly", "semidegree_eval",
        "substitute",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        home = import_module(f".{module}", __name__)
        namespace.update((n, getattr(home, n)) for n in names)
    return namespace[name]


def __dir__():
    return sorted({*globals(), *__all__})
