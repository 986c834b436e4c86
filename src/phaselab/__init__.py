"""Desk-scale laboratory for periodic variational problems and phase transitions.

Submodules
----------
``field``        grid fields, lattice translations, order comparisons
``integrand``    variational densities, the double well, growth checks
``minimize``     discrete energy, gradients, relaxation, minimality probes
``heteroclinic`` the 1-D connecting orbit (closed form and BVP oracle)
``orbit``        self-intersection scans, ordering invariants, envelopes
``foliation``    explicit foliations, rigidity and asymptotic classification
``cli``          batch front end with reproducible reports

``import phaselab`` loads no submodule: each one, and each name below, is
imported on first use (PEP 562), so a program loads only the layers it uses.
"""

import importlib

#: Every public name, by the submodule that defines it.
_EXPORTS = {
    "field": (
        "ORDER_TOL",
        "BoxAxis",
        "GridError",
        "OrderRelation",
        "Ordering",
        "PeriodicAxis",
        "ScalarField",
        "SlopeMismatchError",
        "TranslationVector",
        "compare",
        "constant_field",
        "dump_csv",
        "field_from_function",
        "field_from_values",
        "load_csv",
        "node_gradients",
        "sup_distance",
        "translate",
    ),
    "integrand": (
        "GrowthReport",
        "Integrand",
        "IntegrandEvaluationError",
        "allen_cahn",
        "allen_cahn_density",
        "check_growth",
        "eval_double_well",
        "get_integrand",
    ),
    "minimize": (
        "EnergyDivergedError",
        "MinimalityReport",
        "RelaxOptions",
        "RelaxResult",
        "energy",
        "energy_gradient",
        "minimality_spot_check",
        "relax",
    ),
    "heteroclinic": (
        "Profile1D",
        "closed_form_profile",
        "equipartition_residual",
        "field_to_profile",
        "logistic_profile",
        "profile_to_field",
        "solve_heteroclinic_bvp",
    ),
    "orbit": (
        "InvariantExtractionError",
        "InvariantSystem",
        "IntersectionWitness",
        "SelfIntersectionError",
        "classify_translation",
        "envelope",
        "extract_invariants",
        "is_admissible",
        "lattice_in_orthocomplement",
        "self_intersection_scan",
        "total_order_check",
    ),
    "foliation": (
        "AsymptoticResult",
        "FoliationFamily",
        "MatchResult",
        "asymptotic_limit",
        "build_family",
        "envelope_identity_check",
        "rigidity_check",
        "verify_foliation",
    ),
}

_SUBMODULES = (*_EXPORTS, "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """Import a submodule, or the submodule that defines a public name, on
    first use; a name is then stored here, so the next lookup is plain."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
