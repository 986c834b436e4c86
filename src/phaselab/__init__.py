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
"""

from .field import (
    ORDER_TOL,
    BoxAxis,
    GridError,
    OrderRelation,
    Ordering,
    PeriodicAxis,
    ScalarField,
    SlopeMismatchError,
    TranslationVector,
    compare,
    constant_field,
    dump_csv,
    field_from_function,
    field_from_values,
    load_csv,
    node_gradients,
    sup_distance,
    translate,
)
from .integrand import (
    GrowthReport,
    Integrand,
    IntegrandEvaluationError,
    allen_cahn,
    allen_cahn_density,
    check_growth,
    eval_double_well,
    get_integrand,
)
from .minimize import (
    EnergyDivergedError,
    MinimalityReport,
    RelaxOptions,
    RelaxResult,
    energy,
    energy_gradient,
    minimality_spot_check,
    relax,
)
from .heteroclinic import (
    Profile1D,
    closed_form_profile,
    equipartition_residual,
    field_to_profile,
    logistic_profile,
    profile_to_field,
    solve_heteroclinic_bvp,
)
from .orbit import (
    InvariantExtractionError,
    InvariantSystem,
    IntersectionWitness,
    SelfIntersectionError,
    classify_translation,
    envelope,
    extract_invariants,
    gap_check,
    is_admissible,
    lattice_in_orthocomplement,
    self_intersection_scan,
    total_order_check,
)
from .foliation import (
    AsymptoticResult,
    FoliationFamily,
    MatchResult,
    asymptotic_limit,
    build_family,
    envelope_identity_check,
    rigidity_check,
    verify_foliation,
)

__version__ = "0.1.0"
