"""Exact arithmetic for mutation-periodic quivers and their lattice dynamics.

The pipeline: build an exchange matrix from a recurrence tuple, iterate the
bilinear recurrence (with or without coefficients) in exact rational or
symbolic Laurent arithmetic, reduce to the minimal symplectic coordinates via
a palindromic lattice basis, and analyze the result — conserved quantities,
linear relations with periodic coefficients, and algebraic entropy.
"""

from .quiver import ExchangeMatrix, build_from_tuple, is_period1, mutate_matrix, rho_conjugate
from .laurent import LaurentPoly, format_rational, laurent_try_div, parse_rational
from .tsystem import NonLaurentIterate, Orbit, TStencil, check_orbit, iterate_t, iterate_tz, orbit_from_json
from .zsystem import (
    CharPoly,
    ConstantZ,
    GeometricZ,
    PerturbedZ,
    ZSolution,
    ZStencil,
    char_poly,
    solve_z,
    z_stencil_from_tuple,
)
from .ysystem import iterate_y, qp1_iterate, verify_tz_correspondence, y_from_seed_dynamics, ybar_from_orbit
from .reduction import (
    PalindromicBasis,
    USystemSpec,
    derive_usystem,
    derive_uzsystem,
    generating_function_check,
    iterate_usystem,
    palindromic_basis,
    project,
    reduced_structure_matrix,
    verify_conjugacy,
    verify_form_invariance,
)
from .analysis import (
    DegreeSequence,
    EntropyEstimate,
    LinearRelation,
    RelationSearch,
    degree_sequence,
    entropy_estimate,
    relation_search,
    somos4_first_integral,
    tropical_iterate,
)
from .presets import Preset, get_preset, list_presets

__version__ = "0.1.0"

__all__ = [
    "ExchangeMatrix", "build_from_tuple", "is_period1", "mutate_matrix", "rho_conjugate",
    "LaurentPoly", "format_rational", "laurent_try_div", "parse_rational",
    "NonLaurentIterate", "Orbit", "TStencil", "check_orbit", "iterate_t", "iterate_tz",
    "orbit_from_json",
    "CharPoly", "ConstantZ", "GeometricZ", "PerturbedZ", "ZSolution", "ZStencil",
    "char_poly", "solve_z", "z_stencil_from_tuple",
    "iterate_y", "qp1_iterate", "verify_tz_correspondence", "y_from_seed_dynamics",
    "ybar_from_orbit",
    "PalindromicBasis", "USystemSpec", "derive_usystem", "derive_uzsystem",
    "generating_function_check", "iterate_usystem", "palindromic_basis", "project",
    "reduced_structure_matrix", "verify_conjugacy", "verify_form_invariance",
    "DegreeSequence", "EntropyEstimate", "LinearRelation", "RelationSearch",
    "degree_sequence", "entropy_estimate", "relation_search",
    "somos4_first_integral", "tropical_iterate",
    "Preset", "get_preset", "list_presets",
    "__version__",
]
