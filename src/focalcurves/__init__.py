"""Foci, focal divisors, and confocal families of real plane algebraic curves."""

from .dualize import (
    RationalCurveParam,
    dual_param,
    implicitize,
    isotropic_focal_poly,
    smoothness_probe,
)
from .equiclassical import (
    ConditionMatrix,
    ConfocalFamily,
    FocalJacobianReport,
    condition_matrix,
    construct_min_class,
    equiclassical_conditions,
    focal_jacobian,
    restriction_matrix,
    shifted_section_dim,
    tangent_space_basis,
)
from .experiment import run_rank_experiment, run_rank_trial
from .focal import (
    ConfocalResult,
    FocalDiagnostics,
    FocalDivisor,
    confocal,
    divisor_matching_distance,
    focal_divisor,
    param_focal_divisor,
    real_foci,
)
from .poly import TriPoly, UniPoly, divided_difference_pair, monomials_of_degree
from .ratgen import (
    SingularityData,
    generate_curve_with_census,
    locate_singularities,
    random_rational_curve,
)
from .resultants import discriminant_binary, resultant
from .rootfind import Focus, RootSet, find_roots, match_focal_pairs
from .scalars import QQi

__version__ = "0.1.0"

__all__ = [
    "ConditionMatrix",
    "ConfocalFamily",
    "ConfocalResult",
    "FocalDiagnostics",
    "FocalDivisor",
    "FocalJacobianReport",
    "Focus",
    "QQi",
    "RationalCurveParam",
    "RootSet",
    "SingularityData",
    "TriPoly",
    "UniPoly",
    "condition_matrix",
    "confocal",
    "construct_min_class",
    "discriminant_binary",
    "divided_difference_pair",
    "divisor_matching_distance",
    "dual_param",
    "equiclassical_conditions",
    "find_roots",
    "focal_divisor",
    "focal_jacobian",
    "generate_curve_with_census",
    "implicitize",
    "isotropic_focal_poly",
    "locate_singularities",
    "match_focal_pairs",
    "monomials_of_degree",
    "param_focal_divisor",
    "random_rational_curve",
    "real_foci",
    "restriction_matrix",
    "resultant",
    "run_rank_experiment",
    "run_rank_trial",
    "shifted_section_dim",
    "smoothness_probe",
    "tangent_space_basis",
]
