"""Computation with noncommutative polynomials and rational functions.

The package computes inner ranks over the free skew field, certifies
fullness by exact certificates, builds linear representations of rational
expressions and evaluates them at matrix tuples, extracts central
eigenvalues with exact masses, and cross-validates all of it against
random matrix models (GUE, Haar unitary, Ginibre).
"""

__version__ = "0.1.0"

from .errors import (
    DegreeTooHigh,
    Inconclusive,
    InputError,
    InvariantViolation,
    MethodDisagreement,
    NcfieldError,
    NoConsensus,
    NonSquareError,
    OutOfDomain,
    ShapeMismatch,
    VariableMismatch,
    ZeroPencilError,
)
from .scalars import GaussianRational
from .ncpoly import (
    Letter,
    LinearPencil,
    NcMatrix,
    NcPoly,
    random_pencil,
    random_poly_matrix,
)
from .ratexpr import (
    Add,
    Adjoint,
    Const,
    Inv,
    Mul,
    Neg,
    RatExpr,
    Var,
    eval_numeric,
    expr_adjoint,
    parse,
    poly_from_string,
    unparse,
)
from .realization import (
    DomainReport,
    LinearRepresentation,
    domain_check,
    eval_and_check,
    eval_rep,
    realize,
)
from .ncrank import (
    FullnessCertificate,
    RankResult,
    fullness_scaling,
    homogenize,
    linearize_matrix,
    ncrank,
    rank_by_substitution,
    verify_certificate,
    verify_nonfull_witness,
)
from .spectra import (
    SpectralAtom,
    SpectrumReport,
    atom_masses,
    central_eigs_pencil,
    central_eigs_polymatrix,
    entropy_dimension,
)
from .randmat import (
    ESD,
    MatrixModel,
    RankReport,
    atiyah_integrality_scan,
    custom_model,
    empirical_rank,
    esd,
    ks_to_semicircle,
    rank_convergence,
    sample,
)
from .freegroup import (
    GroupBall,
    ball_size,
    build_ball,
    commutator_defect,
    dual_op,
    dual_system_report,
    left_regular,
)

__all__ = [
    "__version__",
    # errors
    "NcfieldError",
    "InputError",
    "VariableMismatch",
    "ShapeMismatch",
    "NonSquareError",
    "DegreeTooHigh",
    "ZeroPencilError",
    "Inconclusive",
    "NoConsensus",
    "MethodDisagreement",
    "InvariantViolation",
    "OutOfDomain",
    # scalars
    "GaussianRational",
    # free algebra
    "Letter",
    "NcPoly",
    "NcMatrix",
    "LinearPencil",
    "random_pencil",
    "random_poly_matrix",
    # expressions
    "RatExpr",
    "Const",
    "Var",
    "Adjoint",
    "Neg",
    "Inv",
    "Add",
    "Mul",
    "parse",
    "unparse",
    "expr_adjoint",
    "poly_from_string",
    "eval_numeric",
    # realizations
    "LinearRepresentation",
    "DomainReport",
    "realize",
    "eval_rep",
    "domain_check",
    "eval_and_check",
    # rank
    "ncrank",
    "rank_by_substitution",
    "fullness_scaling",
    "verify_certificate",
    "verify_nonfull_witness",
    "homogenize",
    "linearize_matrix",
    "RankResult",
    "FullnessCertificate",
    # spectra
    "SpectralAtom",
    "SpectrumReport",
    "central_eigs_pencil",
    "central_eigs_polymatrix",
    "atom_masses",
    "entropy_dimension",
    # random matrix models
    "MatrixModel",
    "sample",
    "custom_model",
    "empirical_rank",
    "RankReport",
    "ESD",
    "esd",
    "rank_convergence",
    "atiyah_integrality_scan",
    "ks_to_semicircle",
    # free group dual system
    "GroupBall",
    "ball_size",
    "build_ball",
    "left_regular",
    "dual_op",
    "commutator_defect",
    "dual_system_report",
]
