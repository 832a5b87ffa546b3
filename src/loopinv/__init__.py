"""Exact involution eigenspaces of circle-equivariant free loop space
cohomology, with stable pseudoisotopy and A-theory dimension tables."""

__version__ = "0.1.0"

from .algebra import (
    Derivation,
    Generator,
    GradedAlgebra,
    Polynomial,
    check_differential,
)
from .cohomology import (
    DegreeSlice,
    EigenTable,
    cochain_matrix,
    eigen_table,
)
from .curvature import (
    CurvaturePair,
    KernelBoundInputs,
    KernelBoundResult,
    eigen_condition_from_model,
    enumerate_pairs,
    kernel_lower_bound,
)
from .models import (
    DgaModel,
    MinimalModel,
    base_dga,
    borel_model,
    loop_model,
    parse_model,
    point_borel_model,
)
from .pseudoisotopy import (
    PseudoisotopyRow,
    PseudoisotopyTable,
    k_theory_correction,
    pseudoisotopy_table,
)
from .series import (
    RationalExpr,
    TruncatedSeries,
    algebra_generating_function,
    equals_expr,
    expand,
    parse_expr,
)

__all__ = [
    "CurvaturePair",
    "Derivation",
    "DegreeSlice",
    "DgaModel",
    "EigenTable",
    "Generator",
    "GradedAlgebra",
    "KernelBoundInputs",
    "KernelBoundResult",
    "MinimalModel",
    "Polynomial",
    "PseudoisotopyRow",
    "PseudoisotopyTable",
    "RationalExpr",
    "TruncatedSeries",
    "algebra_generating_function",
    "base_dga",
    "borel_model",
    "check_differential",
    "cochain_matrix",
    "eigen_condition_from_model",
    "eigen_table",
    "enumerate_pairs",
    "equals_expr",
    "expand",
    "k_theory_correction",
    "kernel_lower_bound",
    "loop_model",
    "parse_expr",
    "parse_model",
    "point_borel_model",
    "pseudoisotopy_table",
]
