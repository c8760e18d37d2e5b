"""weightopt: bang-bang minimization of the principal Dirichlet eigenvalue
λ₁(m) of -Δu = λ m u over rearrangement classes of bounded weights, with
the rearrangement calculus and Steiner symmetrization behind it."""

from .eig import (
    EigenPair,
    NoConvergence,
    WeightNotPositiveAnywhere,
    assemble_stiffness,
    principal_positive_eigenvalue,
)
from .grid import (
    GridDomain,
    ScalarField,
    from_mask,
    make_box,
    make_ellipse,
    make_rectangle,
    transpose_field,
)
from .optimize import (
    DescentError,
    MismatchedClassesError,
    OptimizeReport,
    compare_split_vs_merged,
    decompose,
    is_fixed_point,
    optimize_single,
    optimize_two,
    rearrangement_step,
)
from .rearrange import (
    InfeasibleClassError,
    MeasureMismatchError,
    ResourceClass,
    comonotone,
    decreasing_rearrangement,
    equimeasurable,
    hl_inner,
    hl_pairing,
    pair_family,
    precedes,
)
from .steiner import (
    SteinerAxisError,
    symmetrize_function,
    symmetrize_set,
    symmetry_defect,
)

__version__ = "0.1.0"

__all__ = [
    "DescentError",
    "EigenPair",
    "GridDomain",
    "InfeasibleClassError",
    "MeasureMismatchError",
    "MismatchedClassesError",
    "NoConvergence",
    "OptimizeReport",
    "ResourceClass",
    "ScalarField",
    "SteinerAxisError",
    "WeightNotPositiveAnywhere",
    "assemble_stiffness",
    "comonotone",
    "compare_split_vs_merged",
    "decompose",
    "decreasing_rearrangement",
    "equimeasurable",
    "from_mask",
    "hl_inner",
    "hl_pairing",
    "is_fixed_point",
    "make_box",
    "make_ellipse",
    "make_rectangle",
    "optimize_single",
    "optimize_two",
    "pair_family",
    "precedes",
    "principal_positive_eigenvalue",
    "rearrangement_step",
    "symmetrize_function",
    "symmetrize_set",
    "symmetry_defect",
    "transpose_field",
]
