"""Exact homology and cohomology of Leibniz algebras.

The package computes, over the rationals:

* tensor-module homology and cohomology of a Leibniz algebra with
  trivial, Lie-module, or two-sided module coefficients,
* the small complexes carried by the enveloping differential graded Lie
  algebra, with the comparison maps back to the tensor-module complexes,
* per-weight homology of the subcomplex spanned by left-normed graded
  commutators over a truncated free Leibniz algebra.

All arithmetic is exact; a reported dimension of zero is zero.
"""

from .exactla import (
    ExactLAError,
    Matrix,
    NotInvariant,
    ShapeMismatch,
    Subspace,
    format_scalar,
    kernel_basis,
    parse_scalar,
    rank,
)
from .leibcore import (
    IllDefinedQuotient,
    LeibnizAlgebra,
    LieAlgebra,
    LieModule,
    QuotientData,
    Representation,
    adjoint_lie_module,
    adjoint_representation,
    check_leibniz,
    check_lie,
    check_lie_module,
    check_representation,
    kernel_ideal,
    lie_module_lift,
    lie_quotient,
    opposite,
    opposite_representation,
    symmetrization,
    trivial_representation,
)
from .dgla import (
    CategoryReport,
    DGLAMorphism,
    DGLieAlgebra,
    DGModule,
    IllDefinedAction,
    NotInCategory,
    as_module,
    check_dg_module,
    check_dgla,
    check_dgla_morphism,
    cone,
    leib,
    minimal_counit,
    minimal_envelope,
    minimal_module,
)
from .freealg import (
    FreeLeibnizTruncation,
    NecklaceCountError,
    RightIdentityError,
    WeightOverflow,
    free_graded_lie_component,
    graded_commutator,
    witt_dim,
)
from .pbw import PBWAlgebra
from .homology import (
    ChainComplex,
    ComparisonReport,
    ConjectureReport,
    DifferentialSquareNonzero,
    LieModuleCoefficients,
    NotAChainMap,
    RepresentationCoefficients,
    TrivialCoefficients,
    UnsupportedCoefficients,
    ce_chain,
    ce_cochain,
    ce_projection,
    classical_ce,
    classical_ce_cochain,
    conjecture_check,
    fg_subcomplex,
    fg_weight_complex,
    lie_coefficients,
    loday_complex,
    loday_cochain_complex,
    rep_coefficients,
    trivial_coefficients,
)

__version__ = "0.1.0"
