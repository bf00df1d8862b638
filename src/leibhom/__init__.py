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
    is_isomorphism,
    kernel_ideal,
    lie_module_lift,
    lie_quotient,
    opposite,
    opposite_representation,
    sparse_basis,
    symmetrization,
    trivial_representation,
)
from .dgla import DGLieAlgebra, IllDefinedAction, NotInCategory, minimal_envelope
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
    NotAChainMap,
    TrivialCoefficients,
    UnsupportedCoefficients,
    ce_chain,
    ce_cochain,
    ce_projection,
    conjecture_check,
    fg_subcomplex,
    fg_weight_complex,
    loday_complex,
    loday_cochain_complex,
    trivial_coefficients,
)

__version__ = "0.1.0"

# The library-only names, which dgcat holds: no command runs them, so the
# package resolves them on first access (PEP 562) and `import leibhom.cli`
# never compiles that module.
_DGCAT = ("CategoryReport", "DGLAMorphism", "DGModule", "as_module", "check_dg_module",
          "check_dgla", "check_dgla_morphism", "classical_ce", "classical_ce_cochain", "cone",
          "leib", "minimal_counit", "minimal_module")

# every name imported above (the submodules, which are not callable, left out)
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and callable(value)] + list(_DGCAT))


def __getattr__(name: str):
    if name in _DGCAT:
        from . import dgcat
        return getattr(dgcat, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_DGCAT))
