"""The contract of the package's value classes, whose __init__, equality
and repr are written out: value equality and hashing for Matrix and
Subspace, no assignment to an immutable object, the constructor
checks with their messages, fresh defaults, and __match_args__ listing
the constructor's parameters in order (scripts/result_digest.py walks
the fields it names)."""

import inspect
from fractions import Fraction

import pytest

from leibhom.dgcat import CategoryReport, DGLAMorphism, DGModule, as_module, cone
from leibhom.dgla import DGLieAlgebra
from leibhom.exactla import Matrix, ShapeMismatch, Subspace, _matrix, column_span
from leibhom.homology import (
    CEData,
    ChainComplex,
    ComparisonReport,
    ConjectureReport,
    DifferentialSquareNonzero,
    TrivialCoefficients,
    WeightVerdict,
)
from leibhom.leibcore import (
    LeibnizAlgebra,
    LieAlgebra,
    LieModule,
    QuotientData,
    Representation,
)
from leibhom.pbw import PBWAlgebra

from conftest import CORPUS, LIE_CORPUS

CLASSES = [Matrix, Subspace, LeibnizAlgebra, LieAlgebra, QuotientData, Representation,
           LieModule, DGLieAlgebra, CategoryReport, DGLAMorphism, DGModule, ChainComplex,
           TrivialCoefficients, CEData, ComparisonReport, WeightVerdict, ConjectureReport,
           PBWAlgebra]

ROWS = ((2, ((0, 1),)), (1, ()))  # [[1/2, 0, 0], [0, 0, 0]]


def test_equal_matrices_compare_and_hash_equal():
    built = [Matrix(2, 3, [[(0, Fraction(1, 2))], []]),
             Matrix.from_entries(2, 3, {(0, 0): 1}, den=2),
             Matrix.from_rows([[Fraction(1, 2), 0, 0], [0, 0, 0]]),
             _matrix(2, 3, ROWS)]
    assert all(m == built[0] and hash(m) == hash(built[0]) for m in built)
    assert len({*built}) == 1


@pytest.mark.parametrize("other", [_matrix(3, 3, ROWS), _matrix(2, 4, ROWS),
                                   _matrix(2, 3, ((1, ((0, 1),)), (1, ())))],
                         ids=["rows", "cols", "int_rows"])
def test_a_matrix_field_change_breaks_equality(other):
    assert _matrix(2, 3, ROWS) != other


def test_equal_subspaces_compare_and_hash_equal():
    a = Subspace.from_sparse_columns(3, [[(0, 1), (1, 1)], [(1, 2)]])
    b = column_span(Matrix.from_rows([[1, 0], [0, 1], [0, 0]]))
    assert a == b and hash(a) == hash(b)
    assert a == Subspace(a.ambient_dim, a.basis, a.pivots)


@pytest.mark.parametrize("other", [Subspace(3, Matrix.identity(2), (0, 1)),
                                   Subspace(2, Matrix.zeros(2, 2), (0, 1)),
                                   Subspace(2, Matrix.identity(2), (1, 0))],
                         ids=["ambient_dim", "basis", "pivots"])
def test_a_subspace_field_change_breaks_equality(other):
    assert Subspace.full(2) != other


def test_a_matrix_is_not_equal_to_its_fields():
    m = Matrix.identity(1)
    assert m != (1, 1, m.int_rows) and m != Subspace.full(1)


@pytest.mark.parametrize("obj", [Matrix.identity(2), Subspace.full(2), CORPUS["heis3"],
                                 TrivialCoefficients(2)],
                         ids=["Matrix", "Subspace", "LeibnizAlgebra", "TrivialCoefficients"])
def test_immutable_objects_refuse_assignment(obj):
    field = type(obj).__match_args__[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(obj, field, 0)
    with pytest.raises(AttributeError, match="cannot assign"):
        obj.new_attribute = 0
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(obj, field)
    assert getattr(obj, field) == before and not hasattr(obj, "new_attribute")


def test_cached_views_still_fill_in():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert m.rank() == 1 and "_rank" in vars(m)
    g = LeibnizAlgebra(CORPUS["heis3"].dim, CORPUS["heis3"].basis_names,
                       CORPUS["heis3"].structure)
    assert g.quotient_data is g.quotient_data


@pytest.mark.parametrize("build, error, message", [
    (lambda: LeibnizAlgebra(2, ("x",), Matrix.zeros(2, 4)), ValueError,
     "basis_names length does not match dim"),
    (lambda: LeibnizAlgebra(1, ("x",), Matrix.zeros(1, 1), "up"), ValueError,
     "unknown convention 'up'"),
    (lambda: TrivialCoefficients(0), ValueError,
     "coefficient dimension must be a positive int, got 0"),
    (lambda: ChainComplex(0, (1, 2), ()), ShapeMismatch,
     "expected one differential per adjacent pair of degrees"),
    (lambda: ChainComplex(0, (1, 2), (Matrix.zeros(2, 1),)), ShapeMismatch,
     r"differential 0 has shape \(2, 1\), expected \(1, 2\)"),
    (lambda: ChainComplex(0, (1, 1, 1), (Matrix.identity(1), Matrix.identity(1))),
     DifferentialSquareNonzero, "composition through degree 1 is nonzero"),
    (lambda: ChainComplex(0, (1, 2), (Matrix.zeros(2, 1),), raising=True), ShapeMismatch,
     r"differential 0 has shape \(2, 1\), expected \(1, 2\)"),
    (lambda: ChainComplex(0, (1, 1, 1), (Matrix.identity(1), Matrix.identity(1)),
                          raising=True),
     DifferentialSquareNonzero, "composition through degree 1 is nonzero"),
], ids=["basis_length", "convention", "trivial_dim", "diff_count", "diff_shape", "d_squared",
        "diff_shape_raising", "d_squared_raising"])
def test_constructor_checks_keep_their_messages(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_defaults():
    assert LeibnizAlgebra(1, ("x",), Matrix.zeros(1, 1)).convention == "left"
    assert ChainComplex(0, (1,), ()).raising is False
    assert TrivialCoefficients().dim == 1
    # labels default to a new dict per object, never a shared one
    a = DGLieAlgebra("a", {}, {}, {})
    b = DGLieAlgebra("b", {}, {}, {})
    a.labels[0] = ("x",)
    assert b.labels == {} and a.labels is not b.labels
    m, n = DGModule(a, {}, {}, {}), DGModule(a, {}, {}, {})
    assert m.labels == {} and m.labels is not n.labels


def test_fields_are_listed_in_constructor_order():
    for cls in CLASSES:
        params = list(inspect.signature(cls).parameters)
        if cls is Matrix:  # takes any rationals, stores canonical integer rows
            assert params == ["rows", "cols", "sparse_rows"]
            params[-1] = "int_rows"
        assert tuple(params) == cls.__match_args__, cls.__name__


def test_repr_names_every_field():
    assert repr(TrivialCoefficients(2)) == "TrivialCoefficients(dim=2)"
    assert repr(WeightVerdict(3, 2, 2, (0,))) == (
        "WeightVerdict(weight=3, h1=2, expected_h1=2, higher=(0,))")
    assert repr(Matrix.identity(1)) == "Matrix(rows=1, cols=1, int_rows=((1, ((0, 1),)),))"
    L = cone(LIE_CORPUS["r2"])
    assert repr(as_module(L)).startswith("DGModule(algebra=DGLieAlgebra(name='cone', ")
