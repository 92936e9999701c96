"""The exact rational linear-algebra helper against sympy as a reference:
rank, nullspace and the trace of a matrix restricted to an invariant
subspace, over small integer matrices."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pafix import linalg
from pafix.errors import InternalCheckError


def int_matrices(rows, cols):
    return st.lists(
        st.lists(st.integers(-3, 3), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)


@st.composite
def shaped_matrices(draw):
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    return draw(int_matrices(rows, cols))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    return draw(int_matrices(n, n))


def _fractions(vec):
    return [Fraction(int(x.p), int(x.q)) for x in vec]


@settings(max_examples=200, deadline=None)
@given(shaped_matrices())
def test_rank_and_nullspace_agree_with_sympy(rows):
    ref = sympy.Matrix(rows)
    _, pivots = linalg.rref(rows)
    assert len(pivots) == ref.rank()
    basis = linalg.nullspace(rows, len(rows[0]))
    # the same vectors in the same order: one per free column, so the
    # first is the dependency led by the first dependent column
    assert basis == [_fractions(v) for v in ref.nullspace()]
    for v in basis:
        assert not any(linalg.apply(rows, v))
    cols = linalg.columnspace(rows)
    assert cols == [_fractions(v) for v in ref.columnspace()]


@settings(max_examples=200, deadline=None)
@given(square_matrices())
def test_restricted_trace_agrees_with_sympy(phi):
    # the image and the kernel of phi are phi-invariant subspaces
    n = len(phi)
    ref = sympy.Matrix(phi)
    for basis in (linalg.columnspace(phi), linalg.nullspace(phi, n)):
        got = linalg.restricted_trace(phi, basis)
        if not basis:
            assert got == 0
            continue
        w = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                           for x in col] for col in basis]).T
        a = (w.T * w).solve(w.T * (ref * w))
        assert got == Fraction(str(a.trace()))


def test_restricted_trace_rejects_a_subspace_that_is_not_invariant():
    with pytest.raises(InternalCheckError, match="not invariant"):
        linalg.restricted_trace([[0, 1], [1, 0]], [[1, 0]])


def test_restricted_trace_rejects_a_dependent_basis():
    with pytest.raises(InternalCheckError, match="not independent"):
        linalg.restricted_trace([[1, 0], [0, 1]], [[1, 0], [2, 0]])
