"""The exact rational linear-algebra helper against sympy as a reference:
rank, nullspace and the trace of a matrix on the quotient by an
invariant subspace, over small integer matrices; and the docstring
examples of the exact arithmetic modules."""

import doctest
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from pafix import exactnum, linalg
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


def _apply(rows, v):
    return [sum(a * b for a, b in zip(row, v)) for row in rows]


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
        assert not any(_apply(rows, v))


@st.composite
def invariant_quotients(draw):
    """A square matrix, a basis of its image or its kernel (both
    invariant), and the standard basis with a few drawn vectors as
    generators, so that some generators satisfy relations."""
    phi = draw(square_matrices())
    n = len(phi)
    ref = sympy.Matrix(phi)
    sub = ref.columnspace() if draw(st.booleans()) else ref.nullspace()
    gens = [[int(i == j) for j in range(n)] for i in range(n)]
    gens += draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                          max_size=2))
    return phi, [_fractions(v) for v in sub], draw(st.permutations(gens))


@settings(max_examples=200, deadline=None)
@given(invariant_quotients())
def test_quotient_trace_agrees_with_sympy(case):
    # the trace on the quotient is the full trace less the trace on the
    # invariant subspace, which sympy solves by least squares
    phi, sub, gens = case
    ref = sympy.Matrix(phi)
    images = [_apply(phi, g) for g in gens]
    want = ref.trace()
    if sub:
        w = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                           for x in col] for col in sub]).T
        want -= ((w.T * w).solve(w.T * (ref * w))).trace()
    assert linalg.quotient_trace(sub, gens, images) == Fraction(str(want))


def test_quotient_trace_rejects_generators_that_do_not_span():
    with pytest.raises(InternalCheckError, match="do not span"):
        linalg.quotient_trace([], [[1, 0]], [[1, 0]])


def test_quotient_trace_rejects_images_that_break_a_relation():
    # (1, 0) and (1, 1) agree modulo the y-axis, their images do not
    with pytest.raises(InternalCheckError, match="break a relation"):
        linalg.quotient_trace([[0, 1]], [[1, 0], [1, 1]], [[1, 0], [2, 0]])


def test_docstring_examples_run():
    for module in (linalg, exactnum):
        failed, attempted = doctest.testmod(module)
        assert attempted and not failed
