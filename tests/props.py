"""Shared property-test bodies and strategies for the per-module test
files."""

from fractions import Fraction

from hypothesis import strategies as st


def coeff_strategy():
    return st.fractions(
        min_value=Fraction(-60), max_value=Fraction(60), max_denominator=24)


def element_vectors(degree):
    return st.lists(coeff_strategy(), min_size=degree, max_size=degree)


def check_ring_axioms(field, va, vb, vc):
    a, b, c = field.element(va), field.element(vb), field.element(vc)
    zero, one = field.zero(), field.one()
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == zero
    assert a * one == a
    assert a - b == a + (-b)
    if not b.is_zero():
        assert (a / b) * b == a
        assert (b * b.inverse()) == one
    # exact order behaves like an order
    assert (a * b).sign() == a.sign() * b.sign()
    assert (a - b).sign() in (-1, 0, 1)
    lt, eq, gt = a < b, a == b, a > b
    assert [lt, eq, gt].count(True) == 1
