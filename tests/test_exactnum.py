import doctest
import math
import os
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pafix.exactnum as exactnum
from pafix.errors import (
    DivisionByZero,
    FieldMismatch,
    MultipleRootsInInterval,
    NoRootInInterval,
    NotIrreducible,
    ParseError,
)
from pafix.exactnum import (
    RationalInterval,
    RealNumberField,
    count_real_roots,
    format_poly,
    parse_element,
    parse_poly,
)

import fracref
from fracref import RefField
from minpoly import element_minimal_polynomial
from props import check_ring_axioms, element_vectors


def golden_field():
    return RealNumberField.create([-1, -1, 1], 1, 2)  # x^2 - x - 1


def trace3_field():
    return RealNumberField.create([1, -3, 1], 2, 3)  # x^2 - 3x + 1


def rational_sqrt_bracket(n, bits):
    """Independent enclosure of sqrt(n) via integer square roots."""
    scaled = n << (2 * bits)
    s = math.isqrt(scaled)
    return Fraction(s, 1 << bits), Fraction(s + 1, 1 << bits)


class TestFieldCreation:
    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducible):
            RealNumberField.create([-1, 0, 1], 0, 2)  # x^2 - 1

    def test_no_root(self):
        with pytest.raises(NoRootInInterval):
            RealNumberField.create([1, -3, 1], 4, 5)

    def test_two_roots(self):
        with pytest.raises(MultipleRootsInInterval):
            RealNumberField.create([1, -3, 1], 0, 3)

    def test_empty_interval(self):
        with pytest.raises(ParseError):
            RealNumberField.create([-1, -1, 1], 2, 1)

    def test_constant_poly_rejected(self):
        with pytest.raises(ParseError):
            RealNumberField.create([5], 0, 1)

    def test_rational_coefficients_normalized(self):
        K = RealNumberField.create([Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)], 1, 2)
        assert K.minpoly == (-1, -1, 1)

    def test_degree_one_field(self):
        K = RealNumberField.create([-3, 2], 1, 2)  # 2x - 3
        g = K.gen()
        assert g.as_fraction() == Fraction(3, 2)
        assert (g * g).as_fraction() == Fraction(9, 4)
        with pytest.raises(NoRootInInterval):
            RealNumberField.create([-3, 2], 2, 5)


class TestArithmetic:
    def test_golden_identities(self):
        K = golden_field()
        phi = K.gen()
        assert phi * phi == phi + 1
        assert 1 / phi == phi - 1
        assert phi ** 2 - phi - 1 == K.zero()

    def test_trace_identity(self):
        K = trace3_field()
        lam = K.gen()
        assert lam + 1 / lam == K.rational(3)
        assert (1 / lam) == K.element([3, -1])

    def test_frozen_powers(self):
        # powers of the x^2-3x+1 root follow c0, c1 with odd-index
        # fibonacci-like growth; fifth power computed by hand
        lam = trace3_field().gen()
        assert (lam ** 3).coeffs == (Fraction(-3), Fraction(8))
        assert (lam ** 5).coeffs == (Fraction(-21), Fraction(55))
        assert (lam ** -1).coeffs == (Fraction(3), Fraction(-1))
        assert lam ** 0 == 1

    def test_division_by_zero(self):
        K = golden_field()
        with pytest.raises(DivisionByZero):
            K.one() / K.zero()
        with pytest.raises(DivisionByZero):
            K.zero().inverse()

    def test_mixed_rational_ops(self):
        lam = trace3_field().gen()
        assert 3 - lam == 1 / lam
        assert (lam * 2) / 2 == lam
        assert Fraction(1, 2) + lam - Fraction(1, 2) == lam

    def test_field_mismatch(self):
        K1 = RealNumberField.create([-2, 0, 1], 1, 2)
        K2 = RealNumberField.create([-3, 0, 1], 1, 2)
        with pytest.raises(FieldMismatch):
            K1.gen() + K2.gen()
        # sqrt 2 < sqrt 3 is plain from the float bounds, which are
        # disjoint, but the fields differ
        with pytest.raises(FieldMismatch):
            K1.gen() < K2.gen()

    def test_same_root_interoperates(self):
        K1 = RealNumberField.create([-1, -1, 1], 1, 2)
        K2 = RealNumberField.create([-1, -1, 1], Fraction(3, 2), Fraction(17, 10))
        assert K1 == K2
        assert K1.gen() + K2.gen() == 2 * K1.gen()

    def test_different_root_same_poly_rejected(self):
        small = RealNumberField.create([1, -3, 1], 0, 1)
        big = RealNumberField.create([1, -3, 1], 2, 3)
        assert small != big
        with pytest.raises(FieldMismatch):
            small.gen() + big.gen()
        # they are in fact each other's inverses, as rationals they differ
        assert small.gen().approx(20).hi < 1 < big.gen().approx(20).lo


class TestSignsAndApprox:
    def test_signs(self):
        K = trace3_field()
        lam = K.gen()
        assert lam.sign() == 1
        assert (lam - 3).sign() == -1
        assert (lam - 2).sign() == 1
        assert (lam * lam - 3 * lam + 1).sign() == 0
        assert K.zero().sign() == 0

    def test_comparisons(self):
        lam = trace3_field().gen()
        assert 2 < lam < 3
        assert lam >= lam
        assert not lam < lam
        assert abs(1 - lam) == lam - 1

    def test_approx_against_integer_sqrt(self):
        # phi = (1 + sqrt 5)/2, enclosed independently via isqrt
        phi = golden_field().gen()
        lo5, hi5 = rational_sqrt_bracket(5, 120)
        oracle_lo, oracle_hi = (1 + lo5) / 2, (1 + hi5) / 2
        box = phi.approx(100)
        assert box.width() <= Fraction(1, 2 ** 100)
        assert box.lo <= oracle_hi and oracle_lo <= box.hi

    def test_approx_rational_is_exact(self):
        K = golden_field()
        box = K.rational(Fraction(22, 7)).approx(200)
        assert box.lo == box.hi == Fraction(22, 7)

    def test_float_bounds(self):
        phi = golden_field().gen()
        lo, hi = phi.float_bounds()
        true = (1 + 5 ** 0.5) / 2
        assert lo <= true <= hi
        assert hi - lo < 1e-9

    def test_float_conversion(self):
        lam = trace3_field().gen()
        assert abs(float(lam) - (3 + 5 ** 0.5) / 2) < 1e-12


class TestIntervals:
    def test_validation(self):
        with pytest.raises(ValueError):
            RationalInterval(2, 1)


class TestRootCounting:
    def test_counts(self):
        assert count_real_roots([-2, 0, 1], 1, 2) == 1
        assert count_real_roots([-2, 0, 1], -2, 2) == 2
        assert count_real_roots([0, -2, 0, 1], -2, 2) == 3  # x^3 - 2x
        assert count_real_roots([1, 0, 1], -10, 10) == 0  # x^2 + 1

    def test_endpoint_root_rejected(self):
        with pytest.raises(ValueError):
            count_real_roots([-1, 1], 1, 2)


class TestMinimalPolynomials:
    def test_square_of_root(self):
        lam = trace3_field().gen()
        poly, box = element_minimal_polynomial(lam * lam)
        assert poly == (1, -7, 1)
        assert count_real_roots(poly, box.lo, box.hi) == 1
        # lam^2 is about 6.854
        assert box.lo > 6 and box.hi < 7

    def test_rational_element(self):
        K = golden_field()
        poly, box = element_minimal_polynomial(K.rational(Fraction(5, 3)))
        assert poly == (-5, 3)
        assert box.contains(Fraction(5, 3))

    def test_generator_recovers_minpoly(self):
        K = trace3_field()
        poly, _ = element_minimal_polynomial(K.gen())
        assert poly == K.minpoly

    def test_cubic_field_elements(self):
        K = RealNumberField.create([-2, 0, 0, 1], 1, 2)  # cube root of 2
        g = K.gen()
        assert element_minimal_polynomial(g * g)[0] == (-4, 0, 0, 1)
        # the first dependency, not a multiple of higher degree
        assert element_minimal_polynomial(g * g * g)[0] == (-2, 1)
        assert element_minimal_polynomial(g + 1)[0] == (-3, 3, -3, 1)


class TestIrreducibility:
    """The closed-form test for degree 2 and 3 against sympy."""

    @staticmethod
    def sympy_irreducible(coeffs):
        import sympy

        x = sympy.Symbol("x")
        return bool(sympy.Poly(list(reversed(coeffs)), x,
                               domain="QQ").is_irreducible)

    @pytest.mark.parametrize("coeffs", [
        (1, -3, 2),          # 2x^2 - 3x + 1 = (2x - 1)(x - 1)
        (-3, 2, -3, 2),      # (2x - 3)(x^2 + 1), root 3/2
        (6, -5, 1),          # (x - 2)(x - 3)
        (0, 1, 0, 5),        # x(5x^2 + 1)
        (-4, 12, -9),        # -(3x - 2)^2
        (1, -3, 1),          # irreducible quadratic
        (-2, 0, 0, 1),       # x^3 - 2
        (-1, -2, 0, 4),      # 4x^3 - 2x - 1, no rational root
    ])
    def test_pinned_cases(self, coeffs):
        assert exactnum._is_irreducible(coeffs) == self.sympy_irreducible(coeffs)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-12, 12), min_size=3, max_size=4).filter(
        lambda c: c[-1] != 0))
    def test_agrees_with_sympy(self, coeffs):
        assert exactnum._is_irreducible(tuple(coeffs)) \
            == self.sympy_irreducible(coeffs)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-9, 9).filter(bool), st.integers(-9, 9),
           st.lists(st.integers(-9, 9), min_size=2, max_size=3).filter(
               lambda c: c[-1] != 0))
    def test_products_with_a_rational_root_are_reducible(self, q, p, rest):
        # (q x - p) * rest: a rational root p/q, usually not an integer
        coeffs = [0] * (len(rest) + 1)
        for k, c in enumerate(rest):
            coeffs[k] -= p * c
            coeffs[k + 1] += q * c
        assert not exactnum._is_irreducible(tuple(coeffs))
        assert not self.sympy_irreducible(coeffs)


class TestParsing:
    def test_poly_round_trip(self):
        for text, coeffs in [
            ("x^2 - 3*x + 1", (1, -3, 1)),
            ("x - 1", (-1, 1)),
            ("2*x^3 + x", (0, 1, 0, 2)),
            ("-x^2 + 5", (-5, 0, 1)),  # normalized to positive leading term
        ]:
            assert parse_poly(text) == coeffs
            assert parse_poly(format_poly(coeffs, "x")) == coeffs

    def test_element_round_trip(self):
        K = trace3_field()
        for text in ["g", "-g", "2*g - 1/2", "0", "7/3", "g^2"]:
            el = parse_element(K, text)
            assert parse_element(K, str(el)) == el
        # high powers reduce
        assert parse_element(K, "g^2") == 3 * K.gen() - 1
        assert parse_element(K, "g*g") == parse_element(K, "g^2")

    def test_format_frozen(self):
        K = trace3_field()
        assert str(K.element([-1, 3])) == "3*g - 1"
        assert str(K.element([Fraction(1, 2), -1])) == "-g + 1/2"
        assert str(K.zero()) == "0"
        assert format_poly((1, -3, 1), "x") == "x^2 - 3*x + 1"

    def test_rejects_garbage(self):
        K = trace3_field()
        for bad in ["", "1.5", "g**2", "2 2", "y + 1", "g^-1", "3//2", "(g"]:
            with pytest.raises(ParseError):
                parse_element(K, bad)

    def test_whitespace_insensitive(self):
        K = trace3_field()
        assert parse_element(K, " 2*g-1 ") == parse_element(K, "2 * g - 1")


# (ascending minpoly, root bracket) of trace3_field(), x^3 - 2 and 2x - 3
PARSE_FIELDS = [((1, -3, 1), 2, 3), ((-2, 0, 0, 1), 1, 2), ((-3, 2), 1, 2)]
GARBAGE = ["", "1.5", "g**2", "2 2", "y + 1", "g^-1", "3//2", "(g",
           "1 . 5", "2*g +\t#", "1/0", "g/2/g", "2*", "- +", "g^"]


def _outcome(parse):
    """parse()'s value, or its ParseError message."""
    try:
        return "value", parse()
    except ParseError as exc:
        return "error", str(exc)


def _spaced(draw, tokens):
    """The tokens joined with random runs of whitespace, ends included."""
    space = st.text(alphabet=" \t", max_size=2)
    return "".join(draw(space) + tok for tok in tokens) + draw(space)


@st.composite
def polynomial_texts(draw, top_power=6):
    """Signed sums of products and quotients of digits and powers of g,
    powers repeated and above the field degree."""
    tokens = []
    for k in range(draw(st.integers(1, 6))):
        signs = draw(st.sampled_from(["", "+", "-", "--", "+-"]))
        if k and not signs:
            signs = "+"
        tokens += list(signs)
        factors = draw(st.lists(st.one_of(
            st.integers(0, 400).map(str),
            st.just("g"),
            st.integers(0, top_power).map("g^{}".format)), min_size=1, max_size=4))
        tokens.append(factors[0])
        for f in factors[1:]:
            if draw(st.booleans()):
                tokens += ["/", str(draw(st.integers(1, 30)))]
            tokens += ["*", f]
        if draw(st.booleans()):
            tokens += ["/", str(draw(st.integers(1, 30)))]
    return _spaced(draw, tokens)


@st.composite
def token_soup(draw):
    """Strings of valid and invalid tokens, exponents below 100."""
    pieces = ["g", "x", "y", "0", "3", "12", "^", "*", "/", "+", "-", "(",
              ")", ".", "**", "#"]
    text = _spaced(draw, draw(st.lists(st.sampled_from(pieces), max_size=8)))
    assume(all(int(e) < 100 for e in re.findall(r"\^\s*(\d+)", text)))
    return text


@pytest.mark.parametrize("poly, lo, hi", PARSE_FIELDS)
def test_parsers_agree_with_the_fraction_reference(poly, lo, hi):
    K = RealNumberField.create(poly, lo, hi)
    ref = RefField(poly, lo, hi)

    def check(text):
        assert (_outcome(lambda: parse_element(K, text).coeffs)
                == _outcome(lambda: ref.parse(text)))
        assert (_outcome(lambda: parse_poly(text, "g"))
                == _outcome(lambda: fracref.parse_poly(text, "g")))

    for text in GARBAGE:
        assert _outcome(lambda: ref.parse(text))[0] == "error"
        check(text)
    given(polynomial_texts(K.degree + 3) | token_soup())(
        settings(max_examples=200, deadline=None)(check))()


FIELD_FOR_PROPS = trace3_field()
RING_CASES = int(os.environ.get("PAFIX_RING_CASES", "1000"))


@settings(max_examples=RING_CASES, deadline=None)
@given(element_vectors(2), element_vectors(2), element_vectors(2))
def test_ring_axioms_quadratic(va, vb, vc):
    check_ring_axioms(FIELD_FOR_PROPS, va, vb, vc)


CUBIC_FIELD = RealNumberField.create([-2, 0, 0, 1], 1, 2)  # x^3 - 2


@settings(max_examples=max(RING_CASES // 4, 50), deadline=None)
@given(element_vectors(3), element_vectors(3), element_vectors(3))
def test_ring_axioms_cubic(va, vb, vc):
    check_ring_axioms(CUBIC_FIELD, va, vb, vc)


# (ascending minpoly, root bracket): monic and non-monic quadratics, each
# with its larger and its smaller root as generator, cubics, and a
# degree-one field
REFERENCE_FIELDS = [
    ((-1, -1, 1), 1, 2),  # golden x^2 - x - 1
    ((1, -3, 1), 2, 3),  # trace 3 x^2 - 3x + 1
    ((-1, -2, 2), 1, 2),  # non-monic 2x^2 - 2x - 1, root (1 + sqrt 3)/2
    ((-2, 0, 0, 1), 1, 2),  # x^3 - 2
    ((-1, -2, 0, 2), 1, 2),  # non-monic 2x^3 - 2x - 1
    ((-3, 2), 1, 2),  # 2x - 3
    ((1, -3, 1), 0, 1),  # x^2 - 3x + 1, smaller root (3 - sqrt 5)/2
    ((-1, -1, 1), -1, 0),  # x^2 - x - 1, smaller root (1 - sqrt 5)/2
    ((-1, -2, 2), -1, 0),  # 2x^2 - 2x - 1, smaller root (1 - sqrt 3)/2
]


def assert_matches_reference(ref, el, vec):
    assert el.coeffs == vec
    assert el.den > 0 and math.gcd(el.den, *el.num) == 1
    assert el.num == tuple(c * el.den for c in vec)
    assert hash(el) == ref.hash(vec)
    assert el.sign() == ref.sign(vec)


@pytest.mark.parametrize("poly, lo, hi", REFERENCE_FIELDS)
def test_integer_arithmetic_matches_fraction_reference(poly, lo, hi):
    K = RealNumberField.create(poly, lo, hi)
    ref = RefField(poly, lo, hi)
    d = K.degree

    @settings(max_examples=40, deadline=None)
    @given(element_vectors(d), element_vectors(d))
    def check(va, vb):
        a, b = K.element(va), K.element(vb)
        ra, rb = ref.vec(va), ref.vec(vb)
        assert_matches_reference(ref, a, ra)
        assert_matches_reference(ref, a + b, ref.add(ra, rb))
        assert_matches_reference(ref, a - b, ref.sub(ra, rb))
        assert_matches_reference(ref, -a, ref.sub(ref.vec([]), ra))
        assert_matches_reference(ref, a * b, ref.mul(ra, rb))
        assert_matches_reference(ref, a * a, ref.mul(ra, ra))
        if any(rb):
            assert_matches_reference(ref, b.inverse(), ref.inverse(rb))
            assert_matches_reference(ref, a / b, ref.div(ra, rb))
            # the field's quotient of a and b in other terms: scaled, and
            # over a negative den
            assert_matches_reference(ref, K.num_quotient(
                (*(6 * n for n in a.num), 6 * a.den),
                (*(-n for n in b.num), -b.den)), ref.div(ra, rb))
        assert (a == b) == (ra == rb)
        assert (a == a + 0) and hash(a) == hash(a + 0)

    check()


@pytest.mark.parametrize("poly, lo, hi",
                         [f for f in REFERENCE_FIELDS if len(f[0]) > 2])
def test_sign_near_zero_matches_fraction_reference(poly, lo, hi):
    # g - k/2^bits for the dyadic k/2^bits just below g, found by bisection
    # on the reference: the sign must refine the bracket to that precision
    K = RealNumberField.create(poly, lo, hi)
    ref = RefField(poly, lo, hi)
    for bits in (20, 60, 120):
        k_lo, k_hi = lo << bits, hi << bits
        while k_hi - k_lo > 1:
            mid = (k_lo + k_hi) // 2
            if ref.sign(ref.vec([-Fraction(mid, 2 ** bits), 1])) > 0:
                k_lo = mid
            else:
                k_hi = mid
        g = K.gen()
        assert (g - Fraction(k_lo, 2 ** bits)).sign() == 1
        assert (Fraction(k_hi, 2 ** bits) - g).sign() == 1
        near = g * g - g * Fraction(k_lo, 2 ** bits)  # g (g - k/2^bits)
        assert near.sign() == ref.sign(near.coeffs) == ref.sign(ref.vec([0, 1]))


def test_quadratic_sign_far_below_the_root_bracket():
    # g - k/2^6000 for k = floor(g * 2^6000), g the golden ratio: about
    # 2^-6000, so deciding it by bisection would need some 6000 bits of
    # bracket.  The quadratic sign is exact and leaves the bracket alone.
    import sympy

    K = golden_field()
    bits = 6000
    # g * 2^bits = (2^bits + sqrt(5 * 4^bits)) / 2
    k = ((1 << bits) + math.isqrt(5 << (2 * bits))) // 2
    q_before = K._q
    near = K.gen() - Fraction(k, 1 << bits)
    assert near.sign() == 1
    assert (K.gen() - Fraction(k + 1, 1 << bits)).sign() == -1
    assert K._q == q_before
    exact = (1 + sympy.sqrt(5)) / 2 - sympy.Rational(k, 1 << bits)
    assert sympy.sign(exact.evalf(30, maxn=25000)) == near.sign()


def test_docstrings():
    failures, _ = doctest.testmod(exactnum)
    assert failures == 0
