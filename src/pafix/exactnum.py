"""Exact arithmetic in real algebraic number fields.

A field is described by an integer polynomial, irreducible over the
rationals, together with a rational interval bracketing exactly one of its
real roots g.  Elements are polynomials in g of degree less than the field
degree d with rational coefficients, stored as d integer numerators over
one positive integer denominator in lowest terms, so that equal elements
have equal representations.

A quadratic field (d = 2) has closed forms, computed from constants the
field stores once.  With g^2 = (r0 + r1*g)/t and x = (x0 + x1*g)/den:

- sums and products are two integer numerators over one denominator,
  brought to lowest terms by one gcd;
- a quotient a/b of a = (a0 + a1*g)/ad by b = (b0 + b1*g)/bd, given as
  integer parts in any terms, is one integer product over ad*N by
  Cramer's rule on b's 2x2 multiplication matrix, N = t*b0^2 + r1*b0*b1 -
  r0*b1^2, brought to lowest terms by one gcd (`quad_quotient`);
- for the minimal polynomial c0 + c1*x + c2*x^2 (c2 > 0) with
  discriminant D, 2*c2*(x0 + x1*g) = A + B*sqrt(D) with A = 2*c2*x0 -
  c1*x1 and B = x1 or -x1 as g is the larger or the smaller root, so the
  sign is exact from the signs of A and B and, when they differ, from A^2
  against B^2*D (`quad_sign`).  The sign never touches the root bracket.

Every other degree takes the general route.  Products reduce the powers
g^d .. g^(2d-2) with an integer table over one common denominator (1 for
a monic polynomial), and quotients solve a linear system fraction-free
on the integer multiplication matrix.  The sign of an element is decided
by interval Horner evaluation on integers over the root bracket; while
the enclosure straddles zero, the bracket is *refined* by exact
bisection.  Approximations (approx, float_bounds) refine the bracket in
every degree.

The exact predicates of geom and saddle, and the comparisons here, are
written once on four numerator primitives of the field, methods of the
class that `RealNumberField.create` picks by the degree: a difference of
two elements and a cross x*w - y*z, both as integer numerators over one
denominator not brought to lowest terms, the exact sign of such
numerators, and the quotient of two of them as a reduced element.  A
predicate builds no element and reads no float; a construction builds
only its answer.

    >>> from pafix.exactnum import RealNumberField
    >>> K = RealNumberField.create([1, -3, 1], 2, 3)   # x^2 - 3x + 1, root ~2.618
    >>> lam = K.gen()
    >>> lam + 1/lam == K.rational(3)
    True
    >>> (lam * lam - 3 * lam + 1).is_zero()
    True
    >>> x = lam / 6
    >>> x.num, x.den
    ((0, 1), 6)

Coefficient sequences are ascending: ``[c0, c1, ..., cd]`` stands for
``c0 + c1*x + ... + cd*x^d``.

The refinement budgets (the module's _UPPER_CASE constants) stay beside
the refinement they cap, as the saddle, veering and fixcount budgets do,
so that a test patches each budget on the module whose loop reads it.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InternalCheckError,
    MultipleRootsInInterval,
    NoRootInInterval,
    NotIrreducible,
    ParseError,
)

Rat = Union[int, Fraction]

_ZERO = Fraction(0)
_HASH_MODULUS = sys.hash_info.modulus

# Bisections of a new field's root bracket.
_CREATE_BISECTIONS = 64
# Bisections made each time an enclosure is too wide to decide.
_ROUND_BISECTIONS = 16
# Enclosure rounds a sign or an approximation may take before giving up.
# Signs in degree 2 take none: there it caps approximations only.
_MAX_ROUNDS = 300


# ---------------------------------------------------------------------------
# polynomial helpers over Fraction, ascending coefficient order


def _strip(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple:
    # b must be nonzero
    rem = list(a)
    quo = [_ZERO] * max(0, len(a) - len(b) + 1)
    db, lead = len(b) - 1, b[-1]
    while len(rem) - 1 >= db and rem:
        shift = len(rem) - 1 - db
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        _strip(rem)
    return _strip(quo), rem


def _poly_deriv(a: Sequence[Fraction]) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _poly_eval(a: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _sign_variations(values: Iterable[Fraction]) -> int:
    count, prev = 0, 0
    for v in values:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _sturm_chain(p: Sequence[Fraction]) -> list:
    chain = [list(p), _poly_deriv(p)]
    while chain[-1]:
        _, rem = _poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def count_real_roots(coeffs: Sequence[Rat], lo: Rat, hi: Rat) -> int:
    """Number of distinct real roots of the polynomial in the open interval
    (lo, hi).  Endpoints must not be roots."""
    p = _strip([Fraction(c) for c in coeffs])
    lo, hi = Fraction(lo), Fraction(hi)
    if _poly_eval(p, lo) == 0 or _poly_eval(p, hi) == 0:
        raise ValueError("interval endpoint is a root")
    chain = _sturm_chain(p)
    va = _sign_variations(_poly_eval(q, lo) for q in chain)
    vb = _sign_variations(_poly_eval(q, hi) for q in chain)
    return va - vb


# ---------------------------------------------------------------------------
# integer helpers


def _enclose(num: Sequence[int], a: int, b: int, q: int) -> tuple:
    """Interval Horner on integers: (lo, hi) with lo <= q^(n-1) * p(x) <= hi
    for every x in [a/q, b/q], where p has the n ascending integer
    coefficients ``num`` and q > 0.  Exact when a == b."""
    it = reversed(num)
    lo = hi = next(it)
    scale = 1
    for c in it:
        scale *= q
        c *= scale
        if lo == hi:
            p1, p2 = lo * a, lo * b
            if p1 > p2:
                p1, p2 = p2, p1
            lo, hi = p1 + c, p2 + c
        else:
            p = (lo * a, lo * b, hi * a, hi * b)
            lo, hi = min(p) + c, max(p) + c
    return lo, hi


def quad_sign(field: "RealNumberField", s: Sequence[int]) -> int:
    """num_sign of a quadratic field: the exact sign of x0 + x1*g for the
    integers x0, x1 that open s, a numerator tuple or a flat one (n0, n1,
    den) whose den is not read.

    2*c2*(x0 + x1*g) = a + b*sqrt(D) with a = 2*c2*x0 - c1*x1 and b = x1
    or -x1 as g is the larger or the smaller root: the sign is that of b
    when a is 0 or has b's sign, and otherwise that of the larger of a^2
    and b^2*D."""
    x0, x1 = s[0], s[1]
    if not x1:
        return (x0 > 0) - (x0 < 0)
    quad = field._quad
    a = quad[4] * x0 - quad[3] * x1
    b = x1 * quad[5]
    if (a > 0) == (b > 0) or not a or a * a < b * b * quad[6]:
        return 1 if b > 0 else -1
    return 1 if a > 0 else -1


def quad_quotient(field: "RealNumberField", a: tuple,
                  b: tuple) -> "FieldElement":
    """num_quotient of a quadratic field: the element a/b, for the flat
    tuples a = (a0, a1, ad) and b = (b0, b1, bd) of (a0 + a1*g)/ad and a
    nonzero (b0 + b1*g)/bd, ad and bd nonzero and neither brought to
    lowest terms: one integer product, reduced once.

    With g^2 = (r0 + r1*g)/t, Cramer's rule on b's multiplication matrix
    gives (b0 + b1*g) * ((t*b0 + r1*b1) - t*b1*g) = N, N = t*b0^2 +
    r1*b0*b1 - r0*b1^2, which is t times the field norm and nonzero for a
    nonzero b.  Multiplied by a0 + a1*g, the factor t cancels:
    a/b = bd*((t*a0*b0 + r1*a0*b1 - r0*a1*b1) + t*(a1*b0 - a0*b1)*g)
    / (ad*N)."""
    a0, a1, ad = a
    b0, b1, bd = b
    r0, r1, t = field._quad[:3]
    norm = t * b0 * b0 + r1 * b0 * b1 - r0 * b1 * b1
    if norm == 0:
        if not (b0 or b1):
            raise DivisionByZero("zero has no inverse")
        raise InternalCheckError(
            "multiplication matrix of a nonzero element is singular")
    den = ad * norm
    if den < 0:
        den, bd = -den, -bd
    return _reduced2(field, bd * (t * a0 * b0 + r1 * a0 * b1 - r0 * a1 * b1),
                     bd * t * (a1 * b0 - a0 * b1), den)


def _cross2(field: "RealNumberField", x: tuple, y: tuple, z: tuple,
            w: tuple) -> tuple:
    """num_cross of a quadratic field: x*w - y*z for the flat tuples x =
    (x0, x1, xd) of (x0 + x1*g)/xd and likewise y, z, w, every den
    positive, as a flat tuple (n0, n1, den), den > 0, not brought to
    lowest terms.

    Over the denominator xd*wd*yd*zd (xd*wd alone when it equals yd*zd),
    x*w - y*z is X*W - Y*Z with X = x's numerator times yd*zd and Y = y's
    times xd*wd.  With g^2 = (r0 + r1*g)/t, t times that is the integer
    pair below, over that denominator times t."""
    x0, x1, xd = x
    y0, y1, yd = y
    z0, z1, zd = z
    w0, w1, wd = w
    dp, dq = xd * wd, yd * zd
    if dp != dq:
        x0, x1, y0, y1 = x0 * dq, x1 * dq, y0 * dp, y1 * dp
        dp *= dq
    quad = field._quad
    r0, r1, t = quad[0], quad[1], quad[2]
    m = x1 * w1 - y1 * z1
    return (t * (x0 * w0 - y0 * z0) + r0 * m,
            t * (x0 * w1 + x1 * w0 - y0 * z1 - y1 * z0) + r1 * m, dp * t)


def _sub2(p: "FieldElement", q: "FieldElement") -> tuple:
    """num_sub of a quadratic field: p - q as a flat tuple (n0, n1, den),
    den > 0, not brought to lowest terms."""
    (p0, p1), pd = p.num, p.den
    (q0, q1), qd = q.num, q.den
    if pd == qd:
        return p0 - q0, p1 - q1, pd
    return p0 * qd - q0 * pd, p1 * qd - q1 * pd, pd * qd


def _sub(p: "FieldElement", q: "FieldElement") -> tuple:
    """num_sub: p - q as a flat tuple (n0, .., n_(d-1), den), den > 0, not
    brought to lowest terms."""
    pd, qd = p.den, q.den
    if pd == qd:
        return (*[a - b for a, b in zip(p.num, q.num)], pd)
    return (*[a * qd - b * pd for a, b in zip(p.num, q.num)], pd * qd)


def _reduced(field: "RealNumberField", num: list, den: int) -> "FieldElement":
    """The element num/den in lowest terms; den must be positive."""
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return FieldElement(field, tuple(num), den)


def _reduced2(field: "RealNumberField", n0: int, n1: int,
              den: int) -> "FieldElement":
    """_reduced for a quadratic field: the element (n0 + n1*g)/den."""
    g = math.gcd(den, n0, n1)
    if g != 1:
        n0 //= g
        n1 //= g
        den //= g
    return FieldElement(field, (n0, n1), den)


# ---------------------------------------------------------------------------
# rational intervals


class RationalInterval:
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: Rat) -> bool:
        return self.lo <= x <= self.hi

    def __repr__(self):
        return f"RationalInterval({self.lo}, {self.hi})"


# ---------------------------------------------------------------------------
# fields


def _normalize_minpoly(coeffs: Sequence[Rat]) -> tuple:
    """Clear denominators, remove content, force positive leading term."""
    fracs = _strip([Fraction(c) for c in coeffs])
    if len(fracs) < 2:
        raise ParseError("defining polynomial must have degree at least 1")
    denom_lcm = 1
    for c in fracs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in fracs]
    content = 0
    for c in ints:
        content = math.gcd(content, c)
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(ints)


def _is_irreducible(int_coeffs: tuple) -> bool:
    """Irreducibility over Q of an integer polynomial (ascending).

    Up to degree 3 a factorization has a linear factor, so the
    polynomial is reducible exactly when it has a rational root: for a
    quadratic, when its discriminant is a square.  Neither test factors
    anything; sympy is imported only for degree 4 and up."""
    d = len(int_coeffs) - 1
    if d == 1:
        return True
    if d == 2:
        c0, c1, c2 = int_coeffs
        disc = c1 * c1 - 4 * c0 * c2
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    if d == 3:
        return not _has_rational_root(int_coeffs)
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(int_coeffs)), x, domain="QQ")
    return bool(poly.is_irreducible)


def _has_rational_root(c: Sequence[int]) -> bool:
    """Does the integer polynomial c0 + .. + cd x^d have a rational root?

    For a root r, lead*r is an integer (lead = cd): it is a root of the
    monic integer polynomial lead^(d-1) p(x/lead).  Its integer roots lie
    in [-B, B] for Cauchy's bound B, which is bisected with Sturm counts
    taken at half-integers, never roots of a monic integer polynomial,
    down to single integers that are evaluated exactly."""
    d, lead = len(c) - 1, c[-1]
    q = [ck * lead ** (d - 1 - k) for k, ck in enumerate(c[:-1])] + [1]
    chain = _sturm_chain([Fraction(x) for x in q])

    def variations(x):
        return _sign_variations(_poly_eval(p, x) for p in chain)

    half = Fraction(1, 2)
    bound = 1 + max(abs(x) for x in q[:-1])
    todo = [(-bound, bound)]
    while todo:
        lo, hi = todo.pop()
        if variations(lo - half) == variations(hi + half):
            continue
        if lo == hi:
            if _poly_eval(q, lo) == 0:
                return True
            continue
        mid = (lo + hi) // 2
        todo += [(lo, mid), (mid + 1, hi)]
    return False


def _reduction_table(coeffs: tuple) -> tuple:
    """Integer rows T and a denominator t with g^(d+j) = T[j] . (1, g, ..,
    g^(d-1)) / t for j = 0 .. d-2, in lowest terms over the whole table."""
    d = len(coeffs) - 1
    lead = coeffs[-1]
    base = [-c for c in coeffs[:-1]]  # g^d = base / lead
    rows, cur = [], base
    for _ in range(d - 1):
        rows.append(cur)
        # g * cur: shift up, then replace g^d by base / lead
        top = cur[-1]
        cur = [top * b + lead * c for b, c in zip(base, [0] + cur[:-1])]
    # row j has denominator lead^(j+1); bring all to lead^(d-1)
    den = lead ** (d - 1)
    rows = [[c * lead ** (d - 2 - j) for c in row] for j, row in enumerate(rows)]
    g = math.gcd(den, *(c for row in rows for c in row))
    return tuple(tuple(c // g for c in row) for row in rows), den // g


class RealNumberField:
    """A real algebraic number field Q(g), g the unique root of the defining
    polynomial inside the bracketing interval.

    The bracket is kept as integers (a/q, b/q) with q > 0 and only ever
    shrinks.  Instances with the same defining polynomial and the same root
    compare equal and interoperate; their elements can be mixed freely.

    The numerator primitives work on flat tuples (n0, .., n_(d-1), den)
    of sum(n_i * g^i)/den with den > 0, in any terms:

    - ``num_sub(p, q)``: p - q for elements p and q, as a flat tuple;
    - ``num_cross(x, y, z, w)``: x*w - y*z for flat tuples, as one;
    - ``num_sign(s)``: the exact sign of the value whose numerators open
      s, a flat tuple or an element's ``num``;
    - ``num_quotient(a, b)``: a/b for flat tuples, b nonzero, as a reduced
      element.

    The methods below are the general forms: `_sub`, two `_mul_num`
    products, interval Horner over the root bracket, and a fraction-free
    solve.  `create` makes a quadratic field a `_QuadraticField`, whose
    primitives are the closed forms `_sub2`, `_cross2`, `quad_sign` and
    `quad_quotient` on the constants ``_quad``: the reduction row and
    denominator (r0, r1, t) of g^2 = (r0 + r1*g)/t, then c1 and 2*c2 of
    the minimal polynomial, +1 or -1 as g is its larger or smaller root,
    and its discriminant.  Its sums and products read them too.  ``_quad``
    is None in every other degree.  No module but this one reads
    ``_quad``, so the degree picks the arithmetic here and nowhere else.
    The primitives are methods of the class, not callables kept on the
    field, so that a field holds no reference to itself and reference
    counting alone frees it.
    """

    __slots__ = ("minpoly", "_a", "_b", "_q", "_table", "_table_den", "_quad",
                 "_equal_ids", "declared_interval", "__weakref__")

    def __init__(self, *args, **kwargs):
        raise TypeError("use RealNumberField.create(...)")

    @classmethod
    def create(cls, minpoly: Sequence[Rat], lo: Rat, hi: Rat) -> "RealNumberField":
        """Build a field from ascending coefficients and a root bracket.

        Raises NotIrreducible, NoRootInInterval, or MultipleRootsInInterval
        when the data does not pin down a single root of an irreducible
        polynomial.
        """
        coeffs = _normalize_minpoly(minpoly)
        lo, hi = Fraction(lo), Fraction(hi)
        if lo >= hi:
            raise ParseError("root interval is empty")
        if not _is_irreducible(coeffs):
            raise NotIrreducible(
                "polynomial %s factors over the rationals" % format_poly(coeffs, "x"))

        self = object.__new__(_QuadraticField if len(coeffs) == 3 else cls)
        self.minpoly = coeffs
        self._equal_ids = {id(self)}
        self.declared_interval = (lo, hi)

        if len(coeffs) == 2:
            # rational "field": the root is exact
            root = Fraction(-coeffs[0], coeffs[1])
            if not (lo < root < hi):
                raise NoRootInInterval("root %s not in (%s, %s)" % (root, lo, hi))
            self._a = self._b = root.numerator
            self._q = root.denominator
        else:
            # irreducible of degree >= 2 has no rational roots, so rational
            # endpoints are never roots and open/closed does not matter
            n = count_real_roots(coeffs, lo, hi)
            if n == 0:
                raise NoRootInInterval(
                    "no root of %s in (%s, %s)" % (format_poly(coeffs, "x"), lo, hi))
            if n > 1:
                raise MultipleRootsInInterval(
                    "%d roots of %s in (%s, %s)"
                    % (n, format_poly(coeffs, "x"), lo, hi))
            q = math.lcm(lo.denominator, hi.denominator)
            self._a, self._b, self._q = int(lo * q), int(hi * q), q
            self._refine(_CREATE_BISECTIONS)

        self._table, self._table_den = _reduction_table(coeffs)
        self._quad = None
        if len(coeffs) == 3:
            c0, c1, c2 = coeffs
            (r0, r1), = self._table
            # c2 > 0, so the polynomial is negative between its roots: the
            # bracket's lower end lies there exactly when g is the larger
            larger = _enclose(coeffs, self._a, self._a, self._q)[0] < 0
            self._quad = (r0, r1, self._table_den, c1, 2 * c2,
                          1 if larger else -1, c1 * c1 - 4 * c0 * c2)
        return self

    # -- basic data ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def _bracket(self) -> tuple:
        return Fraction(self._a, self._q), Fraction(self._b, self._q)

    def _refine(self, steps: int) -> None:
        a, b, q = self._a, self._b, self._q
        if a == b:
            return
        p = self.minpoly
        positive_at_a = _enclose(p, a, a, q)[0] > 0
        for _ in range(steps):
            mid, q = a + b, 2 * q
            v = _enclose(p, mid, mid, q)[0]
            if v == 0:
                raise InternalCheckError("rational root of irreducible polynomial")
            if (v > 0) == positive_at_a:
                a, b = mid, 2 * b
            else:
                a, b = 2 * a, mid
        self._a, self._b, self._q = a, b, q

    def _mul_num(self, x: Sequence[int], y: Sequence[int]) -> list:
        """Integer numerators of x*y over the denominator ``_table_den``,
        for numerator tuples x and y of two elements."""
        d = len(x)
        raw = [0] * (2 * d - 1)
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y, i):
                    raw[j] += xi * yj
        t = self._table_den
        out = raw[:d] if t == 1 else [c * t for c in raw[:d]]
        for c, row in zip(raw[d:], self._table):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return out

    # -- numerator primitives, general forms ----------------------------------

    num_sub = staticmethod(_sub)

    def num_cross(self, x: tuple, y: tuple, z: tuple, w: tuple) -> tuple:
        """x*w - y*z over xd*wd*yd*zd*t (xd*wd*t when xd*wd =
        yd*zd), t the table denominator, from two `_mul_num` products."""
        dp, dq = x[-1] * w[-1], y[-1] * z[-1]
        xn, yn = x[:-1], y[:-1]
        if dp != dq:
            xn, yn = [c * dq for c in xn], [c * dp for c in yn]
            dp *= dq
        return (*[a - b for a, b in zip(self._mul_num(xn, w[:-1]),
                                        self._mul_num(yn, z[:-1]))],
                dp * self._table_den)

    def num_sign(self, s: Sequence[int]) -> int:
        """The sign of sum(s[i] * g^i), i < d, by interval Horner
        over the root bracket a/q < g < b/q.  It is decided once the
        enclosure of q^(d-1) times the value excludes zero; otherwise the
        bracket is bisected further, for at most _MAX_ROUNDS rounds."""
        num = s[:len(self.minpoly) - 1]
        if not any(num[1:]):
            c = num[0]
            return (c > 0) - (c < 0)
        for _ in range(_MAX_ROUNDS):
            lo, hi = _enclose(num, self._a, self._b, self._q)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._refine(_ROUND_BISECTIONS)
        raise InternalCheckError(
            "sign of nonzero element did not resolve within _MAX_ROUNDS = %d "
            "rounds of %d bisections" % (_MAX_ROUNDS, _ROUND_BISECTIONS))

    def num_quotient(self, a: tuple, b: tuple) -> "FieldElement":
        """a/b for a = an/ad and b = bn/bd, fraction free.

        Column j of the integer matrix M is t * bn * g^j, t the table
        denominator, so M y = t * bd * an means y * bn = bd * an, and a/b
        = y/ad.  Fraction-free Gauss-Jordan elimination on [M | rhs]
        leaves the last pivot p = +-det(M) on the diagonal and p * y in
        the last column; every division in it is exact."""
        *an, ad = a
        *bn, bd = b
        if not any(bn):
            raise DivisionByZero("zero has no inverse")
        d, t = len(bn), self._table_den
        cols = [self._mul_num(bn, (0,) * j + (1,) + (0,) * (d - 1 - j))
                for j in range(d)]
        rows = [[col[i] for col in cols] + [t * bd * an[i]] for i in range(d)]
        prev = 1
        for k in range(d):
            sel = next((r for r in range(k, d) if rows[r][k]), None)
            if sel is None:
                raise InternalCheckError(
                    "multiplication matrix of a nonzero element is singular")
            rows[k], rows[sel] = rows[sel], rows[k]
            pivot_row = rows[k]
            p = pivot_row[k]
            for i in range(d):
                if i != k:
                    f = rows[i][k]
                    rows[i] = [(p * x - f * y) // prev
                               for x, y in zip(rows[i], pivot_row)]
            prev = p
        out, den = [row[d] for row in rows], prev * ad
        if den < 0:
            out, den = [-c for c in out], -den
        return _reduced(self, out, den)

    # -- element constructors -----------------------------------------------

    def element(self, coeffs: Sequence[Rat]) -> "FieldElement":
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            raise ParseError(
                "coefficient vector longer than field degree %d" % self.degree)
        vec += [_ZERO] * (self.degree - len(vec))
        den = math.lcm(*(c.denominator for c in vec))
        return _reduced(self, [c.numerator * (den // c.denominator) for c in vec], den)

    def rational(self, value: Rat) -> "FieldElement":
        if value.__class__ is int:
            return FieldElement(self, (value,) + (0,) * (self.degree - 1), 1)
        value = Fraction(value)
        return FieldElement(self, (value.numerator,) + (0,) * (self.degree - 1),
                            value.denominator)

    def zero(self) -> "FieldElement":
        return self.rational(0)

    def one(self) -> "FieldElement":
        return self.rational(1)

    def gen(self) -> "FieldElement":
        if self.degree == 1:
            return FieldElement(self, (self._a,), self._q)
        return FieldElement(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def coerce(self, value) -> "FieldElement":
        if isinstance(value, FieldElement):
            if not self._same_field(value.field):
                raise FieldMismatch("element belongs to a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return self.rational(value)
        raise TypeError("cannot coerce %r into the field" % (value,))

    # -- identity -----------------------------------------------------------

    def _same_field(self, other: "RealNumberField") -> bool:
        if other is self or id(other) in self._equal_ids:
            return True
        if not isinstance(other, RealNumberField) or other.minpoly != self.minpoly:
            return False
        (s_lo, s_hi), (o_lo, o_hi) = self._bracket(), other._bracket()
        if self.degree == 1:
            same = s_lo == o_lo
        else:
            # both intervals bracket exactly one root; same root iff the
            # overlap still holds one
            if s_lo >= o_hi or o_lo >= s_hi:
                same = False
            else:
                lo, hi = max(s_lo, o_lo), min(s_hi, o_hi)
                same = count_real_roots(self.minpoly, lo, hi) == 1
        if same:
            self._equal_ids.add(id(other))
            other._equal_ids.add(id(self))
        return same

    def __eq__(self, other):
        return isinstance(other, RealNumberField) and self._same_field(other)

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return "RealNumberField(%s, root in (%s, %s))" % (
            (format_poly(self.minpoly, "x"),) + self._bracket())


class _QuadraticField(RealNumberField):
    """A quadratic field, whose numerator primitives are the closed forms
    on its constants ``_quad``."""

    __slots__ = ()

    num_sub = staticmethod(_sub2)
    num_cross = _cross2
    num_sign = quad_sign
    num_quotient = quad_quotient


class FieldElement:
    """Immutable element of a RealNumberField: sum(num[i] * g^i) / den.

    ``num`` is a tuple of field-degree many ints and ``den`` a positive int
    with gcd(den, *num) == 1, so equality is a tuple compare.  ``coeffs``
    gives the same element as a tuple of Fractions, built on first use.

    ``sign`` is the field's numerator sign of ``num``, and the
    comparisons take that sign of the cross-multiplied numerators of the
    two elements (`RealNumberField.num_sub`), in every degree; neither
    reads ``float_bounds`` or calls ``sign``.  Inverses are the field's
    quotient of 1 by the element.  In a quadratic field, sums and
    products use the closed forms in the module docstring.
    """

    __slots__ = ("field", "num", "den", "_coeffs", "_fb")

    def __init__(self, field: RealNumberField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den
        self._coeffs = None
        self._fb = None

    @property
    def coeffs(self) -> tuple:
        """The coefficients as a tuple of Fractions, ascending in g."""
        c = self._coeffs
        if c is None:
            den = self.den
            c = tuple(Fraction(n, den) for n in self.num)
            self._coeffs = c
        return c

    # -- coercion -----------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and not self.field._same_field(other.field):
                raise FieldMismatch(
                    "cannot combine elements of %r and %r" % (self.field, other.field))
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        return None

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        """The exact rational value; raises ValueError if irrational."""
        if not self.is_rational():
            raise ValueError("element is not rational: %s" % self)
        return Fraction(self.num[0], self.den)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            o = other
        else:
            o = self._pair(other)
            if o is None:
                return NotImplemented
        field, da, db = self.field, self.den, o.den
        if field._quad is not None:
            a0, a1 = self.num
            b0, b1 = o.num
            if da == db:
                return _reduced2(field, a0 + b0, a1 + b1, da)
            return _reduced2(field, a0 * db + b0 * da, a1 * db + b1 * da, da * db)
        if da == db:
            return _reduced(field, [a + b for a, b in zip(self.num, o.num)], da)
        return _reduced(field,
                        [a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            o = other
        else:
            o = self._pair(other)
            if o is None:
                return NotImplemented
        field, da, db = self.field, self.den, o.den
        if field._quad is not None:
            a0, a1 = self.num
            b0, b1 = o.num
            if da == db:
                return _reduced2(field, a0 - b0, a1 - b1, da)
            return _reduced2(field, a0 * db - b0 * da, a1 * db - b1 * da, da * db)
        if da == db:
            return _reduced(field, [a - b for a, b in zip(self.num, o.num)], da)
        return _reduced(field,
                        [a * db - b * da for a, b in zip(self.num, o.num)], da * db)

    def __rsub__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            o = other
        else:
            o = self._pair(other)
            if o is None:
                return NotImplemented
        field = self.field
        quad = field._quad
        if quad is not None:
            r0, r1, t = quad[0], quad[1], quad[2]
            a0, a1 = self.num
            b0, b1 = o.num
            top = a1 * b1  # the coefficient of g^2
            return _reduced2(field, t * a0 * b0 + top * r0,
                             t * (a0 * b1 + a1 * b0) + top * r1,
                             self.den * o.den * t)
        return _reduced(field, field._mul_num(self.num, o.num),
                        self.den * o.den * field._table_den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("zero has no inverse")
        field, num, den = self.field, self.num, self.den
        d = len(num)
        if self.is_rational():
            s = 1 if num[0] > 0 else -1
            return FieldElement(field, (s * den,) + (0,) * (d - 1), s * num[0])
        return field.num_quotient((1,) + (0,) * (d - 1) + (1,), (*num, den))

    def __truediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order ---------------------------------------------------------------

    def sign(self) -> int:
        """Exact sign: -1, 0, or +1."""
        return self.field.num_sign(self.num)

    def _enclosure(self, bits: int) -> tuple:
        """Integers (lo, hi, scale), scale > 0, with lo/scale <= self <=
        hi/scale and (hi - lo)/scale <= 2**-bits."""
        if self.is_rational():
            return self.num[0], self.num[0], self.den
        field = self.field
        for _ in range(_MAX_ROUNDS):
            lo, hi = _enclose(self.num, field._a, field._b, field._q)
            scale = self.den * field._q ** (len(self.num) - 1)
            if (hi - lo) << bits <= scale:
                return lo, hi, scale
            field._refine(_ROUND_BISECTIONS)
        raise InternalCheckError(
            "enclosure did not reach 2**-%d within _MAX_ROUNDS = %d rounds of "
            "%d bisections" % (bits, _MAX_ROUNDS, _ROUND_BISECTIONS))

    def approx(self, bits: int = 53) -> RationalInterval:
        """Rational enclosure of width at most 2**-bits."""
        lo, hi, scale = self._enclosure(bits)
        return RationalInterval(Fraction(lo, scale), Fraction(hi, scale))

    def float_bounds(self) -> tuple:
        """Cached conservative float enclosure (lo, hi), lo <= self <= hi.

        Only geom.float_box, the float box prefilter, and the float seed
        of saddle._floor_ratio, which exact signs then correct, read it;
        no exact answer depends on it.  Each end is an end of the 2**-40
        rational enclosure, taken as a correctly rounded integer quotient
        and moved one float outward; a rational's enclosure is itself, read
        without _enclosure."""
        fb = self._fb
        if fb is None:
            if self.is_rational():
                lo = hi = self.num[0]
                scale = self.den
            else:
                lo, hi, scale = self._enclosure(40)
            fb = (math.nextafter(lo / scale, -math.inf),
                  math.nextafter(hi / scale, math.inf))
            self._fb = fb
        return fb

    def __float__(self):
        return float(self.approx(60).midpoint())

    def __eq__(self, other):
        o = self._pair(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def _compare(self, other):
        """sign(self - other), or None when other is not a number: the
        field's numerator sign of the cross-multiplied numerators."""
        if other.__class__ is FieldElement and other.field is self.field:
            o = other
        else:
            o = self._pair(other)
            if o is None:
                return None
        field = self.field
        return field.num_sign(field.num_sub(self, o))

    def __lt__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._compare(other)
        return NotImplemented if c is None else c >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __hash__(self):
        # The hash of (minpoly, coeffs), without building Fractions:
        # Fraction(n, den) hashes like the int n * den^-1 mod the hash
        # modulus whenever den has that inverse (a Fraction with
        # denominator 1 hashes like its int).
        den = self.den
        if den == 1:
            key = self.num
        else:
            try:
                dinv = pow(den, -1, _HASH_MODULUS)
            except ValueError:
                key = self.coeffs
            else:
                key = tuple([n * dinv for n in self.num])
        return hash((self.field.minpoly, key))

    def __repr__(self):
        return format_element(self)

    __str__ = __repr__


# ---------------------------------------------------------------------------
# parsing and formatting


# one match per token: optional whitespace, then a number, a name or an
# operator; where no token starts, the catch-all group takes the text from
# there to the next non-space character, whose first character is the one
# the error names
_TOKEN_RE = re.compile(
    r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\+|-|\*|/|\(|\))|(\s*\S)")


def _tokenize(text: str) -> list:
    text = text.strip()
    found = _TOKEN_RE.findall(text)
    tokens = [tok for tok, _ in found if tok]
    if len(tokens) < len(found):
        bad = next(rest for _, rest in found if rest)
        raise ParseError("unexpected character %r in %r" % (bad[0], text))
    return tokens


def _parse_poly(text: str, var: str) -> list:
    """Parse a sum of terms like '3*x^2 - x/2 + 5' into ascending
    coefficients, each an integer pair (num, den) with den > 0, not in
    lowest terms, and no zero coefficient last.  Only the single variable
    `var` is allowed.

    A term's digit factors multiply num and its /k factors multiply den;
    terms on the same power add by cross-multiplying."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    coeffs: dict = {}
    i = 0
    n = len(tokens)

    def fail(msg):
        raise ParseError("%s in %r" % (msg, text))

    first = True
    while i < n:
        sign = 1
        saw_sign = False
        while i < n and tokens[i] in "+-":
            saw_sign = True
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if not first and not saw_sign:
            fail("missing operator between terms")
        first = False
        num, den = sign, 1
        power = 0
        saw_factor = False
        expect_factor = True
        while i < n and (expect_factor or tokens[i] in ("*", "/")):
            op = None
            if tokens[i] in ("*", "/") and saw_factor:
                op = tokens[i]
                i += 1
                if i >= n:
                    fail("dangling operator")
            tok = tokens[i]
            if tok.isdigit():
                val = int(tok)
                i += 1
                if op == "/":
                    if val == 0:
                        fail("division by zero")
                    den *= val
                else:
                    num *= val
            elif tok == var:
                if op == "/":
                    fail("cannot divide by the generator")
                i += 1
                p = 1
                if i < n and tokens[i] == "^":
                    i += 1
                    if i >= n or not tokens[i].isdigit():
                        fail("exponent must be a nonnegative integer")
                    p = int(tokens[i])
                    i += 1
                power += p
            else:
                if op is not None:
                    fail("unexpected token %r" % tok)
                break
            saw_factor = True
            expect_factor = False
        if not saw_factor:
            fail("empty term")
        old = coeffs.get(power)
        if old is None:
            coeffs[power] = (num, den)
        elif old[1] == den:
            coeffs[power] = (old[0] + num, den)
        else:
            coeffs[power] = (old[0] * den + num * old[1], old[1] * den)
    out = [coeffs.get(k, (0, 1)) for k in range(max(coeffs) + 1)]
    while out and not out[-1][0]:
        out.pop()
    return out


def parse_poly(text: str, var: str = "x") -> tuple:
    """Parse an integer-coefficient polynomial; returns normalized ascending
    integer coefficients."""
    return _normalize_minpoly([Fraction(n, d) for n, d in _parse_poly(text, var)])


def parse_element(field: RealNumberField, text: str) -> FieldElement:
    """Parse an element written as a polynomial in ``g``.

    The coefficients below the field degree are brought over the lcm of
    their denominators, in integers; each higher power g^k adds its
    coefficient times g ** k.

        >>> K = RealNumberField.create([-1, -1, 1], 1, 2)
        >>> parse_element(K, "2*g - 1/2")
        2*g - 1/2
    """
    coeffs = _parse_poly(text, "g")
    degree = field.degree
    low = coeffs[:degree]
    den = math.lcm(*[d for _, d in low])
    num = [n * (den // d) for n, d in low]
    el = _reduced(field, num + [0] * (degree - len(num)), den)
    if len(coeffs) > degree:
        g = field.gen()
        pad = [0] * (degree - 1)
        for k in range(degree, len(coeffs)):
            n, d = coeffs[k]
            if n:
                el = el + _reduced(field, [n] + pad, d) * g ** k
    return el


def format_poly(coeffs: Sequence[Rat], var: str) -> str:
    """Render ascending coefficients as descending-power text: 'x^2 - 3*x + 1'."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[k])
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            v = var if k == 1 else "%s^%d" % (var, k)
            body = v if abs(c) == 1 else "%s*%s" % (abs(c), v)
        terms.append((c < 0, body))
    if not terms:
        return "0"
    out = []
    for idx, (neg, body) in enumerate(terms):
        if idx == 0:
            out.append(("-" if neg else "") + body)
        else:
            out.append(("- " if neg else "+ ") + body)
    return " ".join(out)


def format_element(el: FieldElement) -> str:
    return format_poly(el.coeffs, "g")
