"""Reference field arithmetic and parsing on tuples of Fractions.

This is the representation pafix.exactnum used before it moved to integer
numerators over one denominator: products reduce with a Fraction table of
g^d .. g^(2d-2), inverses come from the extended Euclidean algorithm, and
signs from interval Horner on Fractions over a root bracket that this
module refines by its own bisection.  The tests compare the integer
arithmetic against it.

The parser is the one pafix.exactnum used before it parsed in integer
pairs: a token loop of anchored matches, and a recursive descent that sums
each power's coefficient in Fractions.  parse_poly and RefField.parse give
its values; the tests compare exactnum's parsers, values and ParseError
messages alike, against them.
"""

import math
import re
from fractions import Fraction

from pafix.errors import ParseError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _strip(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_add(a, b):
    out = [_ZERO] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def _poly_scale(a, s):
    return [c * s for c in a] if s else []


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _strip(out)


def _poly_divmod(a, b):
    rem = list(a)
    quo = [_ZERO] * max(0, len(a) - len(b) + 1)
    db, lead = len(b) - 1, b[-1]
    while rem and len(rem) - 1 >= db:
        shift = len(rem) - 1 - db
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        _strip(rem)
    return _strip(quo), rem


def _poly_eval(a, x):
    acc = _ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _poly_eval_interval(a, lo, hi):
    acc_lo = acc_hi = _ZERO
    for c in reversed(a):
        p = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(p) + c, max(p) + c
    return acc_lo, acc_hi


class RefField:
    """Q(g) for g the only root of ``minpoly`` in (lo, hi)."""

    def __init__(self, minpoly, lo, hi):
        self.minpoly = tuple(minpoly)
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        d = self.degree = len(minpoly) - 1
        if d == 1:
            self.lo = self.hi = Fraction(-minpoly[0], minpoly[1])
        lead = Fraction(minpoly[-1])
        base = [Fraction(-c) / lead for c in minpoly[:-1]]  # g^d
        gpow, cur = [], base
        for _ in range(d - 1):
            gpow.append(tuple(cur) + (_ZERO,) * (d - len(cur)))
            nxt = [_ZERO] + list(cur)
            if len(nxt) > d:
                nxt = _poly_add(nxt[:-1], _poly_scale(base, nxt[-1]))
            cur = nxt + [_ZERO] * (d - len(nxt))
        self.gpow = tuple(gpow)

    def vec(self, coeffs):
        out = [Fraction(c) for c in coeffs]
        return tuple(out + [_ZERO] * (self.degree - len(out)))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        d = self.degree
        raw = [_ZERO] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                raw[i + j] += x * y
        out = raw[:d]
        for k in range(d, 2 * d - 1):
            for i in range(d):
                out[i] += raw[k] * self.gpow[k - d][i]
        return tuple(out)

    def inverse(self, a):
        if not any(a[1:]):
            return self.vec([1 / a[0]])
        s0, s1 = [_ONE], []
        r0, r1 = _strip(list(a)), [Fraction(c) for c in self.minpoly]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_add(s0, [-c for c in _poly_mul(q, s1)])
        assert len(r0) == 1
        return self.vec(_poly_scale(s0, 1 / r0[0]))

    def div(self, a, b):
        return self.mul(a, self.inverse(b))

    def sign(self, a):
        if not any(a[1:]):
            return (a[0] > 0) - (a[0] < 0)
        p = [Fraction(c) for c in self.minpoly]
        while True:
            lo, hi = _poly_eval_interval(a, self.lo, self.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            positive_at_lo = _poly_eval(p, self.lo) > 0
            mid = (self.lo + self.hi) / 2
            if (_poly_eval(p, mid) > 0) == positive_at_lo:
                self.lo = mid
            else:
                self.hi = mid

    def hash(self, a):
        return hash((self.minpoly, a))

    def parse(self, text):
        """The element a polynomial in g denotes, as a coefficient tuple:
        sum c_k * g^k with g^k a product of generators."""
        gen = self.vec([self.lo] if self.degree == 1 else [0, 1])
        out, power = self.vec([]), self.vec([1])
        for c in parse_coeffs(text, "g"):
            out = self.add(out, self.mul(self.vec([c]), power))
            power = self.mul(power, gen)
        return out


_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\+|-|\*|/|\(|\))")


def _tokenize(text):
    text = text.strip()
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r in %r" % (text[pos], text))
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_coeffs(text, var):
    """Parse a sum of terms like '3*x^2 - x/2 + 5' into ascending Fraction
    coefficients.  Only the single variable `var` is allowed."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    coeffs = {}
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
        coeff = None
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
                val = Fraction(int(tok))
                i += 1
                if op == "/":
                    if val == 0:
                        fail("division by zero")
                    coeff = (coeff if coeff is not None else _ONE) / val
                else:
                    coeff = (coeff if coeff is not None else _ONE) * val
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
        c = sign * (coeff if coeff is not None else _ONE)
        coeffs[power] = coeffs.get(power, _ZERO) + c
    deg = max(coeffs) if coeffs else 0
    return _strip([coeffs.get(k, _ZERO) for k in range(deg + 1)])


def parse_poly(text, var):
    """Integer coefficients, ascending, with no common factor and a
    positive leading one."""
    coeffs = parse_coeffs(text, var)
    if len(coeffs) < 2:
        raise ParseError("defining polynomial must have degree at least 1")
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = math.gcd(*ints)
    if ints[-1] < 0:
        content = -content
    return tuple(c // content for c in ints)
