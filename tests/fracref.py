"""Reference field arithmetic on tuples of Fractions.

This is the representation pafix.exactnum used before it moved to integer
numerators over one denominator: products reduce with a Fraction table of
g^d .. g^(2d-2), inverses come from the extended Euclidean algorithm, and
signs from interval Horner on Fractions over a root bracket that this
module refines by its own bisection.  The tests compare the integer
arithmetic against it.
"""

from fractions import Fraction

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
