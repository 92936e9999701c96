"""The minimal polynomial of a field element, for the tests that check
a stretch factor: the first linear dependency among its powers, found
with pafix.linalg, and an isolating interval of its root."""

from fractions import Fraction

from pafix import linalg
from pafix.errors import InternalCheckError
from pafix.exactnum import (
    FieldElement,
    RationalInterval,
    _normalize_minpoly,
    _poly_eval,
    count_real_roots,
)

# Precision beyond which an element's root is not isolated any further.
_MAX_ISOLATION_BITS = 2000


def element_minimal_polynomial(el: FieldElement) -> tuple:
    """Minimal polynomial of an element over Q, as normalized ascending
    integer coefficients, together with an isolating RationalInterval."""
    # coefficient vectors of 1, el, .., el^d as columns; the first
    # nullspace vector, led by the first dependent power, is the
    # dependency of least degree
    cols, power = [], el.field.one()
    for _ in range(el.field.degree + 1):
        cols.append(power.coeffs)
        power = power * el
    rows = [list(r) for r in zip(*cols)]
    poly = _normalize_minpoly(linalg.nullspace(rows, len(cols))[0])
    # isolate the root equal to el
    bits = 20
    while True:
        box = el.approx(bits)
        lo, hi = box.lo - Fraction(1, 2 ** bits), box.hi + Fraction(1, 2 ** bits)
        if _poly_eval([Fraction(c) for c in poly], lo) != 0 \
                and _poly_eval([Fraction(c) for c in poly], hi) != 0 \
                and count_real_roots(poly, lo, hi) == 1:
            return poly, RationalInterval(lo, hi)
        bits += 20
        if bits > _MAX_ISOLATION_BITS:
            raise InternalCheckError(
                "failed to isolate element root within "
                "_MAX_ISOLATION_BITS = %d" % _MAX_ISOLATION_BITS)
