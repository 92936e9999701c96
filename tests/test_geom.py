"""The float-filtered plane predicates against exact references.

`orient` and `segment_intersection` take a sign from float intervals only
when the interval excludes 0, and `ConvexPolygon.contains` no longer
re-checks edge spans; `geomref` keeps the exact versions.  The inputs mix
random points, exactly degenerate configurations and near-degenerate ones
whose cross product is below 2**-60, where only the exact fallback can
decide."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomref
from pafix.affine import torus_from_matrix
from pafix.exactnum import FieldElement, RealNumberField
from pafix.geom import ConvexPolygon, Vec2, orient, segment_intersection

# (ascending minpoly, root bracket)
FIELDS = [
    ((-1, -1, 1), 1, 2),  # x^2 - x - 1, g the golden ratio
    ((-1, -2, 2), 1, 2),  # non-monic 2x^2 - 2x - 1, g = (1 + sqrt 3)/2
    ((-2, 0, 0, 1), 1, 2),  # x^3 - 2
]
TINY = Fraction(1, 2 ** 60)

coefficient = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
ratio = st.sampled_from(
    [Fraction(k, 4) for k in range(-4, 9)] + [Fraction(1, 3), Fraction(2, 3)])


def element(K, cs):
    return K.element(list(cs[:K.degree]))


def point(K, cs):
    d = K.degree
    return Vec2(element(K, cs[:d]), element(K, cs[d:]))


def coefficients(n):
    return st.lists(coefficient, min_size=n, max_size=n)


def tiny(K, bits, negative):
    """g minus a rational within 2**-bits of g: nonzero, |.| < 2**-bits."""
    g = K.gen()
    delta = g - g.approx(bits).lo
    return -delta if negative else delta


def configuration(K, kind, cs, t1, t2, bits, negative):
    """Four points a, b, c, d of the given kind; the caller skips draws
    with a == b or c == d."""
    a, b, c, d = (point(K, cs[i * 2 * K.degree:(i + 1) * 2 * K.degree])
                  for i in range(4))
    r = b - a
    if kind == "collinear":
        # c and d on the line ab: overlaps, touches and gaps
        c, d = a + r.scale(K.rational(t1)), a + r.scale(K.rational(t2))
    elif kind == "shared":
        c = b if t1 > 0 else a
    elif kind == "near":
        # c within |tiny| of the line ab, off it along a normal
        w = Vec2(-r.y, r.x)
        c = a + r.scale(K.rational(t1)) + w.scale(tiny(K, bits, negative))
        d = c + (d - a)
    return a, b, c, d


def configurations(K):
    n = 8 * K.degree
    return st.tuples(
        st.sampled_from(("random", "collinear", "shared", "near")),
        coefficients(n), ratio, ratio, st.integers(75, 100), st.booleans())


@pytest.mark.parametrize("poly, lo, hi", FIELDS)
def test_filtered_predicates_match_the_exact_reference(poly, lo, hi):
    K = RealNumberField.create(poly, lo, hi)

    @settings(max_examples=50, deadline=None)
    @given(configurations(K))
    def check(args):
        a, b, c, d = configuration(K, *args)
        if a == b or c == d:
            return
        if args[0] == "near":
            cross = (b - a).cross(c - a)
            assert not cross.is_zero() and abs(cross) < TINY
        for p, q, s in ((a, b, c), (a, b, d), (c, d, a), (b, a, c)):
            assert orient(p, q, s) == geomref.orient(p, q, s)
        assert segment_intersection(a, b, c, d) == \
            geomref.segment_intersection(a, b, c, d)
        assert segment_intersection(c, d, b, a) == \
            geomref.segment_intersection(c, d, b, a)

    check()


# a strictly convex counterclockwise pentagon; an upper-triangular map
# with positive diagonal keeps it so
PENTAGON = [(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]


def polygon_and_points(K, cs, t, bits, negative):
    d = K.degree
    alpha, gamma = abs(element(K, cs[:d])) + 1, abs(element(K, cs[d:2 * d])) + 1
    beta, shift = element(K, cs[2 * d:3 * d]), point(K, cs[3 * d:5 * d])
    verts = [Vec2(alpha * x + beta * y, gamma * K.rational(y)) + shift
             for x, y in PENTAGON]
    small = tiny(K, bits, negative)
    points = list(verts)
    for i, a in enumerate(verts):
        b = verts[(i + 1) % len(verts)]
        r = b - a
        on_edge = a + r.scale(K.rational(t))
        points.append(on_edge)  # on the edge, or on its line outside it
        points.append(on_edge + Vec2(-r.y, r.x).scale(small))
    points.append(verts[0] + (verts[2] - verts[0]).scale(K.rational(t)))
    points.append(point(K, cs[5 * d:7 * d]))
    return verts, points


@pytest.mark.parametrize("poly, lo, hi", FIELDS)
def test_contains_matches_the_exact_reference(poly, lo, hi):
    K = RealNumberField.create(poly, lo, hi)

    @settings(max_examples=15, deadline=None)
    @given(coefficients(7 * K.degree), ratio, st.integers(75, 100),
           st.booleans())
    def check(cs, t, bits, negative):
        verts, points = polygon_and_points(K, cs, t, bits, negative)
        poly = ConvexPolygon(verts)
        for p in points:
            assert poly.contains(p) == geomref.contains(verts, p)

    check()


@pytest.fixture
def sign_calls(monkeypatch):
    """Every FieldElement.sign call made while the test runs."""
    calls = []
    exact = FieldElement.sign

    def counted(self):
        calls.append(self)
        return exact(self)

    monkeypatch.setattr(FieldElement, "sign", counted)
    return calls


def test_filter_decides_the_piece_corners_of_cat_squared(sign_calls):
    _, f = torus_from_matrix([[2, 1], [1, 1]])
    regions = [piece.region for piece in f.power(2).pieces]
    del sign_calls[:]
    for region in regions:
        vs = region.vertices
        n = len(vs)
        for i in range(n):
            assert orient(vs[i], vs[(i + 1) % n], vs[(i + 2) % n]) == 1
    assert sign_calls == []


@pytest.mark.parametrize("n", (90, 91))
def test_near_degenerate_orient_falls_back_to_the_exact_sign(sign_calls, n):
    # F(n+1) - F(n) g = (-1/g)^n for Fibonacci F and the golden ratio g:
    # the cross product of (1, g) and (F(n), F(n+1)) is below 2**-60
    K = RealNumberField.create([-1, -1, 1], 1, 2)
    fib = [0, 1]
    while len(fib) < n + 2:
        fib.append(fib[-1] + fib[-2])
    a = Vec2(K.zero(), K.zero())
    b = Vec2(K.one(), K.gen())
    c = Vec2(K.rational(fib[n]), K.rational(fib[n + 1]))
    assert abs((b - a).cross(c - a)) < TINY
    del sign_calls[:]
    assert orient(a, b, c) == geomref.orient(a, b, c) == (-1) ** n
    assert sign_calls
