"""Shared test fixtures: small surfaces built by hand."""

import math
from fractions import Fraction

from pafix.affine import develop, torus_from_matrix
from pafix.errors import InputError
from pafix.exactnum import RealNumberField
from pafix.flatsurf import FlatSurface, SurfacePoint
from pafix.geom import ConvexPolygon, Mat2, Vec2


def rational_field():
    # minpoly x, root 0: the rationals with generator 0
    return RealNumberField.create([0, 1], -1, 1)


def vec(field, x, y):
    return Vec2(field.rational(Fraction(x)), field.rational(Fraction(y)))


def square_polygon(field, size=1):
    return ConvexPolygon([
        vec(field, 0, 0), vec(field, size, 0),
        vec(field, size, size), vec(field, 0, size)])


def square_torus():
    field = rational_field()
    gluings = {
        (0, 0): ((0, 2), "translation"),
        (0, 2): ((0, 0), "translation"),
        (0, 1): ((0, 3), "translation"),
        (0, 3): ((0, 1), "translation"),
    }
    return FlatSurface(field, [square_polygon(field)], gluings,
                       marked_corners=[(0, 0)], names=["A"])


def octagon_surface():
    """Regular octagon, opposite sides glued: genus 2, one 6*pi cone point."""
    field = RealNumberField.create([-2, 0, 1], 1, 2)  # x^2 - 2
    h = field.gen() / 2  # sqrt(2)/2
    one = field.one()
    zero = field.zero()
    dirs = [
        (one, zero), (h, h), (zero, one), (-h, h),
        (-one, zero), (-h, -h), (zero, -one), (h, -h),
    ]
    verts = []
    x, y = zero, zero
    for dx, dy in dirs:
        verts.append(Vec2(x, y))
        x, y = x + dx, y + dy
    poly = ConvexPolygon(verts)
    gluings = {}
    for i in range(8):
        gluings[(0, i)] = ((0, (i + 4) % 8), "translation")
    return FlatSurface(field, [poly], gluings, names=["O"])


def pillowcase():
    """Quotient of the square torus by -1: sphere, four pi cone points.

    Fundamental domain [0,1] x [0,1/2] split into two quarter-square charts
    A (left) and B (right).  Horizontal edges fold onto each other by
    halfturns; the vertical sides are translation-identified."""
    field = rational_field()
    h = Fraction(1, 2)
    a = ConvexPolygon([vec(field, 0, 0), vec(field, h, 0),
                       vec(field, h, h), vec(field, 0, h)])
    b = ConvexPolygon([vec(field, h, 0), vec(field, 1, 0),
                       vec(field, 1, h), vec(field, h, h)])
    gluings = {
        (0, 1): ((1, 3), "translation"), (1, 3): ((0, 1), "translation"),
        (0, 3): ((1, 1), "translation"), (1, 1): ((0, 3), "translation"),
        (0, 0): ((1, 0), "halfturn"), (1, 0): ((0, 0), "halfturn"),
        (0, 2): ((1, 2), "halfturn"), (1, 2): ((0, 2), "halfturn"),
    }
    return FlatSurface(field, [a, b], gluings, names=["A", "B"])


def eigen_pillowcase(rows):
    """(surface, D, f): the pillowcase of a hyperbolic integer matrix M
    in eigen coordinates, D = diag(lambda, 1/lambda) or its negative, and
    the map f that develop builds with D, fixing the class of corner
    (0, 0).  The sign is the one that owning_corner carries D h1 with:
    where the corner owning diag(lambda, 1/lambda) h1 lies across a
    halfturn, the ray there is its negative, so -D is the derivative.

    The eigen parallelogram of torus_from_matrix(rows), spanned by w1 and
    w2, cut along w1/2 and w2/2 leaves two charts A (left) and B (right)
    of a fundamental domain of the torus modulo -1.  As in pillowcase(),
    the edges along w1 fold onto each other by halfturns and the edges
    along w2 are translated.  M and -M induce the same map."""
    torus, f = torus_from_matrix(rows)
    o, w1, _, w2 = torus.polygons[0].vertices
    half = torus.field.rational(Fraction(1, 2))
    h1, h2 = w1.scale(half), w2.scale(half)
    a = ConvexPolygon([o, h1, h1 + h2, h2])
    b = ConvexPolygon([h1, w1, w1 + h2, h1 + h2])
    gluings = {}
    for e1, e2, kind in (((0, 0), (1, 0), "halfturn"),
                         ((0, 2), (1, 2), "halfturn"),
                         ((0, 1), (1, 3), "translation"),
                         ((0, 3), (1, 1), "translation")):
        gluings[e1] = (e2, kind)
        gluings[e2] = (e1, kind)
    surface = FlatSurface(torus.field, [a, b], gluings, names=["A", "B"])
    lam = f.lambda_
    d_mat = Mat2.diagonal(lam, lam.inverse())
    ray = d_mat.apply(h1)
    image_corner, carried = surface.owning_corner(0, 0, ray)
    if carried != ray:
        d_mat = -d_mat
    return surface, d_mat, develop(surface, d_mat, (0, 0), image_corner, lam)


def _square_gluings(right, top):
    gluings = {}
    for i, (r, u) in enumerate(zip(right, top)):
        gluings[(i, 1)] = ((r, 3), "translation")
        gluings[(r, 3)] = ((i, 1), "translation")
        gluings[(i, 2)] = ((u, 0), "translation")
        gluings[(u, 0)] = ((i, 2), "translation")
    return gluings


def origami(right, top, names):
    """Unit squares glued by translations: the right side of square i to
    the left side of square right[i], its top to the bottom of top[i]."""
    field = rational_field()
    return FlatSurface(field, [square_polygon(field) for _ in right],
                       _square_gluings(right, top), names=names)


def _cycle_lcm(perm):
    """The lcm of the cycle lengths of a permutation of range(len(perm))."""
    out, seen = 1, set()
    for i in range(len(perm)):
        k = 0
        while i not in seen:
            seen.add(i)
            i, k = perm[i], k + 1
        if k:
            out = math.lcm(out, k)
    return out


def eigen_origami(right, top, sign):
    """Every map that develop builds on the origami of right and top in
    eigen coordinates with the derivative sign*diag(lambda, 1/lambda),
    taking corner (0, 0) to each corner in sorted order, where it
    validates.

    With a and b the lcm of the cycle lengths of right and top, M =
    [[1 + ab, a], [b, 1]] is the product of the horizontal and vertical
    multitwists (Thurston-Veech).  Each unit square becomes the eigen
    parallelogram of torus_from_matrix(M), in lambda's field, glued as
    origami() glues the squares."""
    a, b = _cycle_lcm(right), _cycle_lcm(top)
    torus, f = torus_from_matrix([[1 + a * b, a], [b, 1]])
    poly = torus.polygons[0]
    surface = FlatSurface(torus.field, [poly for _ in right],
                          _square_gluings(right, top))
    lam = f.lambda_
    d_mat = Mat2.diagonal(lam, lam.inverse())
    if sign < 0:
        d_mat = -d_mat
    maps = []
    for corner in sorted(surface.corner_class):
        try:
            maps.append(develop(surface, d_mat, (0, 0), corner, lam))
        except InputError:
            continue
    return maps


def l_origami():
    """The L-shaped 3-square origami: genus 2, one 6*pi cone point."""
    return origami([1, 0, 2], [2, 1, 0], ["A", "B", "C"])


def h11_origami():
    """A 4-square origami in H(1,1): genus 2, two 4*pi cone points."""
    return origami([0, 1, 3, 2], [2, 3, 0, 1], ["A", "B", "C", "D"])


def point(surface, chart, x, y):
    f = surface.field
    return SurfacePoint(chart, Vec2(f.rational(Fraction(x)), f.rational(Fraction(y))))
