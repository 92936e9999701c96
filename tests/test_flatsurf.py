"""Surfaces, affine automorphisms, and the text file format."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pafix.errors import (
    Discontinuous,
    GaussBonnetViolation,
    InputError,
    LambdaNotExpanding,
    LengthMismatch,
    NonConvexPolygon,
    NotBijective,
    NotConstantDerivative,
    NotHyperbolic,
    ParseError,
    UnmarkedConePoint,
    UnmatchedEdge,
)
from pafix.exactnum import FieldElement, RealNumberField
from pafix.geom import (AffineMap, ConvexPolygon, Mat2, Vec2,
                        segment_intersection)
from pafix.flatsurf import FlatSurface, SurfacePoint
from pafix.affine import (
    AffineAutomorphism,
    PiecewiseAffineMap,
    Piece,
    torus_from_matrix,
)
import pafix.geom
import pafix.saddle
from pafix import fileio
from pafix.fixcount import _horizontal_germs, count_fixed_points

import geomref
from minpoly import element_minimal_polynomial
from surfbuild import (eigen_pillowcase, h11_origami, l_origami,
                       octagon_surface, pillowcase, point, rational_field,
                       square_polygon, square_torus, vec)


# ---------------------------------------------------------------------------
# plane geometry


class TestGeom:
    def setup_method(self):
        self.f = rational_field()

    def v(self, x, y):
        return vec(self.f, x, y)

    def test_segment_intersection_point(self):
        r = segment_intersection(self.v(0, 0), self.v(2, 2), self.v(0, 2), self.v(2, 0))
        assert r[0] == "point"
        assert r[1].x.as_fraction() == 1 and r[1].y.as_fraction() == 1
        assert r[2] == Fraction(1, 2) and r[3] == Fraction(1, 2)

    def test_segment_intersection_none(self):
        r = segment_intersection(self.v(0, 0), self.v(1, 0), self.v(0, 1), self.v(1, 1))
        assert r[0] == "none"
        # parallel but disjoint collinear
        r = segment_intersection(self.v(0, 0), self.v(1, 0), self.v(2, 0), self.v(3, 0))
        assert r[0] == "none"

    def test_segment_intersection_overlap(self):
        r = segment_intersection(self.v(0, 0), self.v(2, 0), self.v(1, 0), self.v(3, 0))
        assert r[0] == "overlap"
        ends = sorted([(r[1].x.as_fraction(), r[1].y.as_fraction()),
                       (r[2].x.as_fraction(), r[2].y.as_fraction())])
        assert ends == [(1, 0), (2, 0)]

    def test_segment_touch_at_endpoint(self):
        r = segment_intersection(self.v(0, 0), self.v(1, 1), self.v(1, 1), self.v(2, 0))
        assert r[0] == "point"
        assert r[2] == 1 and r[3] == 0

    def test_polygon_requires_strict_convexity(self):
        with pytest.raises(NonConvexPolygon):
            ConvexPolygon([self.v(0, 0), self.v(2, 0), self.v(4, 0), self.v(0, 2)])
        with pytest.raises(NonConvexPolygon):  # clockwise
            ConvexPolygon([self.v(0, 0), self.v(0, 1), self.v(1, 1), self.v(1, 0)])
        with pytest.raises(NonConvexPolygon):  # reflex corner
            ConvexPolygon([self.v(0, 0), self.v(2, 0), self.v(1, 1),
                           self.v(2, 2), self.v(0, 2)])

    def test_polygon_contains(self):
        sq = square_polygon(self.f)
        assert sq.contains(self.v(Fraction(1, 2), Fraction(1, 2))) == 2
        assert sq.contains(self.v(0, Fraction(1, 2))) == 1
        assert sq.contains(self.v(1, 1)) == 1
        assert sq.contains(self.v(2, 0)) == 0

    def test_polygon_area(self):
        sq = square_polygon(self.f, size=3)
        assert sq.area2().as_fraction() == 18

    def test_clip_to_halfplane(self):
        sq = square_polygon(self.f)
        # keep x <= 1/2: left of the upward line through (1/2, 0)
        clipped = sq.clip_halfplane(self.v(Fraction(1, 2), 0), self.v(0, 1))
        assert clipped is not None
        assert clipped.area2().as_fraction() == 1
        # clip to nothing
        gone = sq.clip_halfplane(self.v(-1, 0), self.v(0, 1))
        assert gone is None

    def test_intersect_polygons(self):
        a = square_polygon(self.f)

        def moved(x, y):
            return ConvexPolygon([v + self.v(x, y) for v in a.vertices])
        c = a.intersect(moved(Fraction(1, 2), Fraction(1, 2)))
        assert c is not None and c.area2().as_fraction() == Fraction(1, 2)
        assert a.intersect(moved(5, 5)) is None
        # touching along an edge has no interior overlap
        assert a.intersect(moved(1, 0)) is None

    def test_a_diagonal_applies_with_two_products(self, monkeypatch):
        # every piece map is diagonal: its products by zero are skipped,
        # and the vector is the one all four products give
        K = RealNumberField.create([1, -3, 1], 2, 3)
        lam = K.gen()
        m = Mat2.diagonal(lam, 3 - lam)
        v = Vec2(lam / 7, K.rational(Fraction(-5, 3)) + lam)
        full = Vec2(m.a * v.x + m.b * v.y, m.c * v.x + m.d * v.y)
        calls = Counter()
        real_mul = FieldElement.__mul__

        def mul(a, b):
            calls["mul"] += 1
            return real_mul(a, b)
        monkeypatch.setattr(FieldElement, "__mul__", mul)
        w = m.apply(v)
        assert calls["mul"] == 2
        assert (w.x.num, w.x.den, w.y.num, w.y.den) == \
            (full.x.num, full.x.den, full.y.num, full.y.den)

    def test_affine_map_compose_inverse(self):
        m = AffineMap(Mat2(self.f.rational(2), self.f.one(),
                           self.f.one(), self.f.one()), self.v(3, -1))
        p = self.v(Fraction(2, 7), Fraction(-5, 3))
        q = m.inverse().apply(m.apply(p))
        assert q.x == p.x and q.y == p.y
        both = m.compose(m.inverse())
        r = both.apply(p)
        assert r.x == p.x and r.y == p.y


# ---------------------------------------------------------------------------
# surfaces


class TestSquareTorus:
    def test_validates(self):
        t = square_torus()
        assert t.genus == 1
        assert t.euler_char == 0
        assert len(t.cone_points) == 1
        cp = t.cone_points[0]
        assert cp.angle_pi == 2 and cp.is_marked
        assert t.area2().as_fraction() == 2
        assert t.chi_punctured == -1

    def test_unmarked_two_pi_rejected(self):
        field = rational_field()
        gluings = {
            (0, 0): ((0, 2), "translation"), (0, 2): ((0, 0), "translation"),
            (0, 1): ((0, 3), "translation"), (0, 3): ((0, 1), "translation"),
        }
        with pytest.raises(UnmarkedConePoint):
            FlatSurface(field, [square_polygon(field)], gluings)

    def test_bad_gluing_length(self):
        field = rational_field()
        gluings = {
            (0, 0): ((0, 1), "translation"), (0, 1): ((0, 0), "translation"),
            (0, 2): ((0, 3), "translation"), (0, 3): ((0, 2), "translation"),
        }
        with pytest.raises(LengthMismatch):
            FlatSurface(field, [square_polygon(field)], gluings, marked_corners=[(0, 0)])

    def test_missing_gluing(self):
        field = rational_field()
        gluings = {
            (0, 0): ((0, 2), "translation"), (0, 2): ((0, 0), "translation"),
        }
        with pytest.raises(UnmatchedEdge):
            FlatSurface(field, [square_polygon(field)], gluings, marked_corners=[(0, 0)])

    def test_self_gluing_rejected(self):
        field = rational_field()
        gluings = {
            (0, 0): ((0, 0), "halfturn"),
            (0, 1): ((0, 3), "translation"), (0, 3): ((0, 1), "translation"),
            (0, 2): ((0, 2), "halfturn"),
        }
        with pytest.raises(UnmatchedEdge):
            FlatSurface(field, [square_polygon(field)], gluings, marked_corners=[(0, 0)])

    def test_cross_edge_and_canonical_points(self):
        t = square_torus()
        p = point(t, 0, 0, Fraction(1, 2))  # on the left edge
        q = t.cross_edge((0, 3), p.pos)
        assert q.chart == 0
        assert q.pos.x.as_fraction() == 1 and q.pos.y.as_fraction() == Fraction(1, 2)
        assert t.same_point(p, q)
        # all four corners are one surface point
        a = point(t, 0, 0, 0)
        b = point(t, 0, 1, 1)
        assert t.same_point(a, b)


class TestOctagon:
    def test_genus_two_cone_angle(self):
        s = octagon_surface()
        assert s.genus == 2
        assert s.euler_char == -2
        assert len(s.cone_points) == 1
        assert s.cone_points[0].angle_pi == 6
        assert not s.cone_points[0].is_marked

    def test_gauss_bonnet_guard(self):
        # the same octagon with each edge i halfturn-glued to its
        # neighbour i xor 1 fails earlier than Gauss-Bonnet: neighbouring
        # edges point in different directions, so the edge vectors of a
        # glued pair do not match
        field = RealNumberField.create([-2, 0, 1], 1, 2)
        poly = octagon_surface().polygons[0]
        gluings = {(0, i): ((0, i ^ 1), "halfturn") for i in range(8)}
        with pytest.raises((LengthMismatch, GaussBonnetViolation)):
            FlatSurface(field, [poly], gluings)

    def test_shift_pairing_is_not_an_involution(self):
        # gluing edge i to edge i + 1 mod 8 sends 0 to 1 but 1 to 2
        field = RealNumberField.create([-2, 0, 1], 1, 2)
        poly = octagon_surface().polygons[0]
        gluings = {(0, i): ((0, (i + 1) % 8), "halfturn") for i in range(8)}
        with pytest.raises(UnmatchedEdge, match="not an involution"):
            FlatSurface(field, [poly], gluings)


class TestHalfTranslation:
    def test_pillowcase(self):
        s = pillowcase()
        assert s.genus == 0
        assert s.euler_char == 2
        angles = sorted(cp.angle_pi for cp in s.cone_points)
        assert angles == [1, 1, 1, 1]

    def test_halfturn_transition(self):
        s = pillowcase()
        # bottom edge of A folds onto the bottom edge of B around (1/2, 0)
        p = point(s, 0, Fraction(1, 4), 0)
        q = s.cross_edge((0, 0), p.pos)
        assert q.chart == 1
        assert q.pos.x.as_fraction() == Fraction(3, 4) and q.pos.y.as_fraction() == 0
        assert s.same_point(p, q)


# ---------------------------------------------------------------------------
# vertex primitives beyond the torus: a 6*pi point with 8 corners, halfturn
# gluings around pi points, the square torus, and two genus-2 origamis of
# unit squares (a 6*pi point with 12 corners, two 4*pi points)

VERTEX_SURFACES = pytest.mark.parametrize(
    "make", [octagon_surface, pillowcase, square_torus, l_origami,
             h11_origami],
    ids=["octagon", "pillowcase", "torus", "l-origami", "h11-origami"])


def _reference_fan_positions(surface):
    """corner -> (vertex class, fan position) by the standalone walk that
    FlatSurface.fan_position replaced: from the least corner of each
    class, hop across each corner's back edge."""
    out = {}
    for cp in surface.cone_points:
        start = min(cp.corners)
        cur = start
        pos = 0
        while True:
            out[cur] = (cp.id, pos)
            p, v = cur
            n = len(surface.polygons[p])
            cur = surface.transitions[(p, (v - 1) % n)].target
            pos += 1
            if cur == start:
                break
            assert pos <= len(cp.corners), "fan %d does not close" % cp.id
        assert pos == len(cp.corners), "fan %d misses corners" % cp.id
    return out


def _probe_directions(surface):
    """+-e1, +-e2, +-(1, 1) and every polygon edge vector."""
    f = surface.field
    out = [vec(f, x, y) for x, y in
           ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))]
    for poly in surface.polygons:
        out.extend(poly.edge_vector(e) for e in range(len(poly)))
    return out


@VERTEX_SURFACES
def test_fan_position_matches_the_reference_walk(make):
    s = make()
    assert s.fan_position == _reference_fan_positions(s)


def _union_find_classes(surface):
    """The vertex classes as lists of corners, ordered by least corner,
    from a union-find over the gluings: the start of an edge is the end
    of its partner."""
    parent = {(p, v): (p, v) for p, poly in enumerate(surface.polygons)
              for v in range(len(poly))}

    def find(c):
        while parent[c] != c:
            c = parent[c]
        return c

    for (p, e), ((q, e2), _) in surface.gluings.items():
        n = len(surface.polygons[q])
        parent[find((p, e))] = find((q, (e2 + 1) % n))
    groups = {}
    for c in sorted(parent):
        groups.setdefault(find(c), []).append(c)
    return sorted(groups.values())


@pytest.mark.parametrize("make", [
    square_torus, octagon_surface, pillowcase, l_origami, h11_origami,
    lambda: torus_from_matrix([[2, 1], [1, 1]])[0],
    lambda: eigen_pillowcase([[2, 1], [1, 1]])[0],
], ids=["torus", "octagon", "pillowcase", "l-origami", "h11-origami",
        "eigen-torus", "eigen-pillowcase"])
def test_vertex_classes_match_the_gluing_union_find(make):
    s = make()
    classes = _union_find_classes(s)
    assert {c: i for i, cls in enumerate(classes) for c in cls} \
        == s.corner_class
    assert [sorted(cp.corners) for cp in s.cone_points] == classes
    # fan_position numbers each class 0..k-1 along fan_step
    for i, cls in enumerate(classes):
        corner = cls[0]
        for pos in range(len(cls)):
            assert s.fan_position[corner] == (i, pos)
            corner = s.fan_step(corner).target
        assert corner == cls[0]


@VERTEX_SURFACES
def test_corner_for_ray_lands_on_an_owning_corner(make):
    s = make()
    for corner in sorted(s.corner_class):
        for d in _probe_directions(s):
            c, d2 = s.owning_corner(corner[0], corner[1], d)
            assert s.corner_class[c] == s.corner_class[corner]
            assert s.owns_ray(c, d2)


@VERTEX_SURFACES
def test_every_line_through_a_vertex_has_one_owned_ray_per_half_turn(make):
    # wedges [out, back) tile the cone, so a cone of angle k*pi holds
    # exactly k rays along the line of d, each owned by one corner
    s = make()
    for cp in s.cone_points:
        start = min(cp.corners)
        for d in _probe_directions(s):
            owned = 0
            c, cur = start, d
            for _ in cp.corners:
                owned += s.owns_ray(c, cur) + s.owns_ray(c, -cur)
                tr = s.fan_step(c)
                c, cur = tr.target, tr.map.mat.apply(cur)
            assert c == start
            assert owned == cp.angle_pi


@pytest.mark.parametrize("make, prongs", [
    (octagon_surface, [6]),
    (pillowcase, [1, 1, 1, 1]),
    (square_torus, [2]),
    (l_origami, [6]),
    (h11_origami, [4, 4]),
], ids=["octagon", "pillowcase", "torus", "l-origami", "h11-origami"])
def test_horizontal_germs_give_one_germ_per_prong(make, prongs):
    s = make()
    plus = vec(s.field, 1, 0)
    counts = []
    for cp in s.cone_points:
        germs = _horizontal_germs(s, cp)
        assert len(set(germs)) == len(germs)
        for corner, xsign in germs:
            assert s.corner_class[corner] == cp.id
            assert s.owns_ray(corner, plus if xsign > 0 else -plus)
        counts.append(len(germs))
    assert counts == prongs


def _probe_points(surface):
    """Per chart: every vertex, a third of the way and half way along
    every edge, two points on each edge line outside the chart, and two
    interior points."""
    f = surface.field
    third, half = f.rational(Fraction(1, 3)), f.rational(Fraction(1, 2))
    out = []
    for chart, poly in enumerate(surface.polygons):
        vs = poly.vertices
        n = len(vs)
        pts = list(vs)
        for i in range(n):
            a, r = vs[i], poly.edge_vector(i)
            pts += [a + r.scale(third), a + r.scale(half),
                    a + r.scale(f.rational(2)), a - r.scale(third)]
        centre = vs[0] + (vs[2] - vs[0]).scale(half)
        pts += [centre, centre + (vs[1] - centre).scale(third)]
        out += [SurfacePoint(chart, p) for p in pts]
    return out


@VERTEX_SURFACES
def test_canonical_point_matches_the_two_pass_reference(make):
    # the pillowcase's horizontal edges are halfturn-glued
    s = make()
    kinds = Counter()
    for sp in _probe_points(s):
        try:
            want = geomref.canonical_point(s, sp)
        except InputError:
            kinds["outside"] += 1
            with pytest.raises(InputError, match="outside its chart"):
                s.canonical_point(sp)
            # an equal pair is the same point without a chart check
            assert s.same_point(sp, sp)
            continue
        kinds[want[0]] += 1
        assert s.canonical_point(sp) == want
    assert set(kinds) == {"vertex", "edge", "interior", "outside"}


# ---------------------------------------------------------------------------
# torus automorphisms from integer matrices


class TestTorusFromMatrix:
    def test_cat_relative(self):
        surf, f = torus_from_matrix([[2, 1], [1, 1]])
        lam = f.lambda_
        assert element_minimal_polynomial(lam)[0] == (1, -3, 1)
        box = lam.approx(20)  # (3+sqrt5)/2 = 2.6180339887...
        assert Fraction(26180, 10000) < box.lo < box.hi < Fraction(26181, 10000)
        assert surf.genus == 1
        assert len(f.pieces) >= 2
        assert f.singularity_permutation == {0: 0}

    def test_not_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            torus_from_matrix([[1, 1], [0, 1]])
        with pytest.raises(NotHyperbolic):
            torus_from_matrix([[0, -1], [1, 0]])

    def test_negative_trace(self):
        surf, f = torus_from_matrix([[-2, -1], [-1, -1]])
        assert element_minimal_polynomial(f.lambda_)[0] == (1, -3, 1)
        # all pieces carry -diag(lambda, 1/lambda)
        signs = {p.map.mat.a.sign() for p in f.pieces}
        assert signs == {-1}

    def test_squared_matrix_squares_lambda(self):
        _, f1 = torus_from_matrix([[2, 1], [1, 1]])
        _, f2 = torus_from_matrix([[5, 3], [3, 2]])
        sq = f1.lambda_ * f1.lambda_
        assert element_minimal_polynomial(sq)[0] == (1, -7, 1)
        assert element_minimal_polynomial(f2.lambda_)[0] == (1, -7, 1)

    def test_apply_fixes_origin(self):
        surf, f = torus_from_matrix([[2, 1], [1, 1]])
        origin = point(surf, 0, 0, 0)
        img = f.apply(origin)
        assert surf.same_point(origin, img)

    @staticmethod
    def interior_points(surf, weight_rows):
        """Rational convex combinations of the chart polygon's vertices."""
        verts = surf.polygons[0].vertices
        f = surf.field
        out = []
        for ws in weight_rows:
            tot = sum(ws)
            x = f.zero()
            y = f.zero()
            for w, v in zip(ws, verts):
                c = f.rational(Fraction(w, tot))
                x = x + v.x * c
                y = y + v.y * c
            out.append(SurfacePoint(0, Vec2(x, y)))
        return out

    def test_apply_inverse_roundtrip(self):
        surf, f = torus_from_matrix([[2, 1], [1, 1]])
        g = f.inverse()
        for p in self.interior_points(surf, [(1, 1, 1, 1), (1, 2, 3, 4), (7, 1, 1, 2)]):
            q = g.apply(f.apply(p))
            assert surf.same_point(p, q)

    def test_power_lazily_iterates(self):
        surf, f = torus_from_matrix([[2, 1], [1, 1]])
        f3 = f.power(3)
        assert element_minimal_polynomial(f3.lambda_)[0] == (1, -18, 1)
        (p,) = self.interior_points(surf, [(2, 3, 5, 7)])
        via_power = f3.apply(p)
        via_iterate = f.apply(f.apply(f.apply(p)))
        assert surf.same_point(via_power, via_iterate)

    def test_power_of_a_power(self):
        # power(1) is the map itself, with its edge images and Lefschetz
        # number, for a power as for its base
        _, f = torus_from_matrix([[2, 1], [1, 1]])
        f2 = f.power(2)
        assert f.power(1) is f and f2.power(1) is f2
        f6 = f2.power(3)
        assert (f6.base, f6.n) == (f, 6)
        for n in (0, -1):
            with pytest.raises(InputError):
                f2.power(n)

    def test_power_materializes_pieces(self):
        surf, f = torus_from_matrix([[2, 1], [1, 1]])
        f2 = f.power(2)
        total = surf.field.zero()
        for p in f2.pieces:
            total = total + p.region.area2()
        assert total == surf.area2()
        # piece derivatives are diag(lambda^2, lambda^-2) up to sign
        lam2 = f.lambda_ * f.lambda_
        for p in f2.pieces:
            assert p.map.mat.a == lam2 or p.map.mat.a == -lam2

    def test_power_piece_at_maps_where_the_power_does(self):
        surf, f = torus_from_matrix([[2, 1], [1, 1]])
        f2 = f.power(2)
        points = self.interior_points(
            surf, [(1, 1, 1, 1), (1, 2, 3, 4), (7, 1, 1, 2)])
        points.append(surf.vertex_point(0))
        half = surf.field.rational(Fraction(1, 2))
        for piece in f2.pieces:
            a, b, c = piece.region.vertices[:3]
            # a corner, an edge midpoint and an interior point of the piece
            points += [SurfacePoint(piece.chart, q) for q in
                       (a, (a + b).scale(half), (a + (b + c).scale(half)).scale(half))]
        for p in points:
            piece = f2.piece_at(p)
            assert piece in f2.pieces
            image = SurfacePoint(piece.target, piece.map.apply(p.pos))
            assert surf.same_point(image, f2.apply(p))

    def test_area_preserved_piecewise(self):
        surf, f = torus_from_matrix([[2, 1], [1, 1]])
        total = surf.field.zero()
        for p in f.pieces:
            total = total + p.region.area2()
        assert total == surf.area2()
        for p in f.pieces:
            assert p.image().area2() == p.region.area2()


@pytest.fixture(scope="module")
def cat_maps():
    """Cat map f and its materialised 16-piece square."""
    surf, f = torus_from_matrix([[2, 1], [1, 1]])
    f2 = f.power(2)
    assert len(f.pieces) == 4 and len(f2.pieces) == 16
    return f, AffineAutomorphism(surf, f2.pieces, f2.lambda_)


def _exact_piece_scan(m, sp):
    """piece_at without the float-box prefilter: exact contains on every
    piece of the chart."""
    best = None
    for piece in m._by_chart[sp.chart]:
        c = piece.region.contains(sp.pos)
        if c == 2:
            return piece
        if c == 1 and best is None:
            best = piece
    return best


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from((0, 1)), piece_idx=st.integers(0, 15),
       corner=st.integers(0, 7),
       kind=st.sampled_from(("vertex", "edge", "interior")),
       weights=st.lists(st.integers(1, 9), min_size=3, max_size=3))
def test_piece_at_prefilter_keeps_the_exact_answer(cat_maps, which, piece_idx,
                                                   corner, kind, weights):
    m = cat_maps[which]
    piece = m.pieces[piece_idx % len(m.pieces)]
    vs = piece.region.vertices
    n = len(vs)
    a, b, c = vs[corner % n], vs[(corner + 1) % n], vs[(corner + 2) % n]
    field = a.x.field
    if kind == "vertex":
        pos = a
    elif kind == "edge":
        t = field.rational(Fraction(weights[0], weights[0] + weights[1]))
        pos = a + (b - a).scale(t)
    else:
        tot = sum(weights)
        wa, wb, wc = (field.rational(Fraction(w, tot)) for w in weights)
        pos = a.scale(wa) + b.scale(wb) + c.scale(wc)
    sp = SurfacePoint(piece.chart, pos)
    assert m.piece_at(sp) is _exact_piece_scan(m, sp)


# ---------------------------------------------------------------------------
# validation of hand-built maps


class TestMapValidation:
    def test_identity_not_expanding(self):
        t = square_torus()
        f = t.field
        pc = Piece(0, t.polygons[0], AffineMap(Mat2.identity(f), vec(f, 0, 0)), 0)
        with pytest.raises(LambdaNotExpanding):
            AffineAutomorphism(t, [pc], f.one())

    def test_uniform_scaling_rejected(self):
        t = square_torus()
        f = t.field
        two = f.rational(2)
        # z -> 2z does not even map the square into itself; build it on a
        # shrunken source so images-inside passes and the derivative check fires
        half = ConvexPolygon([vec(f, 0, 0), vec(f, Fraction(1, 2), 0),
                              vec(f, Fraction(1, 2), Fraction(1, 2)),
                              vec(f, 0, Fraction(1, 2))])
        pieces = [Piece(0, half, AffineMap(Mat2.diagonal(two, two), vec(f, 0, 0)), 0)]
        with pytest.raises((NotConstantDerivative, NotBijective)):
            AffineAutomorphism(t, pieces, two)

    def test_discontinuous_pieces(self):
        t = square_torus()
        f = t.field
        left = ConvexPolygon([vec(f, 0, 0), vec(f, Fraction(1, 2), 0),
                              vec(f, Fraction(1, 2), 1), vec(f, 0, 1)])
        right = ConvexPolygon([vec(f, Fraction(1, 2), 0), vec(f, 1, 0),
                               vec(f, 1, 1), vec(f, Fraction(1, 2), 1)])
        ident = Mat2.identity(f)
        pieces = [
            Piece(0, left, AffineMap(ident, vec(f, 0, 0)), 0),
            Piece(0, right, AffineMap(ident, vec(f, Fraction(-1, 2), 0)), 0),
        ]
        with pytest.raises(Discontinuous):
            PiecewiseAffineMap(t, pieces)

    def test_discontinuous_inside_the_chart_only(self):
        # identity on the left half, x -> 3x/2 - 1/2 on the right half: the
        # pieces agree across both gluings and disagree only along x = 1/2
        t = square_torus()
        f = t.field
        left = ConvexPolygon([vec(f, 0, 0), vec(f, Fraction(1, 2), 0),
                              vec(f, Fraction(1, 2), 1), vec(f, 0, 1)])
        right = ConvexPolygon([vec(f, Fraction(1, 2), 0), vec(f, 1, 0),
                               vec(f, 1, 1), vec(f, Fraction(1, 2), 1)])
        stretch = Mat2(f.rational(Fraction(3, 2)), f.zero(), f.zero(), f.one())
        pieces = [
            Piece(0, left, AffineMap(Mat2.identity(f), vec(f, 0, 0)), 0),
            Piece(0, right, AffineMap(stretch, vec(f, Fraction(-1, 2), 0)), 0),
        ]
        with pytest.raises(Discontinuous, match="in chart 0"):
            PiecewiseAffineMap(t, pieces)

    def test_discontinuous_across_gluing(self):
        # the shear z -> (x, y + x/2), wrapped into the square: continuous
        # inside the chart, but x = 0 and x = 1 go to heights 1/2 apart
        t = square_torus()
        f = t.field
        half = Fraction(1, 2)
        low = ConvexPolygon([vec(f, 0, 0), vec(f, 1, 0), vec(f, 1, half),
                             vec(f, 0, 1)])
        high = ConvexPolygon([vec(f, 1, half), vec(f, 1, 1), vec(f, 0, 1)])
        shear = Mat2(f.one(), f.zero(), f.rational(half), f.one())
        pieces = [
            Piece(0, low, AffineMap(shear, vec(f, 0, 0)), 0),
            Piece(0, high, AffineMap(shear, vec(f, 0, -1)), 0),
        ]
        with pytest.raises(Discontinuous) as err:
            PiecewiseAffineMap(t, pieces)
        assert str(err.value) == "pieces disagree across edge (0, 1) at (1, 0)"

    def test_discontinuous_only_where_a_side_meets_part_of_another(self):
        # identity on the left half, x -> 3x/2 - 1/2 on the right half cut
        # at y = 1/2: the pieces agree across both gluings and the cut, and
        # disagree only on x = 1/2, where each right piece's side is half
        # of the left piece's side (a T-junction at (1/2, 1/2))
        t = square_torus()
        f = t.field
        h = Fraction(1, 2)
        left = ConvexPolygon([vec(f, 0, 0), vec(f, h, 0), vec(f, h, 1),
                              vec(f, 0, 1)])
        low = ConvexPolygon([vec(f, h, 0), vec(f, 1, 0), vec(f, 1, h),
                             vec(f, h, h)])
        high = ConvexPolygon([vec(f, h, h), vec(f, 1, h), vec(f, 1, 1),
                              vec(f, h, 1)])
        stretch = AffineMap(
            Mat2(f.rational(Fraction(3, 2)), f.zero(), f.zero(), f.one()),
            vec(f, -h, 0))
        pieces = [
            Piece(0, left, AffineMap(Mat2.identity(f), vec(f, 0, 0)), 0),
            Piece(0, low, stretch, 0),
            Piece(0, high, stretch, 0),
        ]
        with pytest.raises(Discontinuous) as err:
            PiecewiseAffineMap(t, pieces)
        assert str(err.value) == "pieces disagree at (1/2, 0) in chart 0"

    def test_t_junction_across_a_gluing_is_mapped_by_apply(self, monkeypatch):
        # (1/2, 0) crosses the bottom edge to (1/2, 1), which is no piece
        # vertex: it lies inside the top side of the first piece
        t = square_torus()
        f = t.field
        h = Fraction(1, 2)
        first = ConvexPolygon([vec(f, 0, 0), vec(f, h, 0), vec(f, 1, 1),
                               vec(f, 0, 1)])
        second = ConvexPolygon([vec(f, h, 0), vec(f, 1, 0), vec(f, 1, 1)])
        ident = AffineMap(Mat2.identity(f), vec(f, 0, 0))
        calls = Counter()
        real_apply = PiecewiseAffineMap.apply

        def counted(self, sp):
            calls[(sp.chart, sp.pos)] += 1
            return real_apply(self, sp)
        monkeypatch.setattr(PiecewiseAffineMap, "apply", counted)
        PiecewiseAffineMap(t, [Piece(0, first, ident, 0),
                               Piece(0, second, ident, 0)])
        assert calls[(0, vec(f, h, 1))] >= 1

    def test_half_translation_maps_on_the_pillowcase(self):
        p = pillowcase()
        f = p.field
        ident = AffineMap(Mat2.identity(f), vec(f, 0, 0))
        halfturn = Mat2.diagonal(-f.one(), -f.one())
        a, b = p.polygons

        def halfturn_about(poly):
            # z -> 2c - z, c the centre of the quarter square
            lo, hi = poly.vertices[0], poly.vertices[2]
            return AffineMap(halfturn, lo + hi)

        half_period = Fraction(1, 2)
        maps = [
            (ident, 0, ident, 1),
            (AffineMap(Mat2.identity(f), vec(f, half_period, 0)), 1,
             AffineMap(Mat2.identity(f), vec(f, -half_period, 0)), 0),
            (halfturn_about(a), 0, halfturn_about(b), 1),
        ]
        for map_a, target_a, map_b, target_b in maps:
            PiecewiseAffineMap(p, [Piece(0, a, map_a, target_a),
                                   Piece(1, b, map_b, target_b)])
        with pytest.raises(Discontinuous) as err:
            PiecewiseAffineMap(p, [Piece(0, a, ident, 0),
                                   Piece(1, b, halfturn_about(b), 1)])
        assert str(err.value) == \
            "pieces disagree across edge (0, 1) at (1/2, 0)"

    def test_validation_divides_nothing_and_clips_nothing(self, monkeypatch):
        surf, cat = torus_from_matrix([[2, 1], [1, 1]])
        _, other = torus_from_matrix([[3, 1], [2, 1]])
        _, loaded = fileio.loads(fileio.dumps(surf, cat.power(2)))
        calls = Counter()

        def count(owner, name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(owner, name, counted, raising=False)
        count(FieldElement, "inverse", FieldElement.inverse)
        count(ConvexPolygon, "intersect", ConvexPolygon.intersect)
        # the images are tiled by their areas: no polygon is built, and
        # overlaps compares only source regions, each pair of a chart once
        count(ConvexPolygon, "__init__", ConvexPolygon.__init__)
        compared = []
        real_overlaps = ConvexPolygon.overlaps

        def overlaps(a, b):
            compared.append((a, b))
            return real_overlaps(a, b)
        monkeypatch.setattr(ConvexPolygon, "overlaps", overlaps)
        for g in (cat, other, loaded):
            AffineAutomorphism(g.surface, g.pieces, g.lambda_)
            chart_of = {id(p.region): p.chart for p in g.pieces}
            pairs = Counter()
            for a, b in compared:
                assert a is not b and id(a) in chart_of
                assert chart_of.get(id(b)) == chart_of[id(a)]
                pairs[chart_of[id(a)]] += 1
            sizes = Counter(p.chart for p in g.pieces)
            for chart, n in pairs.items():
                assert n <= sizes[chart] * (sizes[chart] - 1) // 2
            compared.clear()
        assert len(loaded.pieces) == 16
        assert calls == Counter()
        # the vertex stars compare no pair of sides, and on these maps
        # every crossed boundary vertex is a piece vertex of its chart, so
        # no crossing falls back to piece_at
        for module in (pafix.geom, pafix.affine, pafix.saddle):
            count(module, "segment_intersection", segment_intersection)
        count(PiecewiseAffineMap, "piece_at", PiecewiseAffineMap.piece_at)
        for g in (cat, other, loaded):
            PiecewiseAffineMap(g.surface, g.pieces)
        assert calls == Counter()

    def test_images_must_tile_every_chart(self):
        # two copies of the cat torus, each glued to itself with its
        # vertex marked, and two copies of the cat map: sending both onto
        # chart 0 is continuous, but chart 0 is covered twice
        maps = _two_tori_maps()
        with pytest.raises(NotBijective) as exc:
            AffineAutomorphism(*maps[0, 0])
        assert str(exc.value) == (
            "image regions of chart 0 cover area 8/5*g - 12/5 of 4/5*g - 6/5")
        f = AffineAutomorphism(*maps[0, 1])
        assert f.singularity_permutation == {0: 0, 1: 1}

    def test_source_not_tiled(self):
        t = square_torus()
        f = t.field
        half = ConvexPolygon([vec(f, 0, 0), vec(f, 1, 0), vec(f, 1, Fraction(1, 2)),
                              vec(f, 0, Fraction(1, 2))])
        pieces = [Piece(0, half, AffineMap(Mat2.identity(f), vec(f, 0, 0)), 0)]
        with pytest.raises(NotBijective):
            PiecewiseAffineMap(t, pieces)

    def test_source_pieces_must_not_overlap(self):
        # two identity pieces on the lower half cover the square's area
        # between them, so only the pairwise overlap test rejects them
        t = square_torus()
        f = t.field
        half = ConvexPolygon([vec(f, 0, 0), vec(f, 1, 0), vec(f, 1, Fraction(1, 2)),
                              vec(f, 0, Fraction(1, 2))])
        ident = AffineMap(Mat2.identity(f), vec(f, 0, 0))
        with pytest.raises(NotBijective) as exc:
            PiecewiseAffineMap(t, [Piece(0, half, ident, 0),
                                   Piece(0, half, ident, 0)])
        assert str(exc.value) == "piece regions overlap in chart 0"


_SHIFTS = ((Fraction(1, 7), 0), (0, Fraction(1, 5)),
           (Fraction(1, 3), Fraction(1, 3)), (Fraction(1, 100), 0),
           (0, Fraction(1, 1000)))


def _perturbed(g):
    """g's pieces with one piece's shift moved, or with one piece given
    the next piece's map, where every piece still maps into its target
    chart."""
    surface, pieces = g.surface, list(g.pieces)
    field = surface.field
    for i, p in enumerate(pieces):
        nxt = pieces[(i + 1) % len(pieces)]
        alts = [Piece(p.chart, p.region,
                      AffineMap(p.map.mat, p.map.shift + vec(field, s * x, s * y)),
                      p.target)
                for x, y in _SHIFTS for s in (1, -1)]
        alts.append(Piece(p.chart, p.region, nxt.map, nxt.target))
        for alt in alts:
            target = surface.polygons[alt.target]
            if all(target.contains(alt.map.apply(v))
                   for v in alt.region.vertices):
                yield surface, pieces[:i] + [alt] + pieces[i + 1:]


def _verdict(check, m):
    try:
        check(m)
    except Discontinuous:
        return "discontinuous"
    return "accept"


def _star_maps():
    """The maps the star continuity check is compared on: five tori, f
    and f^2 of each, and the loaded cat^2 text."""
    maps = []
    for rows in ([[2, 1], [1, 1]], [[3, 1], [2, 1]], [[-3, -1], [-2, -1]],
                 [[-2, -1], [-1, -1]], [[4, 1], [3, 1]]):
        _, f = torus_from_matrix(rows)
        maps += [f, f.power(2)]
    surf, cat = torus_from_matrix([[2, 1], [1, 1]])
    maps.append(fileio.loads(fileio.dumps(surf, cat.power(2)))[1])
    return maps


def _two_tori_maps():
    """Two copies of the cat torus, each glued to itself with its vertex
    marked, and the cat map on each: (surface, pieces, lambda) for every
    pair (t0, t1) of target charts of the two charts' pieces."""
    surf, cat = torus_from_matrix([[2, 1], [1, 1]])
    poly = surf.polygons[0]
    gluings = {(c, e): ((c, (e + 2) % 4), "translation")
               for c in (0, 1) for e in range(4)}
    tori = FlatSurface(surf.field, [poly, poly], gluings,
                       marked_corners=[(0, 0), (1, 0)])
    return {targets: (tori, [Piece(c, p.region, p.map, targets[c])
                             for c in (0, 1) for p in cat.pieces],
                      cat.lambda_)
            for targets in ((0, 0), (0, 1), (1, 0), (1, 1))}


def test_star_continuity_check_agrees_with_the_pairwise_reference():
    maps = _star_maps()
    cases = [(g.surface, list(g.pieces)) for g in maps]
    # every second perturbation, which keeps the test near 1.5 s
    cases += [case for g in maps for case in _perturbed(g)][::2]
    verdicts = Counter()
    for surface, pieces in cases:
        m = PiecewiseAffineMap(surface, pieces, validate=False)
        want = _verdict(geomref.validate_continuity, m)
        assert _verdict(PiecewiseAffineMap._validate_continuity, m) == want
        verdicts[want] += 1
    assert verdicts["accept"] > len(maps) and verdicts["discontinuous"] > 100


def _raised(build):
    try:
        build()
    except InputError as exc:
        return type(exc)
    return None


def test_image_tiling_by_degree_agrees_with_the_pairwise_reference():
    # AffineAutomorphism checks only the image areas per chart; the
    # reference chain ends with the pairwise overlap test of the images
    maps = _star_maps()
    cases = [(g.surface, list(g.pieces), g.lambda_) for g in maps]
    cases += [(*case, g.lambda_) for g in maps for case in _perturbed(g)]
    cases += list(_two_tori_maps().values())

    def reference(surface, pieces):
        geomref.validate_image_tiling(PiecewiseAffineMap(surface, pieces))

    verdicts = Counter()
    for surface, pieces, lam in cases:
        want = _raised(lambda: reference(surface, pieces))
        assert _raised(
            lambda: AffineAutomorphism(surface, pieces, lam)) is want
        verdicts[want] += 1
    assert verdicts[None] > len(maps) and verdicts[NotBijective] >= 2
    assert verdicts[Discontinuous] > 100


@pytest.mark.parametrize("rows", [
    [[2, 1], [1, 1]], [[3, 1], [2, 1]], [[-3, -1], [-2, -1]]])
def test_inverse_carries_every_axis_germ_back(rows):
    surf, f = torus_from_matrix(rows)
    g = f.inverse()
    one, zero = surf.field.one(), surf.field.zero()
    axes = (Vec2(one, zero), Vec2(-one, zero), Vec2(zero, one), Vec2(zero, -one))
    germs = [(c, d) for c in sorted(surf.corner_class) for d in axes
             if surf.owns_ray(c, d)]
    # one vertex class of angle 2*pi: one owning corner per direction
    assert len(germs) == len(axes)
    for c, d in germs:
        c2, d2 = f.carry(c, d)
        assert surf.owns_ray(c2, d2)
        assert d2 in (f.derivative.apply(d), -f.derivative.apply(d))
        assert g.carry(c2, d2) == (c, d)


# ---------------------------------------------------------------------------
# file format


class TestFileFormat:
    def test_round_trip_torus(self, tmp_path):
        surf, f = torus_from_matrix([[2, 1], [1, 1]])
        text = fileio.dumps(surf, f, header="cat torus")
        surf2, f2 = fileio.loads(text)
        assert surf2.genus == 1
        assert f2 is not None
        assert f2.lambda_ == surf2.field.coerce(f.lambda_)
        text2 = fileio.dumps(surf2, f2, header="cat torus")
        assert text == text2  # writer output is bit-stable

    def test_round_trip_octagon(self):
        s = octagon_surface()
        text = fileio.dumps(s)
        s2, m2 = fileio.loads(text)
        assert m2 is None
        assert s2.genus == 2
        assert s2.cone_points[0].angle_pi == 6

    def test_surface_only_file(self):
        text = """
# plain square torus
[FIELD]
minpoly = x
root = (-1, 1)

[SURFACE]
polygon A = (0,0) (1,0) (1,1) (0,1)
glue A.0 A.2 translation
glue A.1 A.3 translation
mark A.0
"""
        surf, fmap = fileio.loads(text)
        assert fmap is None
        assert surf.genus == 1
        assert surf.cone_points[0].is_marked

    def test_map_section_without_pieces_is_rejected(self):
        text = """
[FIELD]
minpoly = x^2 - 3*x + 1
root = (2, 3)

[SURFACE]
polygon A = (0,0) (1,0) (1,1) (0,1)
glue A.0 A.2 translation
glue A.1 A.3 translation
mark A.0

[MAP]
lambda = g
"""
        with pytest.raises(ParseError, match="line 12: .*no piece lines"):
            fileio.loads(text)

    def test_parse_error_has_line_number(self):
        bad = """
[FIELD]
minpoly = x
root = (-1, 1)

[SURFACE]
polygon A = (0,0) (1,0) (1.5,1) (0,1)
"""
        with pytest.raises(ParseError) as ei:
            fileio.loads(bad)
        assert "line 7" in str(ei.value)

    def test_rejects_unknown_section(self):
        with pytest.raises(ParseError):
            fileio.loads("[WHAT]\n")

    def test_rejects_conflicting_glue(self):
        text = """
[FIELD]
minpoly = x
root = (-1, 1)

[SURFACE]
polygon A = (0,0) (1,0) (1,1) (0,1)
glue A.0 A.2 translation
glue A.0 A.3 translation
glue A.1 A.3 translation
mark A.0
"""
        with pytest.raises(ParseError) as ei:
            fileio.loads(text)
        assert "glue" in str(ei.value)

    def test_only_affine_automorphisms_are_written(self):
        # loads reads back affine automorphisms only, so dumps refuses the
        # inverse (derivative diag(1/lambda, lambda)) and a composition
        surf, f = torus_from_matrix([[2, 1], [1, 1]])
        for g in (f.inverse(), f.compose_with(f)):
            with pytest.raises(InputError):
                fileio.dumps(surf, g)
        _, loaded = fileio.loads(fileio.dumps(surf, f.power(2)))
        assert isinstance(loaded, AffineAutomorphism)

    def test_derivative_off_the_stretch_is_rejected(self):
        surf, f = torus_from_matrix([[2, 1], [1, 1]])
        lines = fileio.dumps(surf, f).splitlines()
        first = next(i for i, line in enumerate(lines)
                     if line.startswith("piece "))
        lines.insert(first + 1, "derivative = [[1, 0], [0, 1]]")
        with pytest.raises(NotConstantDerivative):
            fileio.loads("\n".join(lines) + "\n")

    @pytest.mark.parametrize("n", [1, 2])
    def test_negative_trace_round_trip_counts_the_same(self, n):
        # -D pieces write a derivative line; the square's pieces are +D
        surf, f = torus_from_matrix([[-3, -1], [-2, -1]])
        g = f.power(n)
        text = fileio.dumps(surf, g)
        assert ("derivative = " in text) == (n == 1)
        surf2, loaded = fileio.loads(text)
        assert isinstance(loaded, AffineAutomorphism)
        assert fileio.dumps(surf2, loaded) == text
        assert repr(count_fixed_points(loaded).records()) \
            == repr(count_fixed_points(g).records())

    def test_halfturn_round_trip(self):
        s = pillowcase()
        s2, _ = fileio.loads(fileio.dumps(s))
        assert s2.genus == 0
        assert sorted(cp.angle_pi for cp in s2.cone_points) == [1, 1, 1, 1]
