"""Saddle connection geometry against hand-checkable oracles.

The once-marked square torus is the main oracle surface: its saddle
connections are exactly the primitive lattice vectors, its spanning
rectangles' degrees are forced by the holonomy, and intersection numbers
reduce to lattice counting.  The octagon and pillowcase exercise cone
angles above and below 2 pi."""

import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

import geomref
import pafix.geom
import pafix.saddle
from pafix.affine import torus_from_matrix
from pafix.errors import (
    HorizontalOrVertical,
    InputError,
    OverlappingSegments,
)
from pafix.exactnum import FieldElement
from pafix.flatsurf import FlatSurface, SurfacePoint
from pafix.geom import ConvexPolygon, Mat2, Vec2
from pafix.saddle import (
    _RECT_UNFOLD_NODES,
    SaddleConnection,
    _box_candidates,
    _rect_degree,
    cover,
    crossing_motions,
    enumerate_saddles,
    intersection_number,
    is_veering_edge,
    trace,
)

from surfbuild import (
    h11_origami,
    l_origami,
    octagon_surface,
    pillowcase,
    rational_field,
    square_torus,
    vec,
)

# one square chart; one octagon chart around a 6 pi point; two charts
# glued by halfturns; and square charts around a 6 pi point or two 4 pi
# points
COVER_SURFACES = [square_torus, octagon_surface, pillowcase, l_origami,
                  h11_origami]


def conn(surface, x, y):
    """The saddle connection with holonomy (x, y), found from its owning
    corner."""
    d = vec(surface.field, x, y)
    for corner in sorted(surface.corner_class):
        if not surface.owns_ray(corner, d):
            continue
        sc = SaddleConnection.walk(surface, corner, d)
        if sc is not None:
            return sc
    raise AssertionError("no connection with holonomy (%s, %s)" % (x, y))


def rect_torus(w, h):
    field = rational_field()
    poly = ConvexPolygon([vec(field, 0, 0), vec(field, w, 0),
                          vec(field, w, h), vec(field, 0, h)])
    gluings = {
        (0, 0): ((0, 2), "translation"),
        (0, 2): ((0, 0), "translation"),
        (0, 1): ((0, 3), "translation"),
        (0, 3): ((0, 1), "translation"),
    }
    return FlatSurface(field, [poly], gluings, marked_corners=[(0, 0)],
                       names=["R"])


def primitive_count(nx, ny):
    c = 0
    for p in range(-nx, nx + 1):
        for q in range(-ny, ny + 1):
            if (p, q) != (0, 0) and math.gcd(abs(p), abs(q)) == 1:
                c += 1
    return c


def hol_pair(sc):
    return (sc.hol.x, sc.hol.y)


# ---------------------------------------------------------------------------
# trace

def test_trace_straight_across_charts():
    t = square_torus()
    res = trace(t, 0, vec(t.field, Fraction(1, 2), Fraction(1, 2)),
                vec(t.field, 2, 0))
    assert res.status == "end"
    assert len(res.pieces) == 3  # half + full + half width
    assert res.end_pos == vec(t.field, Fraction(1, 2), Fraction(1, 2))


def test_trace_stops_at_vertex():
    t = square_torus()
    res = trace(t, 0, vec(t.field, Fraction(1, 2), Fraction(1, 2)),
                vec(t.field, 1, 1))
    assert res.status == "vertex"
    assert (res.consumed - t.field.rational(Fraction(1, 2))).is_zero()


def test_trace_zero_vector_rejected():
    t = square_torus()
    with pytest.raises(InputError):
        trace(t, 0, vec(t.field, Fraction(1, 2), Fraction(1, 2)),
              vec(t.field, 0, 0))


def trace_fields(res):
    return (res.status, res.consumed, res.pieces, res.crossings,
            res.placements, res.end_chart, res.end_pos, res.end_vertex,
            res.sign)


@pytest.mark.parametrize("make", COVER_SURFACES)
def test_trace_matches_the_rescaling_reference(make):
    # every walk the box-3 search tries, from its corner, and the same
    # vector from a point inside the start chart, which ends at regular
    # points too
    surface = make()
    three = surface.field.coerce(3)
    statuses = Counter()
    for corner in sorted(surface.corner_class):
        chart, vidx = corner
        verts = surface.polygons[chart].vertices
        inner = (verts[0] + verts[1] + verts[2]).scale(
            surface.field.rational(Fraction(1, 3)))
        for cand in _box_candidates(surface, corner, three, three):
            if not surface.owns_ray(corner, cand):
                continue
            for pos in (verts[vidx], inner):
                got = trace(surface, chart, pos, cand)
                want = geomref.trace(surface, chart, pos, cand)
                assert trace_fields(got) == trace_fields(want)
                statuses[got.status, got.sign, got.consumed == 1] += 1
    assert statuses[("vertex", 1, True)] and statuses[("end", 1, True)]
    if make is pillowcase:
        assert statuses[("vertex", -1, True)]


# ---------------------------------------------------------------------------
# enumeration

def test_unit_box_has_the_eight_shortest():
    t = square_torus()
    saddles = enumerate_saddles(t, 1, 1)
    assert len(saddles) == 8
    hols = {(int(h.x.float_bounds()[0].__round__()),
             int(h.y.float_bounds()[0].__round__()))
            for h in (sc.hol for sc in saddles)}
    assert hols == {(1, 0), (-1, 0), (0, 1), (0, -1),
                    (1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_counts_match_primitive_lattice_oracle():
    t = square_torus()
    for n in range(1, 11):
        saddles = enumerate_saddles(t, n, n)
        assert len(saddles) == primitive_count(n, n), "bound %d" % n


def test_counts_match_oracle_on_skew_boxes():
    t = square_torus()
    for nx, ny in [(3, 2), (5, 1), (1, 4)]:
        saddles = enumerate_saddles(t, nx, ny)
        assert len(saddles) == primitive_count(nx, ny)


def primitive_lattice_holonomies(surface, bound):
    """{p w1 + q w2 : gcd(p, q) = 1} inside the box |x|, |y| <= bound, for
    w1 and w2 the polygon's sides at vertex 0: the saddle connections of a
    once-marked torus.  (p, q) = W^-1 v for W the matrix with columns w1
    and w2, so |p| and |q| are at most bound times the absolute row sums of
    W^-1.  Decided by exact signs alone."""
    K = surface.field
    vs = surface.polygons[0].vertices
    w1, w2 = vs[1] - vs[0], vs[-1] - vs[0]
    inv = Mat2(w1.x, w2.x, w1.y, w2.y).inverse()
    b = K.rational(bound)
    pmax = math.ceil(((abs(inv.a) + abs(inv.b)) * b).float_bounds()[1])
    qmax = math.ceil(((abs(inv.c) + abs(inv.d)) * b).float_bounds()[1])
    out = set()
    for p in range(-pmax, pmax + 1):
        for q in range(-qmax, qmax + 1):
            if math.gcd(p, q) != 1:
                continue
            v = w1.scale(K.rational(p)) + w2.scale(K.rational(q))
            if (b - abs(v.x)).sign() >= 0 and (b - abs(v.y)).sign() >= 0:
                out.add(v)
    return out


@pytest.mark.parametrize("m, counts", [
    ([[2, 1], [1, 1]], (8, 24, 52)),
    ([[3, 1], [2, 1]], (8, 36, 76)),
    ([[3, -1], [-2, 1]], (8, 36, 76)),
    ([[-2, -1], [-1, -1]], (8, 24, 52)),
])
def test_counts_match_primitive_lattice_oracle_on_irrational_tori(m, counts):
    # irrational coordinates: the float filters decide most signs here,
    # where on the rational square torus every one falls through
    surface, _ = torus_from_matrix(m)
    for bound, count in zip((1, 2, 3), counts):
        hols = [sc.hol for sc in enumerate_saddles(surface, bound, bound)]
        assert len(hols) == len(set(hols)) == count
        assert set(hols) == primitive_lattice_holonomies(surface, bound)


def thin_torus():
    return rect_torus(1, Fraction(1, 4))


# (surface, box) -> (number of records, sha256 of repr of the records) of
# enumerate_saddles(surface, box, box), taken while the visibility search
# still clipped each edge exactly; its box prune must not change them.
# On the thin torus, unlike the others, pruning every edge that reaches
# outside the box loses connections.
ENUMERATED = {
    ("square_torus", 1): (8, "8c0ca5d03d71215cc204d8844507cdc3cbf7e03c72452cfc46b6f7bae29c794c"),
    ("square_torus", 2): (16, "e9737b1932e0cb2d821bdea5041bd866d104ffe88755e67a853332c3b9e28ad9"),
    ("square_torus", 4): (48, "3191a6c31a4e60ae6d54f94d80e5af6dfbb6f18a452500c217f3912944d345d7"),
    ("pillowcase", 1): (32, "cdda3c2644430c128309069c944abab8420971ada07e296daaf356cf119aa4d2"),
    ("pillowcase", 2): (96, "9a176cfb8b48431ff5318477f030286f1e0ed472319368f8fae8ff2673787872"),
    ("pillowcase", 4): (352, "f64488b1d941d9d6c7fb99b875785acf78f0a33da2654d8163b5818cb187e6b2"),
    ("octagon_surface", 1): (8, "6da6b5e79eebfa534bfc734bc84740f900329cdf50ab1cd2c03ee5ab681d6d2d"),
    ("octagon_surface", 2): (32, "c446d28827690d76ffcd2cadc41990f15416c8bea2274dfb7ca254c669ff8b8c"),
    ("octagon_surface", 4): (72, "55c26fcaaf2c1698871bab6c394bf3769da71e7671e5a53f7fb87a20b42c1165"),
    ("thin_torus", 1): (20, "c7593065b03b924c7066622fc5545df8d107d47d28c7a2bd869733bf80dbd8ac"),
    ("thin_torus", 2): (52, "a8c6864c32c35d92d886397bddd99d61635e075afe12a42e24be9a90f21ff480"),
    ("thin_torus", 4): (176, "8774968773b7cf63e4c9506b3376e392b2c02d97422ac01a1c44401c6910b25f"),
}


@pytest.mark.parametrize(
    "make", [square_torus, pillowcase, octagon_surface, thin_torus])
def test_enumerated_records_are_pinned(make):
    for box in (1, 2, 4):
        records = [sc.record() for sc in enumerate_saddles(make(), box, box)]
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert (len(records), digest) == ENUMERATED[(make.__name__, box)]


def test_box_below_systole_is_empty():
    t = square_torus()
    assert enumerate_saddles(t, Fraction(1, 2), Fraction(1, 2)) == []


def test_enumeration_sorted_and_duplicate_free():
    t = square_torus()
    saddles = enumerate_saddles(t, 3, 3)
    ids = {(sc.start_corner, hol_pair(sc), sc.chain) for sc in saddles}
    assert len(ids) == len(saddles)
    keys = [(sc.start_class, sc.hol.x, sc.hol.y) for sc in saddles]
    for k1, k2 in zip(keys, keys[1:]):
        assert k1 <= k2


def test_every_connection_has_its_reverse_listed():
    t = square_torus()
    saddles = enumerate_saddles(t, 2, 2)
    hols = {hol_pair(sc) for sc in saddles}
    for sc in saddles:
        assert (-sc.hol.x, -sc.hol.y) in hols
        rev = sc.reverse()
        assert hol_pair(rev) in hols
        assert rev.reverse() == sc


def test_octagon_unit_box_is_the_sides():
    o = octagon_surface()
    g = o.field.gen()  # sqrt(2)
    h = g / 2
    saddles = enumerate_saddles(o, 1, 1)
    assert len(saddles) == 8
    one = o.field.one()
    zero = o.field.zero()
    expect = set()
    for sx, sy in [(one, zero), (zero, one), (h, h), (-h, h)]:
        expect.add((sx, sy))
        expect.add((-sx, -sy))
    assert {hol_pair(sc) for sc in saddles} == expect


def test_pillowcase_enumeration_pairs_up():
    p = pillowcase()
    saddles = enumerate_saddles(p, Fraction(1, 2), Fraction(1, 2))
    assert saddles and len(saddles) % 2 == 0
    hols = {}
    for sc in saddles:
        hols.setdefault(hol_pair(sc), 0)
        hols[hol_pair(sc)] += 1
    for sc in saddles:
        rev = sc.reverse()
        assert hols.get(hol_pair(rev), 0) >= 1
    # monotone in the box
    bigger = enumerate_saddles(p, 1, 1)
    assert len(bigger) > len(saddles)


@pytest.mark.parametrize("make", [
    lambda: torus_from_matrix([[2, 1], [1, 1]])[0], pillowcase,
], ids=["cat_torus", "pillowcase"])
def test_the_search_reads_no_float(monkeypatch, make):
    # the box prune is an exact outcode reject, so a search on a fresh
    # surface, whose elements have no cached float bounds, neither reads
    # a float bound nor computes an enclosure, for an element box bound
    # or an int one
    calls = Counter()
    real_bounds, real_enclosure = (FieldElement.float_bounds,
                                   FieldElement._enclosure)

    def bounds(self):
        calls["float_bounds"] += 1
        return real_bounds(self)

    def enclosure(self, bits):
        calls["_enclosure"] += 1
        return real_enclosure(self, bits)
    monkeypatch.setattr(FieldElement, "float_bounds", bounds)
    monkeypatch.setattr(FieldElement, "_enclosure", enclosure)
    for as_element in (True, False):
        surface = make()
        box = surface.field.rational(2) if as_element else 2
        calls.clear()
        assert enumerate_saddles(surface, box, box)
        assert calls["float_bounds"] == calls["_enclosure"] == 0


def test_walk_blocked_by_intermediate_singularity():
    t = square_torus()
    corner = (0, 0)
    assert SaddleConnection.walk(t, corner, vec(t.field, 2, 0)) is None
    assert SaddleConnection.walk(t, corner, vec(t.field, 2, 2)) is None


def test_record_shape():
    t = square_torus()
    sc = conn(t, 1, 2)
    rec = sc.record()
    assert rec[0] == sc.start_class
    assert isinstance(rec[1], str) and isinstance(rec[2], str)
    assert all(isinstance(q, int) and isinstance(e, int) for q, e in rec[3])


# ---------------------------------------------------------------------------
# spanning rectangles and degree

def test_unit_diagonal_is_veering_degree_one():
    t = square_torus()
    rect = is_veering_edge(conn(t, 1, 1))
    assert rect is not None
    assert rect.width == t.field.one()
    assert rect.height == t.field.one()
    assert rect.degree == 1


def test_two_three_is_not_veering():
    t = square_torus()
    assert is_veering_edge(conn(t, 2, 3)) is None


def test_one_n_is_veering_with_degree_n():
    t = square_torus()
    for n in range(1, 5):
        rect = is_veering_edge(conn(t, 1, n))
        assert rect is not None, n
        assert rect.degree == n
        if n >= 2:
            assert not rect.ambiguous
            assert rect.translation is not None
            assert rect.translation.x.is_zero()


def test_horizontal_and_vertical_span_nothing():
    t = square_torus()
    with pytest.raises(HorizontalOrVertical):
        is_veering_edge(conn(t, 1, 0))
    with pytest.raises(HorizontalOrVertical):
        is_veering_edge(conn(t, 0, 1))


def test_tall_thin_cylinder_degree():
    r = rect_torus(1, 5)
    rect = is_veering_edge(conn(r, 3, 5))
    assert rect is not None
    assert rect.degree == 3
    assert not rect.ambiguous
    # deck translation is horizontal: the circumference-1 direction
    assert rect.translation.y.is_zero()


@pytest.mark.parametrize("make", [square_torus, octagon_surface, pillowcase])
def test_rectangle_cover_matches_the_open_box_reference(make):
    # the square torus and the pillowcase have axis-parallel polygon edges,
    # which the cover crosses when they lie along a side of the rectangle;
    # the eigen tori of the pinned records have none
    surface = make()
    conns = [sc for sc in enumerate_saddles(surface, 3, 3)
             if not (sc.is_horizontal() or sc.is_vertical())]
    assert conns
    for sc in conns:
        rect = is_veering_edge(sc)
        ref = geomref.rect_placements(sc)
        if ref is None:
            assert rect is None, sc
            continue
        bounds, pieces = ref
        assert rect is not None, sc
        assert rect.bounds == bounds
        assert rect.placements == [(c, e, t) for c, e, t, _ in pieces]
        assert (rect.degree, rect.ambiguous, rect.translation) == \
            _rect_degree(pieces, rect.width, rect.height)


def rectangle_box(sc):
    """The closed rectangle with sc as its diagonal, as is_veering_edge
    builds it."""
    p0 = sc.start_point().pos
    p1 = p0 + sc.hol
    x0, x1 = min(p0.x, p1.x), max(p0.x, p1.x)
    y0, y1 = min(p0.y, p1.y), max(p0.y, p1.y)
    return ConvexPolygon([Vec2(x0, y0), Vec2(x1, y0), Vec2(x1, y1),
                          Vec2(x0, y1)])


def cover_pieces(cut):
    return cut if cut is None else \
        [(c, e, t, piece.vertices) for c, e, t, piece in cut]


RECT_BUDGET = ("_RECT_UNFOLD_NODES", _RECT_UNFOLD_NODES)


@pytest.mark.parametrize("make", COVER_SURFACES)
def test_rectangle_cover_matches_the_region_frame_reference(make):
    surface = make()
    conns = [sc for sc in enumerate_saddles(surface, 3, 3)
             if not (sc.is_horizontal() or sc.is_vertical())]
    cuts = Counter()
    for sc in conns:
        box = rectangle_box(sc)
        got = cover(surface, sc.placements, box, RECT_BUDGET)
        assert cover_pieces(got) == cover_pieces(
            geomref.cover(surface, sc.placements, box, RECT_BUDGET)), sc
        cuts[got is None] += 1
    assert cuts[True] and cuts[False]


@pytest.mark.parametrize("make", COVER_SURFACES)
def test_every_rectangle_placement_adds_a_piece(make, monkeypatch):
    # cover crosses only edges through its region's interior, and each
    # diagonal's chain meets the open rectangle, so every placement, one
    # _chart_piece call each, is a placement of the rectangle
    surface = make()
    calls = Counter()
    real = pafix.saddle._chart_piece

    def counted(*args):
        calls["_chart_piece"] += 1
        return real(*args)
    monkeypatch.setattr(pafix.saddle, "_chart_piece", counted)
    rects = 0
    for sc in enumerate_saddles(surface, 3, 3):
        if sc.is_horizontal() or sc.is_vertical():
            continue
        calls.clear()
        rect = is_veering_edge(sc)
        if rect is not None:
            rects += 1
            assert calls["_chart_piece"] == len(rect.placements), sc
    assert rects


def test_rectangle_cover_places_no_polygon_and_clips_in_the_chart(
        monkeypatch):
    # the cover pulls each of the pillowcase's rectangles back into the
    # chart, builds no placed polygon to intersect, and takes its sides
    # from one table
    surface = pillowcase()
    rects = [(sc.placements, rectangle_box(sc))
             for sc in enumerate_saddles(surface, 3, 3)
             if not (sc.is_horizontal() or sc.is_vertical())]
    calls = Counter()

    def count(owner, name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)
    count(ConvexPolygon, "intersect", ConvexPolygon.intersect)
    count(pafix.geom, "orient", pafix.geom.orient)
    for seeds, box in rects:
        cover(surface, seeds, box, RECT_BUDGET)
    assert calls["intersect"] == 0
    new_orients = calls["orient"]
    calls.clear()
    for seeds, box in rects:
        geomref.cover(surface, seeds, box, RECT_BUDGET)
    assert calls["intersect"] > 0
    assert new_orients < calls["orient"]


# ---------------------------------------------------------------------------
# intersection numbers

def test_axis_pair_meets_only_at_the_marked_point():
    t = square_torus()
    assert intersection_number(conn(t, 1, 0), conn(t, 0, 1)) == 0


def test_one_two_against_two_one():
    t = square_torus()
    assert intersection_number(conn(t, 1, 2), conn(t, 2, 1)) == 2


def test_diagonals_cross_once():
    t = square_torus()
    assert intersection_number(conn(t, 1, 1), conn(t, 1, -1)) == 1


def test_intersection_symmetry_on_enumerated_pairs():
    t = square_torus()
    saddles = enumerate_saddles(t, 2, 2)
    for i, a in enumerate(saddles):
        for b in saddles[i + 1:]:
            try:
                ab = intersection_number(a, b)
            except OverlappingSegments:
                with pytest.raises(OverlappingSegments):
                    intersection_number(b, a)
                continue
            assert ab == intersection_number(b, a)


@pytest.mark.parametrize("make, box", [(pillowcase, 1), (octagon_surface, 2)])
def test_meeting_keys_are_canonical_point_keys(make, box):
    # crossing_motions keys each crossing by its motion, not its point:
    # the reference counts the distinct canonical_point keys of the
    # pieces' meeting points that are not vertices, and a point on a
    # polygon edge, met from both charts, is one key and one motion
    s = make()
    saddles = enumerate_saddles(s, box, box)
    met = 0
    for i, a in enumerate(saddles):
        for b in saddles[i + 1:]:
            try:
                motions = crossing_motions(a, b)
            except OverlappingSegments:
                continue
            keys = set()
            for (c1, p, q), (c2, u, v) in itertools.product(a.pieces,
                                                            b.pieces):
                r = pafix.geom.segment_intersection(p, q, u, v)
                if c1 != c2 or r[0] != "point":
                    continue
                kind, key, _ = s.canonical_point(SurfacePoint(c1, r[1]))
                if kind != "vertex":
                    keys.add(key)
            assert len(motions) == len(keys), (a, b)
            met += len(keys)
    assert met


def test_reversed_connection_overlaps():
    t = square_torus()
    sc = conn(t, 1, 1)
    with pytest.raises(OverlappingSegments):
        intersection_number(sc, sc.reverse())


def test_intersection_equivariance_under_torus_automorphism():
    # the cat-map automorphism acts on torus connections by its derivative
    t = square_torus()

    def act(m, x, y):
        return (m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y)

    m = [[2, 1], [1, 1]]
    pairs = [((1, 0), (0, 1)), ((1, 2), (2, 1)), ((1, 1), (1, -1)),
             ((1, 3), (2, -1))]
    for (h1, h2) in pairs:
        base = intersection_number(conn(t, *h1), conn(t, *h2))
        moved = intersection_number(conn(t, *act(m, *h1)),
                                    conn(t, *act(m, *h2)))
        assert moved == base, (h1, h2)


def test_different_surfaces_rejected():
    t1 = square_torus()
    t2 = square_torus()
    with pytest.raises(InputError):
        intersection_number(conn(t1, 1, 0), conn(t2, 0, 1))

