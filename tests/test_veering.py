"""Sections, flips, the slope order, f-sections and mapping torus
layering, exercised on the eigen-coordinate torus of [[2,1],[1,1]]
where Farey combinatorics give independent oracles."""

import re
from fractions import Fraction

import pytest

from pafix import saddle, veering
from pafix.affine import torus_from_matrix
from pafix.errors import (
    InputError,
    InternalCheckError,
    NotFlippable,
    NotVeering,
    UnsupportedSurface,
    WrongOrder,
)
from pafix.exactnum import RealNumberField
from pafix.flatsurf import FlatSurface
from pafix.geom import ConvexPolygon, Vec2, segment_intersection
from pafix.saddle import SaddleConnection, is_veering_edge
from pafix.veering import (
    EdgeCache,
    Section,
    annular_avoiding_f_section,
    apply_to_edge,
    apply_to_section,
    complete_to_section,
    edge_cache,
    edge_order,
    f_section,
    flip_down,
    flip_path,
    flip_up,
    mapping_torus_layering,
    section_leq,
    section_size,
)

from surfbuild import (
    eigen_pillowcase,
    h11_origami,
    l_origami,
    octagon_surface,
    pillowcase,
    square_torus,
    vec,
)


@pytest.fixture(scope="module")
def torus():
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    return surface, f, edge_cache(surface)


def _basis(surface):
    poly = surface.polygons[0]
    return poly.vertices[1], poly.vertices[3]


def lat(surface, sc):
    """Integer lattice class of a torus edge in the eigen chart."""
    w1, w2 = _basis(surface)
    det = w1.cross(w2)
    a = sc.hol.cross(w2) / det
    b = w1.cross(sc.hol) / det
    pa, pb = a.as_fraction(), b.as_fraction()
    assert pa.denominator == 1 and pb.denominator == 1
    return (int(pa), int(pb))


def unsigned_lat(surface, sc):
    a, b = lat(surface, sc)
    return (a, b) if (a, b) > (-a, -b) else (-a, -b)


def edge_for(surface, cache, a, b):
    """Walk the saddle connection of a primitive lattice class."""
    w1, w2 = _basis(surface)
    hol = w1.scale(a) + w2.scale(b)
    corner, ray = surface.owning_corner(0, 0, hol)
    sc = SaddleConnection.walk(surface, corner, ray)
    assert sc is not None
    return cache.canonical(sc)


def test_section_size_torus(torus):
    surface, _, _ = torus
    assert section_size(surface) == 3


def test_complete_empty_is_farey_triangle(torus):
    surface, _, cache = torus
    T = complete_to_section(surface)
    assert len(T.edges) == 3
    assert {unsigned_lat(surface, e) for e in T.edges} == {
        (1, 0), (0, 1), (1, -1)}
    assert all(len(f) == 3 for f in T.triangles)
    assert sum(len(f) for f in T.triangles) == 6


def test_complete_is_idempotent_on_sections(torus):
    surface, _, cache = torus
    T = complete_to_section(surface)
    again = complete_to_section(surface, T.edges)
    assert again == T


def test_complete_from_two_seeds(torus):
    surface, _, cache = torus
    seeds = [edge_for(surface, cache, 1, 0), edge_for(surface, cache, 0, 1)]
    T = complete_to_section(surface, seeds)
    third = [unsigned_lat(surface, e) for e in T.edges
             if unsigned_lat(surface, e) not in ((1, 0), (0, 1))]
    assert third in ([(1, 1)], [(1, -1)])


def test_complete_rejects_crossing_seeds(torus):
    surface, _, cache = torus
    from pafix.errors import NotNoncrossing
    s1 = edge_for(surface, cache, 1, 1)
    s2 = edge_for(surface, cache, 1, -1)
    with pytest.raises(NotNoncrossing):
        complete_to_section(surface, [s1, s2])


def test_section_constructor_rejects_wrong_count(torus):
    surface, _, cache = torus
    from pafix.errors import NotFilling
    e = edge_for(surface, cache, 1, 0)
    with pytest.raises(NotFilling):
        Section(surface, [e])


def test_edge_order_basics(torus):
    surface, _, cache = torus
    a = edge_for(surface, cache, 1, 1)
    b = edge_for(surface, cache, 1, -1)
    o1 = edge_order(a, b)
    o2 = edge_order(b, a)
    assert {o1, o2} == {"below", "above"}
    assert edge_order(a, a) == "equal"
    T = complete_to_section(surface)
    assert edge_order(T.edges[0], T.edges[1]) == "disjoint"


def test_flip_farey_moves(torus):
    surface, _, cache = torus
    T = complete_to_section(surface)
    by = {unsigned_lat(surface, e): e for e in T.edges}

    up = flip_up(T, by[(1, 0)])
    new = [e for e in up.edges if e not in T.edge_set]
    assert [unsigned_lat(surface, e) for e in new] == [(1, -2)]
    assert flip_down(up, new[0]) == T
    # bottom vs top diagonal of one maximal rectangle
    assert edge_order(by[(1, 0)], new[0]) == "below"
    assert edge_order(new[0], by[(1, 0)]) == "above"

    down = flip_down(T, by[(1, -1)])
    new2 = [e for e in down.edges if e not in T.edge_set]
    assert [unsigned_lat(surface, e) for e in new2] == [(1, 1)]
    assert flip_up(down, new2[0]) == T


def test_flip_rejects_non_extremal(torus):
    surface, _, cache = torus
    T = complete_to_section(surface)
    by = {unsigned_lat(surface, e): e for e in T.edges}
    with pytest.raises(NotFlippable):
        flip_up(T, by[(0, 1)])
    with pytest.raises(NotFlippable):
        flip_down(T, by[(0, 1)])
    with pytest.raises(InputError):
        flip_up(T, edge_for(surface, cache, 2, -1))


def test_flip_walk_preserves_section_invariants(torus):
    surface, _, cache = torus
    T = complete_to_section(surface)
    seen = {T}
    frontier = [T]
    # shallow walk: holonomies grow exponentially with flip depth
    for _ in range(4):
        nxt = []
        for S in frontier:
            for e in S.edges:
                for fn in (flip_up, flip_down):
                    try:
                        S2 = fn(S, e)
                    except NotFlippable:
                        continue
                    assert len(S2.edges) == 3
                    if S2 not in seen:
                        seen.add(S2)
                        nxt.append(S2)
        frontier = nxt[:2]
    assert len(seen) > 4


def test_automorphism_acts_linearly_on_lattice(torus):
    surface, f, cache = torus
    T = complete_to_section(surface)
    for e in T.edges:
        im = apply_to_edge(f, e)
        a, b = lat(surface, e)
        ia, ib = lat(surface, im)
        assert (ia, ib) == (2 * a + b, a + b)
        assert cache.rect(im) is not None  # veering goes to veering


def test_f_section_defining_properties(torus):
    surface, f, cache = torus
    T0 = complete_to_section(surface)
    T = f_section(f, T0)
    fT = apply_to_section(f, T)
    assert section_leq(fT, T)
    assert f_section(f, T) == T
    assert section_leq(T0, T)
    # and the image section is genuinely lower
    assert not section_leq(T, fT)


def test_flip_path_between_sections(torus):
    surface, f, cache = torus
    T = f_section(f, complete_to_section(surface))
    bottom = apply_to_section(f, T)
    steps = flip_path(bottom, T)
    assert len(steps) == 2
    assert steps[0].before == bottom
    assert steps[-1].after == T
    for st in steps:
        assert st.edge in st.before.edge_set
        assert st.new_edge in st.after.edge_set
    with pytest.raises(WrongOrder):
        flip_path(T, bottom)


def test_mapping_torus_word_lengths(torus):
    surface, f, cache = torus
    T = f_section(f, complete_to_section(surface))
    mt = mapping_torus_layering(f, T)
    assert len(mt.tetrahedra) == 2
    assert len(mt.gluings) == 4  # 2 tets, 8 face slots, each pairing once
    f2 = f.power(2)
    mt2 = mapping_torus_layering(f2, f_section(f2, T))
    assert len(mt2.tetrahedra) == 4
    assert len(mt2.gluings) == 8


def test_mapping_torus_tetrahedron_geometry(torus):
    surface, f, cache = torus
    mt = mapping_torus_layering(f)
    for tet in mt.tetrahedra:
        b, t = tet.bottom.hol, tet.top.hol
        # top diagonal strictly steeper than bottom
        assert (abs(t.y * b.x) - abs(b.y * t.x)).sign() > 0
        # the maximal rectangle is spanned by the two diagonals
        assert tet.rect_width == abs(b.x)
        assert tet.rect_height == abs(t.y)
        assert len(tet.sides) == 4


def test_mapping_torus_format(torus):
    surface, f, cache = torus
    mt = mapping_torus_layering(f)
    text = mt.format_text()
    lines = text.splitlines()
    assert lines[0] == "tetrahedra 2"
    assert len(lines) == 3
    assert all("->" in ln for ln in lines[1:])


def test_annular_avoiding_equals_f_section_on_torus(torus):
    surface, f, cache = torus
    assert annular_avoiding_f_section(f) == f_section(f)


def test_annular_avoiding_section_is_kept_on_the_map():
    # every power of a map counts on the map's own section T: f(T) <= T,
    # both +-D keep every slope's sign and the order is transitive, so
    # f^n(T) <= T
    for matrix, powers in (([[2, 1], [1, 1]], (2, 3, 4)),
                           ([[3, 1], [2, 1]], (2, 3)),
                           ([[-3, -1], [-2, -1]], (2, 3)),
                           ([[-2, -1], [-1, -1]], (2, 3))):
        surface, f = torus_from_matrix(matrix)
        T = annular_avoiding_f_section(f)
        assert annular_avoiding_f_section(f) is T
        for n in powers:
            g = f.power(n)
            assert annular_avoiding_f_section(g) is T
            assert section_leq(apply_to_section(g, T), T)
    # a power asked first builds the section on its base, which keeps it
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    T = annular_avoiding_f_section(f.power(2))
    assert annular_avoiding_f_section(f) is T
    assert annular_avoiding_f_section(f.power(3)) is T


def test_annular_sweep_flips_down_while_it_keeps_an_f_section(monkeypatch):
    # the f-sections of these maps carry one rectangle of degree 2, so a
    # threshold of 2 makes the sweep flip down
    monkeypatch.setattr(veering, "_DEGREE_THRESHOLD", 2)
    surface, f = torus_from_matrix([[3, 1], [2, 1]])
    base = f_section(f)
    assert sorted(base.cache.rect(e).degree for e in base.edges) == [1, 1, 2]
    T = annular_avoiding_f_section(f)
    assert len(T.edge_set - base.edge_set) == 1
    assert [T.cache.rect(e).degree for e in T.edges] == [1, 1, 1]
    assert section_leq(apply_to_section(f, T), T)
    # here the degree-2 edge is not the tallest edge of its two faces, so
    # no offender flips down
    surface, f = torus_from_matrix([[5, 2], [2, 1]])
    base = f_section(f)
    assert sorted(base.cache.rect(e).degree for e in base.edges) == [1, 1, 2]
    with pytest.raises(InternalCheckError,
                       match="cannot reduce rectangle degrees and keep an "
                             "f-section"):
        annular_avoiding_f_section(f)


def test_sweep_overflow_names_its_budget(monkeypatch):
    # with a threshold of 1 every edge stays an offender, and each
    # down-flip of these f-sections is again an f-section
    monkeypatch.setattr(veering, "_DEGREE_THRESHOLD", 1)
    monkeypatch.setattr(veering, "_SWEEP_CAP", 6)
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    with pytest.raises(InternalCheckError,
                       match="annular-avoiding sweep exceeded _SWEEP_CAP = 6 "):
        annular_avoiding_f_section(f)


def test_sections_on_one_surface_share_its_edge_cache():
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    cache = edge_cache(surface)
    assert edge_cache(surface) is cache
    T = complete_to_section(surface)
    sections = [T, apply_to_section(f, T), flip_up(T, T.edges[0]),
                annular_avoiding_f_section(f),
                annular_avoiding_f_section(f.power(2))]
    assert all(S.cache is cache for S in sections)
    # another surface, even of the same map, has its own cache
    other, _ = torus_from_matrix([[2, 1], [1, 1]])
    assert edge_cache(other) is not cache


def test_maps_share_rectangles_but_keep_their_own_images(monkeypatch):
    surface, f = torus_from_matrix([[2, 1], [1, 1]])
    cache = edge_cache(surface)
    Tf = annular_avoiding_f_section(f)
    rects = {e: cache.rect(e) for e in Tf.edges}
    spanned = []
    real = veering.is_veering_edge

    def span(sc):
        spanned.append(sc)
        return real(sc)

    monkeypatch.setattr(veering, "is_veering_edge", span)
    g = f.power(2)
    Tg = annular_avoiding_f_section(g)
    assert Tg.edge_set == Tf.edge_set
    for e in Tg.edges:
        assert cache.rect(e) is rects[e]
        assert e not in spanned
        assert cache.image(f, e) is f._images[e]
        assert cache.image(g, e) is g._images[e]
        assert g._images[e] != f._images[e]


def test_edge_cache_images_are_per_map(torus):
    surface, f, cache = torus
    T = complete_to_section(surface)
    oriented = [sc for e in T.edges for sc in (e, cache.reverse(e))]
    # power maps are rebuilt every round and dropped at once, so a cache
    # keyed by id() would hand a new map the images of a dead one
    for n in (1, 2, 3, 2, 1, 3, 2):
        for sc in oriented:
            im = cache.image(f.power(n), sc)
            assert im == apply_to_edge(f.power(n), sc)
    for sc in oriented:
        g = f.power(2)
        im = cache.image(g, sc)
        assert cache.image(g, sc) is im
        assert im != cache.image(f, sc)


def test_crossing_memo_matches_direct_crossings_in_every_order():
    # on a negative-trace torus and on a pillowcase, whose walks cross
    # halfturns, some edge images that cross their edges are not
    # canonical, so the rectangle solver asks for oriented, non-canonical
    # pairs; one memo entry per pair serves both argument orders and
    # both orientations of each connection, inverted or composed with a
    # reverse_motion
    for f in (torus_from_matrix([[-3, -1], [-2, -1]])[1],
              eigen_pillowcase([[2, -1], [-1, 1]])[2].power(2)):
        section = annular_avoiding_f_section(f)
        cache = section.cache
        images = [cache.image(f, e) for e in section.edges]
        assert any(cache.canonical(im) != im and cache.crossings(e, im)
                   for e, im in zip(section.edges, images))
        for c in section.edges:
            for im in images:
                for x in (c, cache.reverse(c)):
                    for y in (im, cache.reverse(im)):
                        for a, b in ((x, y), (y, x)):
                            direct = saddle.crossing_motions(a, b)
                            assert set(cache.motions(a, b)) == set(direct)
                            assert cache.crossings(a, b) == len(direct)


def torus_conn(surface, x, y):
    """The saddle connection with holonomy (x, y) on a one-square torus."""
    d = vec(surface.field, x, y)
    corner, ray = surface.owning_corner(0, 0, d)
    sc = SaddleConnection.walk(surface, corner, ray)
    assert sc is not None
    return sc


def test_crossing_memo_swaps_a_pair_met_at_an_edge_point():
    # on the unit square torus (2, 1) and (-2, 1) cross three times, once
    # at the glued point (1, 1/2) ~ (0, 1/2), where they pass the vertical
    # edge in opposite senses: the pieces meet there from both sides of
    # the edge, four meetings for three crossings, and both sides give
    # one motion
    surface = square_torus()
    cache = edge_cache(surface)
    a, b = (torus_conn(surface, x, 1) for x in (2, -2))
    meetings = sum(
        segment_intersection(p, q, u, v)[0] == "point"
        for (_, p, q) in a.pieces for (_, u, v) in b.pieces)
    assert meetings == 4 and len(saddle.crossing_motions(a, b)) == 3
    for x in (a, cache.reverse(a)):
        for y in (b, cache.reverse(b)):
            for p, q in ((x, y), (y, x)):
                assert (set(cache.motions(p, q))
                        == set(saddle.crossing_motions(p, q)))
    assert len(cache.crossed) == 1
    assert cache.crossings(a, b) == 3


def _rect_data(rect):
    return (rect.bounds, rect.placements, rect.degree, rect.width,
            rect.height)


def test_edge_cache_rect_is_in_the_oriented_frame(torus):
    surface, f, cache = torus
    T = complete_to_section(surface)
    frames_differ = 0
    for e in T.edges:
        r = cache.reverse(e)
        assert cache.canonical(r) is e and r != e
        assert _rect_data(cache.rect(r)) == _rect_data(is_veering_edge(r))
        assert _rect_data(cache.rect(e)) == _rect_data(is_veering_edge(e))
        if cache.rect(r).bounds != cache.rect(e).bounds:
            frames_differ += 1
    # the two orientations of an edge span their rectangle in different
    # frames, so a cache keyed by the unoriented edge would mix them up
    assert frames_differ > 0


def _square_torus():
    field = RealNumberField.create(
        [Fraction(0), Fraction(1)], Fraction(-1), Fraction(1))
    z, o = field.zero(), field.one()
    sq = ConvexPolygon([Vec2(z, z), Vec2(o, z), Vec2(o, o), Vec2(z, o)])
    glu = {}
    for a, b in (((0, 0), (0, 2)), ((0, 1), (0, 3))):
        glu[a] = (b, "translation")
        glu[b] = (a, "translation")
    return FlatSurface(field, [sq], glu, marked_corners=[(0, 0)])


def test_square_torus_has_no_section():
    surf = _square_torus()
    with pytest.raises(UnsupportedSurface):
        complete_to_section(surf)


def test_axis_seed_rejected():
    surf = _square_torus()
    o = surf.field.one()
    z = surf.field.zero()
    corner, ray = surf.owning_corner(0, 0, Vec2(o, z))
    sc = SaddleConnection.walk(surf, corner, ray)
    assert sc is not None and sc.is_horizontal()
    with pytest.raises(NotVeering):
        complete_to_section(surf, [sc])


@pytest.mark.parametrize("make, edge", [
    (square_torus, "polygon edge (0, 0) has holonomy (1, 0)"),
    (octagon_surface, "polygon edge (0, 0) has holonomy (1, 0)"),
    (pillowcase, "polygon edge (0, 0) has holonomy (1/2, 0)"),
], ids=["torus", "octagon", "pillowcase"])
def test_axis_parallel_polygon_edge_rejects_at_once(monkeypatch, make, edge):
    # every polygon vertex is singular or marked, so a horizontal polygon
    # edge is a horizontal saddle connection, and no section exists; the
    # default box search (seconds to minutes on these) must not start
    def no_search(self, box):
        raise AssertionError("searched box %d" % box)

    monkeypatch.setattr(veering.EdgeCache, "box_candidates", no_search)
    with pytest.raises(UnsupportedSurface, match=re.escape(edge)):
        complete_to_section(make())


def _scaled_cat_torus(k):
    """The eigen torus of [[2, 1], [1, 1]] with its chart scaled by k."""
    surface, _ = torus_from_matrix([[2, 1], [1, 1]])
    s = surface.field.rational(k)
    poly = ConvexPolygon([v.scale(s) for v in surface.polygons[0].vertices])
    return FlatSurface(surface.field, [poly], surface.gluings,
                       marked_corners=[(0, 0)])


def test_box_overflow_names_its_budget(monkeypatch):
    # scaled by 8 the torus completes only at box 8, the fourth of the
    # default five boxes
    surface = _scaled_cat_torus(8)
    assert max(complete_to_section(surface).cache.boxes) == 8
    monkeypatch.setattr(veering, "_BOX_DOUBLINGS", 2)
    with pytest.raises(UnsupportedSurface,
                       match="box 4 after _BOX_DOUBLINGS = 2 "):
        complete_to_section(_scaled_cat_torus(8))


# ---------------------------------------------------------------------------
# the canonical box search

CANONICAL_MATRICES = [[[2, 1], [1, 1]], [[3, 1], [2, 1]],
                      [[-2, -1], [-1, -1]], [[-3, -1], [-2, -1]],
                      [[5, 2], [2, 1]]]
# (name, surface builder, boxes).  Box 4 on the eigen pillowcase of
# [[5, 2], [2, 1]] alone takes about 10 s, and a negative matrix builds
# the same eigen pillowcase as its positive, so these stop at box 2.
CANONICAL_SURFACES = [
    (make.__name__, make, (1, 2, 4))
    for make in (square_torus, pillowcase, octagon_surface, l_origami,
                 h11_origami)
] + [
    ("torus%s" % m, lambda m=m: torus_from_matrix(m)[0], (1, 2, 4))
    for m in CANONICAL_MATRICES
] + [
    ("eigen_pillowcase%s" % m, lambda m=m: eigen_pillowcase(m)[0],
     (1, 2, 4) if m[0][0] in (2, 3) else (1, 2))
    for m in CANONICAL_MATRICES
]


def canonical_reference(surface, box):
    """The canonical non-axis representatives of the all-oriented
    enumerate_saddles(surface, box, box), sorted: of each connection and
    its reverse, found in the same list, the one with the smaller
    sort_key."""
    found = saddle.enumerate_saddles(surface, box, box)
    by_start = {(sc.start_corner, sc.hol): sc for sc in found}
    reps = {min(sc, by_start[sc.reverse_start()],
                key=SaddleConnection.sort_key)
            for sc in found if not (sc.is_horizontal() or sc.is_vertical())}
    return sorted(reps, key=SaddleConnection.sort_key)


@pytest.mark.parametrize("make, boxes",
                         [s[1:] for s in CANONICAL_SURFACES],
                         ids=[s[0] for s in CANONICAL_SURFACES])
def test_canonical_box_search_matches_the_oriented_reference(
        monkeypatch, make, boxes):
    # box_candidates runs the canonical search, which leaves connections
    # out before their walk; it keeps every canonical representative of
    # the all-oriented search, which the pinned records fix, and without
    # halfturns nothing else; EdgeCache.canonical picks among what it
    # keeps.  A smaller box's representatives are those of the largest
    # inside it.
    surface = make()
    halfturn = any(tr.flip for tr in surface.transitions.values())
    ref = canonical_reference(surface, max(boxes))
    searches = []

    def recorded(*args, **kwargs):
        searches.append((args, kwargs, saddle.enumerate_saddles(*args,
                                                                **kwargs)))
        return searches[-1][2]
    monkeypatch.setattr(veering, "enumerate_saddles", recorded)
    cache = EdgeCache(surface)
    for box in boxes:
        b = surface.field.rational(box)
        want = tuple(sc for sc in ref
                     if abs(sc.hol.x) <= b and abs(sc.hol.y) <= b)
        assert want and cache.box_candidates(box) == want, box
        args, kwargs, kept = searches[-1]
        assert args == (surface, box, box) and kwargs == {"canonical": True}
        assert set(want) <= set(kept), box
        assert halfturn or tuple(kept) == want, box


@pytest.mark.parametrize("make", [
    lambda: torus_from_matrix([[2, 1], [1, 1]])[0],
    lambda: torus_from_matrix([[5, 2], [2, 1]])[0],
    octagon_surface, l_origami, h11_origami,
], ids=["cat_torus", "torus[[5,2],[2,1]]", "octagon", "l_origami",
        "h11_origami"])
@pytest.mark.parametrize("box", [1, 2])
def test_canonical_box_search_walks_each_connection_once(
        monkeypatch, make, box):
    # on a surface without halfturns the search keeps one orientation of
    # each connection and sees each vertex once, so every walk it makes
    # is a box candidate, and canonical() walks no reverse
    surface = make()
    walks = []
    real = SaddleConnection.walk

    def counted(*args):
        walks.append(args)
        return real(*args)
    monkeypatch.setattr(SaddleConnection, "walk", staticmethod(counted))
    got = EdgeCache(surface).box_candidates(box)
    assert got and len(walks) == len(got)
