"""Reference plane predicates decided by exact field signs alone.

orient, segment_intersection, contains and clip_halfplane are
pafix.geom's orient, segment_intersection, ConvexPolygon.contains and
ConvexPolygon.clip_halfplane as they were before the float interval
filters: every sign is an exact FieldElement.sign of a difference or a
cross product, and contains re-checks a point on an edge line against the
edge spans with on_segment.  seg_meets_box is the exact Liang-Barsky
test of a segment against an axis box, open or closed.
chord_in_region is a clipping test of a segment against a convex
region, closed or open; its open form is the interior test that
pafix.saddle._chord decides from exact sides.  rect_placements is the
cover of a spanning rectangle as pafix.saddle built it with the box
test: across the edges whose open segment meets the open rectangle.
canonical_point is FlatSurface.canonical_point as it was before the
one-pass classifier: contains first, then a search of the edges with
on_segment.  validate_continuity is PiecewiseAffineMap's
continuity check as it was before the vertex stars: every pair of piece
sides, and every piece side against every glued polygon edge, compared
at the ends of their shared segment.  cover and trace are
pafix.saddle's cover and trace as they were before they worked in the
chart's own frame: cover places each chart in the region's frame, tests
its vertices with contains, intersects the placed polygon with the
region and pulls the piece back, and crosses the edges that
region_chord, the orient-sign chord test it called, accepts: every edge
meeting the closed region in a chord of positive length, so also the
edges along the region's sides, which add no piece; trace
rescales its remaining vector by each transition's matrix.  The tests
compare the filtered predicates, the covers, the trace and the star
check against them.
"""

from pafix import geom
from pafix.errors import Discontinuous, InputError, NonConvexPolygon
from pafix.flatsurf import SurfacePoint
from pafix.geom import (
    ConvexPolygon,
    Vec2,
    boxes_disjoint,
    float_box,
)
from pafix.saddle import (
    TraceResult,
    _place_cross,
    _place_key,
    _place_unapply,
)


def _place_apply(eps, shift, v):
    return (v + shift) if eps == 1 else (shift - v)


def orient(a, b, c):
    return (b - a).cross(c - a).sign()


def on_segment(p, a, b):
    if orient(a, b, p) != 0:
        return False
    d = b - a
    t = (p - a).dot(d)
    return t.sign() >= 0 and (t - d.dot(d)).sign() <= 0


def segment_intersection(a, b, c, d):
    r = b - a
    s = d - c
    denom = r.cross(s)
    ca = c - a
    if denom.sign() != 0:
        t = ca.cross(s) / denom
        u = ca.cross(r) / denom
        if t.sign() < 0 or (t - 1).sign() > 0 or u.sign() < 0 or (u - 1).sign() > 0:
            return ("none",)
        return ("point", a + r.scale(t), t, u)
    if ca.cross(r).sign() != 0:
        return ("none",)
    rr = r.dot(r)
    t0 = ca.dot(r) / rr
    t1 = t0 + s.dot(r) / rr
    lo, hi = (t0, t1) if (t1 - t0).sign() > 0 else (t1, t0)
    zero, one = a.field.zero(), a.field.one()
    lo2 = lo if (lo - zero).sign() > 0 else zero
    hi2 = hi if (hi - one).sign() < 0 else one
    cmp = (hi2 - lo2).sign()
    if cmp < 0:
        return ("none",)
    if cmp == 0:
        p = a + r.scale(lo2)
        return ("point", p, lo2, (p - c).dot(s) / s.dot(s))
    return ("overlap", a + r.scale(lo2), a + r.scale(hi2))


def contains(vertices, p):
    """2 = interior, 1 = boundary, 0 = outside, for the CCW vertices."""
    res = 2
    n = len(vertices)
    for i in range(n):
        s = orient(vertices[i], vertices[(i + 1) % n], p)
        if s < 0:
            return 0
        if s == 0:
            res = 1
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    if res == 1 and not any(on_segment(p, a, b) for a, b in edges):
        return 0
    return res


def clip_halfplane(vertices, p, d, side=None):
    """Vertices of the CCW polygon clipped to the closed halfplane left of
    the line through p along d, or None when the clip has empty interior.
    side(v), if given, replaces the exact sign of (v - p) x d."""
    n = len(vertices)
    if side is None:
        sides = [(v - p).cross(d).sign() for v in vertices]
    else:
        sides = [side(v) for v in vertices]
    keep = [s <= 0 for s in sides]
    if all(keep):
        return tuple(vertices)
    if not any(s < 0 for s in sides):
        return None
    out = []
    for i in range(n):
        j = (i + 1) % n
        if keep[i]:
            out.append(vertices[i])
        if (sides[i] < 0 < sides[j]) or (sides[j] < 0 < sides[i]):
            a, b = vertices[i], vertices[j]
            r = b - a
            t = (p - a).cross(d) / r.cross(d)
            out.append(a + r.scale(t))
    try:
        return ConvexPolygon(drop_collinear(out)).vertices
    except NonConvexPolygon:
        return None


def drop_collinear(verts):
    """verts without repeated points and without any point collinear with
    its two neighbours, dropped one at a time by pafix.geom's orient: the
    relaxed polygon construction clip_halfplane was checked against."""
    out = list(verts)
    changed = True
    while changed and len(out) >= 3:
        changed = False
        n = len(out)
        for i in range(n):
            a, b, c = out[(i - 1) % n], out[i], out[(i + 1) % n]
            if b == a or geom.orient(a, b, c) == 0:
                out.pop(i)
                changed = True
                break
    return out


def seg_meets_box(a, b, bounds, closed):
    """Does segment ab meet the axis box (x0, x1, y0, y1)?  closed=False
    asks the open segment to meet the open box."""
    x0, x1, y0, y1 = bounds
    field = a.x.field
    lo = field.zero()
    hi = field.one()
    d = b - a
    for av, dv, blo, bhi in ((a.x, d.x, x0, x1), (a.y, d.y, y0, y1)):
        if dv.is_zero():
            s_lo = (av - blo).sign()
            s_hi = (av - bhi).sign()
            if closed:
                if s_lo < 0 or s_hi > 0:
                    return False
            else:
                if s_lo <= 0 or s_hi >= 0:
                    return False
            continue
        t_lo = (blo - av) / dv
        t_hi = (bhi - av) / dv
        if (t_hi - t_lo).sign() < 0:
            t_lo, t_hi = t_hi, t_lo
        if (t_lo - lo).sign() > 0:
            lo = t_lo
        if (t_hi - hi).sign() < 0:
            hi = t_hi
    s = (hi - lo).sign()
    return s >= 0 if closed else s > 0


def rect_placements(sc):
    """(bounds, pieces) of the rectangle with sc as its diagonal, or None
    when a placed vertex lies inside it.  Placements develop from sc's own
    chain, depth first with the last reached first, across every glued
    edge whose open segment meets the open rectangle; pieces are
    [(chart, eps, shift, piece)] in first-reached order, one per placement
    meeting the rectangle with positive area, piece in chart coordinates."""
    surface = sc.surface
    p0 = sc.start_point().pos
    p1 = p0 + sc.hol
    x0, x1 = min(p0.x, p1.x), max(p0.x, p1.x)
    y0, y1 = min(p0.y, p1.y), max(p0.y, p1.y)
    bounds = (x0, x1, y0, y1)
    box = ConvexPolygon([Vec2(x0, y0), Vec2(x1, y0), Vec2(x1, y1),
                         Vec2(x0, y1)])
    seen = set()
    stack = []
    pieces = []
    fresh = list(sc.placements)
    while True:
        for chart, eps, shift in fresh:
            if (chart, eps, shift) in seen:
                continue
            seen.add((chart, eps, shift))
            placed = [_place_apply(eps, shift, v)
                      for v in surface.polygons[chart].vertices]
            if any(contains(box.vertices, w) == 2 for w in placed):
                return None
            clip = ConvexPolygon(placed).intersect(box)
            if clip is not None:
                piece = ConvexPolygon([_place_unapply(eps, shift, v)
                                       for v in clip.vertices])
                pieces.append((chart, eps, shift, piece))
            stack.append((chart, eps, shift, placed))
        if not stack:
            return bounds, pieces
        chart, eps, shift, placed = stack.pop()
        m = len(placed)
        fresh = []
        for e in range(m):
            if seg_meets_box(placed[e], placed[(e + 1) % m], bounds,
                             closed=False):
                tr = surface.transitions[(chart, e)]
                fresh.append((tr.target[0], *_place_cross(eps, shift, tr)))


def canonical_point(surface, sp):
    """(kind, key, representative) of a surface point, in two passes."""
    poly = surface.polygons[sp.chart]
    cls = surface.vertex_class_at(sp)
    if cls is not None:
        return ("vertex", cls, surface.vertex_point(cls))
    c = contains(poly.vertices, sp.pos)
    if c == 2:
        return ("interior", (sp.chart, sp.pos.x.coeffs, sp.pos.y.coeffs), sp)
    if c == 0:
        raise InputError("point %r lies outside its chart" % (sp,))
    for e, (a, b) in enumerate(poly.edges()):
        if on_segment(sp.pos, a, b):
            partner, _ = surface.gluings[(sp.chart, e)]
            if partner < (sp.chart, e):
                other = surface.cross_edge((sp.chart, e), sp.pos)
                return ("edge",
                        (partner, other.pos.x.coeffs, other.pos.y.coeffs),
                        other)
            return ("edge", ((sp.chart, e), sp.pos.x.coeffs, sp.pos.y.coeffs),
                    sp)
    raise AssertionError("boundary point not on any edge")


def chord_in_region(region, a, b, closed):
    """Does segment ab meet the closed convex region in a chord of positive
    length?  Liang-Barsky: clip the parameter range [0, 1] of ab to each
    edge's closed inner halfplane, dividing by each edge's cross product,
    then test the middle of what is left.  closed=False asks the segment
    to meet the region's interior: the middle to lie strictly inside."""
    field = a.x.field
    lo, hi = field.zero(), field.one()
    r = b - a
    vs = region.vertices
    n = len(vs)
    for i in range(n):
        p, q = vs[i], vs[(i + 1) % n]
        d = q - p
        num = (p - a).cross(d)
        sden = r.cross(d).sign()
        if sden == 0:
            if num.sign() < 0:
                return False
            continue
        t = num / r.cross(d)
        if sden > 0:
            if (t - hi).sign() < 0:
                hi = t
        elif (t - lo).sign() > 0:
            lo = t
        if (hi - lo).sign() <= 0:
            return False
    mid = a + r.scale((lo + hi) / 2)
    return contains(vs, mid) >= (1 if closed else 2)


def validate_continuity(m):
    """Raise Discontinuous where two pieces of the map m, or a piece and
    its crossing of a glued edge, disagree at an end of a shared segment;
    float boxes skip the pairs of sides that cannot share one."""
    surface = m.surface
    sides = {piece: [(a, b, float_box((a, b))) for a, b in piece.region.edges()]
             for piece in m.pieces}
    for chart in range(len(surface.polygons)):
        pieces = m._by_chart[chart]
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                if boxes_disjoint(pieces[i].region.float_bbox(),
                                  pieces[j].region.float_bbox()):
                    continue
                for a, b, box1 in sides[pieces[i]]:
                    for c, d, box2 in sides[pieces[j]]:
                        if boxes_disjoint(box1, box2):
                            continue
                        hit = segment_intersection(a, b, c, d)
                        if hit[0] != "overlap":
                            continue
                        for pt in hit[1:]:
                            p1 = SurfacePoint(pieces[i].target,
                                              pieces[i].map.apply(pt))
                            p2 = SurfacePoint(pieces[j].target,
                                              pieces[j].map.apply(pt))
                            if not surface.same_point(p1, p2):
                                raise Discontinuous(
                                    "pieces disagree at %r in chart %d"
                                    % (pt, chart))
    for (edge, tr) in surface.transitions.items():
        chart, e = edge
        a, b = surface.polygons[chart].edges()[e]
        box1 = float_box((a, b))
        for piece in m._by_chart[chart]:
            if boxes_disjoint(box1, piece.region.float_bbox()):
                continue
            for c, d, box2 in sides[piece]:
                if boxes_disjoint(box1, box2):
                    continue
                hit = segment_intersection(a, b, c, d)
                if hit[0] != "overlap":
                    continue
                for pt in hit[1:]:
                    other = surface.cross_edge(edge, pt)
                    img1 = SurfacePoint(piece.target, piece.map.apply(pt))
                    img2 = m.apply(other)
                    if not surface.same_point(img1, img2):
                        raise Discontinuous(
                            "pieces disagree across edge %s at %r"
                            % (edge, pt))


def region_chord(region, a, b):
    """Does segment ab meet the closed convex region in a chord of positive
    length?  Float boxes reject, then each edge line is tried with the
    orient sign of a and, unless a is strictly inside it, of b; then the
    segment's own line."""
    if boxes_disjoint(float_box((a, b)), region.float_bbox()):
        return False
    vs = region.vertices
    n = len(vs)
    for i in range(n):
        p, q = vs[i], vs[(i + 1) % n]
        sa = geom.orient(p, q, a)
        if sa > 0:
            continue
        sb = geom.orient(p, q, b)
        if sb > 0:
            continue
        return sa == 0 == sb and \
            segment_intersection(a, b, p, q)[0] == "overlap"
    sides = {geom.orient(a, b, v) for v in vs}
    return 1 in sides and -1 in sides


def cover(surface, seeds, region, budget):
    """[(chart, eps, shift, piece)] of the region, or None when a placed
    vertex lies inside it, with each chart placed in the region's frame."""
    name, limit = budget
    seen = set()
    stack = []
    out = []
    fresh = seeds
    expanded = 0
    while True:
        for chart, eps, shift in fresh:
            key = _place_key(chart, eps, shift)
            if key in seen:
                continue
            seen.add(key)
            placed = [_place_apply(eps, shift, v)
                      for v in surface.polygons[chart].vertices]
            for w in placed:
                if region.contains(w) == 2:
                    return None
            clip = ConvexPolygon(placed).intersect(region)
            if clip is not None:
                piece = ConvexPolygon([_place_unapply(eps, shift, v)
                                       for v in clip.vertices])
                out.append((chart, eps, shift, piece))
            stack.append((chart, eps, shift, placed))
        if not stack:
            return out
        chart, eps, shift, placed = stack.pop()
        expanded += 1
        if expanded > limit:
            raise AssertionError("unfolding exceeded %s = %d placements"
                                 % (name, limit))
        m = len(placed)
        fresh = []
        for e in range(m):
            if region_chord(region, placed[e], placed[(e + 1) % m]):
                tr = surface.transitions[(chart, e)]
                fresh.append((tr.target[0], *_place_cross(eps, shift, tr)))


def trace(surface, chart, pos, vec):
    """The TraceResult of the walk pos -> pos + vec, carrying the vector
    still to walk through each transition's map."""
    field = surface.field
    one = field.one()
    rem = vec
    s_total = field.zero()
    sign = 1
    eps, shift = 1, Vec2(field.zero(), field.zero())
    pieces, crossings, placements = [], [], []
    while True:
        poly = surface.polygons[chart]
        n = len(poly)
        best_t = None
        best_edge = -1
        for e in range(n):
            a = poly.vertices[e]
            b = poly.vertices[(e + 1) % n]
            ev = b - a
            if ev.cross(rem).sign() >= 0:
                continue
            t = ev.cross(pos - a) / (-ev.cross(rem))
            if best_t is None or t < best_t:
                best_t = t
                best_edge = e
        if best_t is None or best_t >= one:
            x = pos + rem
            pieces.append((chart, pos, x))
            placements.append((chart, eps, shift))
            end_vertex = surface.vertex_index(chart, x)
            status = "vertex" if end_vertex is not None else "end"
            return TraceResult(status, one, pieces, crossings, placements,
                               chart, x, end_vertex, sign)
        t = best_t
        x = pos if t.is_zero() else pos + rem.scale(t)
        if x != pos:
            pieces.append((chart, pos, x))
            placements.append((chart, eps, shift))
        s_total = s_total + (one - s_total) * t
        hit_vertex = surface.vertex_index(chart, x)
        if hit_vertex is not None:
            return TraceResult("vertex", s_total, pieces, crossings,
                               placements, chart, x, hit_vertex, sign)
        tr = surface.transitions[(chart, best_edge)]
        q, e2 = tr.target
        crossings.append((chart, best_edge, q, e2))
        rem = tr.map.mat.apply(rem.scale(one - t))
        pos = tr.map.apply(x)
        eps, shift = _place_cross(eps, shift, tr)
        if tr.flip:
            sign = -sign
        chart = q
