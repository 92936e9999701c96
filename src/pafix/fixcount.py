"""Exact fixed point counting for affine automorphisms.

Two independent counters are provided.  The primary one solves, for every
edge of an f-section, the affine fixed point equation of each branch of f
over the edge's spanning rectangle; every regular fixed point of f lies
in at least one such rectangle, so the deduplicated union is Fix(f) minus
the singular points, which are read off the singularity permutation.  The
oracle counter instead clips f(t) against t for every triangle t of a
section and solves the same equation per overlap piece.  Both attach a
Lefschetz number computed homologically, from the action of f on the
polygon edges modulo the polygon boundaries, as a third check: L equals
the index sum.  L is independent of both counters, but not of itself:
it is computed once per map and kept on it, so the oracle, whatever
section it runs on, reuses the count's L (the same deterministic code on
the same input would only repeat it).

Coordinates, indices and counts are exact; no step rounds.

Its search budgets (the module's _UPPER_CASE constants) stay beside
the searches they cap, not in one shared module, because tests patch
each budget on the module whose search reads it.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from . import linalg
from .errors import InputError, InternalCheckError, NotFixed, NotVeering
from .exactnum import FieldElement
from .fileio import format_element
from .flatsurf import FlatSurface, SurfacePoint
from .geom import ConvexPolygon, Vec2, cross_sign
from .saddle import (
    SaddleConnection,
    _corner_for_ray,
    _place_apply,
    _place_unapply,
    unfold,
)
from .veering import (
    Section,
    _derivative_matrix,
    _germ_of,
    annular_avoiding_f_section,
    apply_to_edge,  # not called here; bench/tests reads fixcount.apply_to_edge
    edge_cache,
    section_size,
)

__all__ = [
    "FixedPoint",
    "FixReport",
    "MarkovBound",
    "count_fixed_points",
    "fixed_point_index",
    "fixed_points_in_rectangle",
    "lefschetz_number",
    "markov_upper_bound",
    "max_edge",
    "oracle_count_fixed_points",
]

# Placements expanded while covering one developed triangle.
_COVER_CAP = 200000
# Times _germ_image quarters its probe distance before giving up.
_GERM_PROBES = 80
# Largest rectangle-pair work (placements x image placements) for which
# markov_upper_bound builds the full crossing matrix.
_PAIR_BUDGET = 200000


class FixedPoint:
    """A point with f(p) = p, in canonical chart coordinates."""

    __slots__ = ("chart", "pos", "kind", "index", "key")

    def __init__(self, chart: int, pos: Vec2, kind: str, index: int, key):
        self.chart = chart
        self.pos = pos
        self.kind = kind      # "regular", "cone" or "marked"
        self.index = index
        self.key = key        # canonical-point key; equal iff same point

    def sort_key(self):
        return (self.kind, repr(self.key))

    def record(self):
        return (self.kind, self.chart, format_element(self.pos.x),
                format_element(self.pos.y), self.index)

    def __eq__(self, other):
        return isinstance(other, FixedPoint) and self.key == other.key

    def __hash__(self):
        return hash((self.kind, repr(self.key)))

    def __repr__(self):
        return "FixedPoint(%s, chart %d, (%s, %s), index %d)" % (
            self.kind, self.chart, self.pos.x, self.pos.y, self.index)


class FixReport:
    """Inventory of Fix(f) with indices and per-rectangle attribution."""

    __slots__ = ("points", "per_edge", "lefschetz", "method")

    def __init__(self, points, per_edge, lefschetz, method):
        self.points = tuple(sorted(points, key=lambda p: p.sort_key()))
        self.per_edge = per_edge
        self.lefschetz = lefschetz
        self.method = method

    @property
    def total(self) -> int:
        return len(self.points)

    @property
    def regular_count(self) -> int:
        return sum(1 for p in self.points if p.kind == "regular")

    @property
    def singular_count(self) -> int:
        return self.total - self.regular_count

    @property
    def index_sum(self) -> int:
        return sum(p.index for p in self.points)

    def point_keys(self) -> frozenset:
        return frozenset(repr(p.key) for p in self.points)

    def summary(self):
        return (self.total, self.regular_count, self.singular_count,
                self.lefschetz, self.method)

    def records(self):
        return [p.record() for p in self.points]

    def __repr__(self):
        return "FixReport(total=%d, regular=%d, singular=%d, lefschetz=%d)" \
            % (self.total, self.regular_count, self.singular_count,
               self.lefschetz)


# ---------------------------------------------------------------------------
# crossing data

def _param_along(sc: SaddleConnection, plane_point: Vec2):
    """Parameter t with plane_point = start + t*hol, in the walk frame."""
    p0 = sc.start_point().pos
    if not sc.hol.x.is_zero():
        return (plane_point.x - p0.x) / sc.hol.x
    return (plane_point.y - p0.y) / sc.hol.y


def _crossing_data(s1: SaddleConnection, s2: SaddleConnection):
    """Interior transverse crossings of two connections, with chart data.

    Each record is (t1, t2, chart, pos, place1, place2, side) where t_i is
    the parameter along s_i, pos is in chart coordinates, place_i is the
    (eps, shift) placement of that chart in s_i's walk frame, and side is
    the sign of cross(dir1, dir2).  One record per surface point; the
    crossings come from the surface's crossing memo."""
    out = []
    records = edge_cache(s1.surface).crossing_records(s1, s2)
    for chart, p, i, j, side in records:
        _, e1, sh1 = s1.placements[i]
        _, e2, sh2 = s2.placements[j]
        t1 = _param_along(s1, _place_apply(e1, sh1, p))
        t2 = _param_along(s2, _place_apply(e2, sh2, p))
        out.append((t1, t2, chart, p, (e1, sh1), (e2, sh2), side))
    return out


def _image_sign(f, sc: SaddleConnection, image: SaddleConnection) -> int:
    d = _derivative_matrix(f).apply(sc.hol)
    if image.hol == d:
        return 1
    if image.hol == -d:
        return -1
    raise InternalCheckError("image holonomy is not +-D times the source")


# ---------------------------------------------------------------------------
# the rectangle solver

def _regular_index(l1: FieldElement, l2: FieldElement) -> int:
    """Index of a regular fixed point where f has the derivative
    diag(l1, l2): sign det(I - Df), so -1 where f acts by +D and +1 where
    it acts by -D."""
    one = l1.field.one()
    return (one - l1).sign() * (one - l2).sign()


def _germ_turn(surface: FlatSurface, a, b, m: int) -> bool:
    """Does the counterclockwise turn from germ a to germ b around their
    vertex stay under pi, and change charts by the sign m on the way?

    A germ is ((chart, vertex), d) with d owned by the corner.  The turn
    passes the corners from a's to b's in fan_position order, so the
    chart change is read before any geometry; then d is carried across
    each fan step, so it stays a's ray in the current chart."""
    (corner, d), (target, db) = a, b
    cls, pos = surface.fan_position[corner]
    k = len(surface.cone_points[cls].corners)
    steps = (surface.fan_position[target][1] - pos) % k
    if steps == 0 and cross_sign(d, db) <= 0:
        steps = k
    turn = []
    for _ in range(steps):
        tr = surface.fan_step(corner)
        turn.append((corner, tr.flip))
        corner = tr.target
    if (-1) ** sum(flip for _, flip in turn) != m:
        return False
    for c, flip in turn:
        if cross_sign(d, surface.corner_rays(c)[1]) <= 0:
            return False
        if flip:
            d = -d
    return cross_sign(d, db) > 0


def _ends(cache, sc: SaddleConnection):
    """sc's start and end as (germ into sc, point in sc's walk frame,
    sign of the germ chart's placement there)."""
    p0 = sc.start_point().pos
    rev = cache.reverse(sc)
    return ((_germ_of(sc), p0, 1),
            (_germ_of(rev), p0 + sc.hol, 1 if rev.hol == -sc.hol else -1))


def _vertex_branches(surface, cache, sigma, image, s: int):
    """The -D branches through a vertex where an end of sigma meets the
    opposite end of its image, as deck motions (e, c), w -> e*w + c from
    image's walk frame to sigma's.

    Under -D a fixed point at relative place (x, y) in the rectangle has
    its diagonal crossing at u = (lambda*x - y)/(lambda - 1) along the
    image and t = (lambda*y - x)/(lambda - 1) along sigma, which reach the
    ends: t = 0 with u = 1, or t = 1 with u = 0.  No interior crossing
    reports that meeting.  With s the image sign, the branch's linear
    part e*s*D is -D, so e = -s, and it carries the image's end onto
    sigma's.  It is a branch of f only when the two germs' charts meet
    around the vertex, within a turn under pi, by the chart change that
    e asks for."""
    (a0, a1), (b0, b1) = _ends(cache, sigma), _ends(cache, image)
    e = -s
    out = []
    for (ga, pa, ea), (gb, qb, eb) in ((a0, b1), (a1, b0)):
        if surface.corner_class[ga[0]] != surface.corner_class[gb[0]]:
            continue
        m = ea * e * eb
        if _germ_turn(surface, gb, ga, m) or _germ_turn(surface, ga, gb, m):
            out.append((e, pa - qb if e == 1 else pa + qb))
    return out


def fixed_points_in_rectangle(f, sigma: SaddleConnection) -> List[FixedPoint]:
    """Regular fixed points of f inside sigma's spanning rectangle.

    Every crossing of sigma with f(sigma), and every meeting of an end of
    sigma with the opposite end of f(sigma) at a vertex, selects one
    affine branch of f over the rectangle; the branch's unique fixed point
    is kept when it lands in the open rectangle and survives an exact
    f(p) = p check.  Points are deduplicated by canonical coordinates."""
    surface = sigma.surface
    cache = edge_cache(surface)
    rect = cache.rect(sigma)
    if rect is None:
        raise NotVeering(
            "connection with holonomy (%s, %s) spans a singular rectangle"
            % (sigma.hol.x, sigma.hol.y))
    image = cache.image(f, sigma)
    s = _image_sign(f, sigma, image)
    dmat = _derivative_matrix(f)
    d1 = dmat.a if s == 1 else -dmat.a
    d2 = dmat.d if s == 1 else -dmat.d
    p0 = sigma.start_point().pos
    q0 = image.start_point().pos
    x0, x1, y0, y1 = rect.bounds
    one = surface.field.one()
    # branch g of f in sigma's frame: the lift of f along sigma is
    # z -> diag(d1, d2)(z - p0) + q0 into the image frame, composed with a
    # deck motion w -> e*w + c back to sigma's
    branches = []
    for rec in _crossing_data(sigma, image):
        (ea, sa), (eb, sb) = rec[4], rec[5]
        e = ea * eb
        branches.append((e, sa - sb if e == 1 else sa + sb))
    branches += _vertex_branches(surface, cache, sigma, image, s)
    found: Dict[object, FixedPoint] = {}
    for e, c in branches:
        l1 = d1 if e == 1 else -d1
        l2 = d2 if e == 1 else -d2
        base = (q0 + c) if e == 1 else (c - q0)
        zx = (base.x - l1 * p0.x) / (one - l1)
        zy = (base.y - l2 * p0.y) / (one - l2)
        if not (x0 < zx < x1 and y0 < zy < y1):
            continue
        z = Vec2(zx, zy)
        sp = None
        for (chart, eps, shift) in rect.placements:
            local = _place_unapply(eps, shift, z)
            if surface.polygons[chart].contains(local) >= 1:
                sp = SurfacePoint(chart, local)
                break
        if sp is None:
            raise InternalCheckError(
                "rectangle point escapes the rectangle's own unfolding")
        if not surface.same_point(f.apply(sp), sp):
            continue
        kind, key, rep = surface.canonical_point(sp)
        if kind == "vertex":
            raise InternalCheckError("open rectangle contains a vertex")
        if key not in found:
            found[key] = FixedPoint(rep.chart, rep.pos, "regular",
                                    _regular_index(l1, l2), key)
    return sorted(found.values(), key=lambda p: p.sort_key())


# ---------------------------------------------------------------------------
# singular points and indices

def _horizontal_germs(surface: FlatSurface, cone):
    """The unstable prongs at a cone point: one horizontal germ per half
    plane of the cone angle, each canonicalized by its owning corner."""
    field = surface.field
    plus = Vec2(field.one(), field.zero())
    germs = []
    for corner in sorted(cone.corners):
        for xsign, d in ((1, plus), (-1, -plus)):
            if surface.owns_ray(corner, d):
                germs.append((corner, xsign))
    if len(germs) != cone.prongs:
        raise InternalCheckError(
            "cone of angle %d*pi carries %d horizontal germs"
            % (cone.angle_pi, len(germs)))
    return germs


def _match_horizontal(surface: FlatSurface, cone, sp: SurfacePoint):
    """Germ of the horizontal ray reaching sp from a vertex of the cone's
    class inside one chart, or None when no vertex lines up."""
    for rep in surface.representatives(sp):
        ipoly = surface.polygons[rep.chart]
        for vi in range(len(ipoly)):
            if surface.corner_class[(rep.chart, vi)] != cone.id:
                continue
            off = rep.pos - ipoly.vertices[vi]
            if not off.y.is_zero() or off.x.sign() == 0:
                continue
            c2, d2 = _corner_for_ray(surface, rep.chart, vi, off)
            return (c2, 1 if d2.x.sign() > 0 else -1)
    return None


def _germ_image(f, surface: FlatSurface, cone, germ):
    """Image prong of a horizontal germ under f, by an exact probe point.

    The probe distance shrinks until the image point is horizontally
    visible from the image vertex within a single chart; a too-long probe
    wraps around the surface and lines up with nothing."""
    (chart, v), xsign = germ
    poly = surface.polygons[chart]
    pv = poly.vertices[v]
    d = Vec2(surface.field.rational(Fraction(xsign, 1)), surface.field.zero())
    t = Fraction(1, 2)
    for _ in range(_GERM_PROBES):
        pt = pv + d.scale(surface.field.rational(t))
        if poly.contains(pt) >= 1:
            hit = _match_horizontal(surface, cone, f.apply(SurfacePoint(chart, pt)))
            if hit is not None:
                return hit
        t = t / 4
    raise InternalCheckError(
        "prong image is not a horizontal germ within _GERM_PROBES = %d "
        "probes" % _GERM_PROBES)


def _singular_index(f, surface: FlatSurface, cone) -> int:
    germs = _horizontal_germs(surface, cone)
    fixed = 0
    for g in germs:
        if _germ_image(f, surface, cone, g) == g:
            fixed += 1
    if fixed == len(germs):
        return 1 - len(germs)
    if fixed == 0:
        return 1
    raise InternalCheckError(
        "cone point fixes %d of %d prongs; partially rotated prongs "
        "have no index convention here" % (fixed, len(germs)))


def fixed_point_index(p: FixedPoint, f) -> int:
    """Index of a fixed point: sign det(I - Df) at a regular point, so -1
    where f acts by +D and +1 where it acts by -D; at a singular or
    marked point +1 when f rotates the unstable prongs and 1 - prongs
    when it fixes each of them."""
    surface = f.surface
    sp = SurfacePoint(p.chart, p.pos)
    q = f.apply(sp)
    if not surface.same_point(q, sp):
        raise NotFixed("point %r moves under the map" % (p,))
    if p.kind == "regular":
        # Df from sp's chart to q's, then back across the glued edge when
        # q is sp's twin there
        lin = f.derivative_sign_at(sp)
        if q != sp:
            e = surface.polygons[q.chart].locate(q.pos)
            if surface.transitions[(q.chart, e)].flip:
                lin = -lin
        dmat = _derivative_matrix(f)
        return _regular_index(dmat.a if lin == 1 else -dmat.a,
                              dmat.d if lin == 1 else -dmat.d)
    cls = surface.vertex_class_at(sp)
    if cls is None:
        raise InputError("singular fixed point is not at a vertex")
    return _singular_index(f, surface, surface.cone_points[cls])


def _singular_fixed_points(f) -> List[FixedPoint]:
    surface = f.surface
    out = []
    for cone in surface.cone_points:
        if f.singularity_permutation.get(cone.id) != cone.id:
            continue
        sp = surface.vertex_point(cone.id)
        if not surface.same_point(f.apply(sp), sp):
            raise InternalCheckError(
                "singularity permutation fixes class %d but the point moves"
                % cone.id)
        kind = "marked" if cone.is_marked else "cone"
        idx = _singular_index(f, surface, cone)
        out.append(FixedPoint(sp.chart, sp.pos, kind, idx,
                              ("vertex", cone.id)))
    return out


# ---------------------------------------------------------------------------
# the main counter

def count_fixed_points(f) -> FixReport:
    """Exact Fix(f): rectangle solves over an annular-avoiding f-section,
    deduplicated, plus the fixed singular and marked points.  The
    section and the edge images are kept on the map and shared with the
    oracle and the Markov bound for the same map; rectangles and
    crossing numbers come from the surface's edge_cache.

    f must expand the horizontal direction: `count_fixed_points(f.inverse())`
    raises LambdaNotExpanding.  Fix(f^-1) = Fix(f), so count f instead."""
    section = annular_avoiding_f_section(f)
    per_edge = {}
    seen: Dict[str, FixedPoint] = {}
    for e in section.edges:
        pts = fixed_points_in_rectangle(f, e)
        per_edge[e] = tuple(pts)
        for fp in pts:
            seen.setdefault(repr(fp.key), fp)
    points = list(seen.values()) + _singular_fixed_points(f)
    return FixReport(points, per_edge, lefschetz_number(f), "fundamental")


def max_edge(T: Section, f) -> SaddleConnection:
    """Edge of T with the largest crossing number with its own image;
    ties go to the earliest edge in the section's deterministic order."""
    best = None
    best_n = -1
    for e in T.edges:
        n = T.cache.crossings(e, T.cache.image(f, e))
        if n > best_n:
            best, best_n = e, n
    return best


# ---------------------------------------------------------------------------
# triangle development for the oracle

def _transport_places(sc: SaddleConnection, t: Vec2):
    """sc's chart placements pushed through the translation z -> z + t."""
    return [(chart, e, sh + t) for (chart, e, sh) in sc.placements]


def _face_development(face):
    """Develop a triangular face in its first edge's walk frame.

    The face tuple traverses the boundary coherently with the interior on
    the left, so the holonomies close up counterclockwise.  Returns the
    developed triangle and seed placements from all three walks."""
    r0, r1, r2 = face
    if not (r0.hol + r1.hol + r2.hol).is_zero():
        raise InternalCheckError("face boundary does not close up")
    if r0.hol.cross(r1.hol).sign() <= 0:
        raise InternalCheckError("face development is not counterclockwise")
    v0 = r0.start_point().pos
    v1 = v0 + r0.hol
    v2 = v1 + r1.hol
    tri = ConvexPolygon([v0, v1, v2])
    seeds = list(r0.placements)
    seeds += _transport_places(r1, v1 - r1.start_point().pos)
    seeds += _transport_places(r2, v2 - r2.start_point().pos)
    return tri, seeds


def _chord_in_region(region: ConvexPolygon, a: Vec2, b: Vec2) -> bool:
    """Does segment (a, b) meet the closed region in a positive-length
    chord?  Used to decide which gluings an unfolding must cross; chords
    along the boundary count, so covers can walk around the region."""
    field = region.vertices[0].x.field
    lo, hi = field.zero(), field.one()
    r = b - a
    vs = region.vertices
    n = len(vs)
    for i in range(n):
        p, q = vs[i], vs[(i + 1) % n]
        d = q - p
        num = (p - a).cross(d)
        sden = cross_sign(r, d)
        if sden == 0:
            if num.sign() < 0:
                return False
            continue
        t = num / r.cross(d)
        if sden > 0:
            if t < hi:
                hi = t
        else:
            if t > lo:
                lo = t
        if hi <= lo:
            return False
    mid = a + r.scale((lo + hi) / 2)
    return region.contains(mid) >= 1


def _cover_region(surface: FlatSurface, seeds, region: ConvexPolygon):
    """Chart placements covering a developed convex region.

    Returns [(chart, eps, shift, piece)] with piece the chart-coordinate
    pullback of the region clipped to the placed polygon.  The search
    expands across every gluing whose edge meets the region."""
    out = []
    for chart, eps, shift, placed in unfold(
            surface, seeds, lambda a, b: _chord_in_region(region, a, b),
            ("_COVER_CAP", _COVER_CAP)):
        for w in placed:
            if region.contains(w) == 2:
                raise InternalCheckError(
                    "developed region covers a singular point")
        clip = ConvexPolygon(placed).intersect(region)
        if clip is not None:
            piece = ConvexPolygon(
                [_place_unapply(eps, shift, v) for v in clip.vertices])
            out.append((chart, eps, shift, piece))
    return out


def oracle_count_fixed_points(f, T: Section) -> FixReport:
    """Brute force counter: clip every triangle of T against its f-image
    across charts and solve the branch fixed point equation per overlap
    piece.  Independent of the rectangle route; totals must agree."""
    surface = T.surface
    cache = T.cache
    dmat = _derivative_matrix(f)
    one = surface.field.one()
    seen: Dict[str, FixedPoint] = {}
    for face in T.triangles:
        tri, seeds = _face_development(face)
        cover = _cover_region(surface, seeds, tri)
        images = tuple(cache.image(f, r) for r in face)
        itri, iseeds = _face_development(images)
        icover = _cover_region(surface, iseeds, itri)
        s = _image_sign(f, face[0], images[0])
        d1 = dmat.a if s == 1 else -dmat.a
        d2 = dmat.d if s == 1 else -dmat.d
        p0 = face[0].start_point().pos
        q0 = images[0].start_point().pos
        by_chart: Dict[int, list] = {}
        for (chart, eps, shift, piece) in icover:
            by_chart.setdefault(chart, []).append((eps, shift, piece))
        for (chart, ea, sa, piece_a) in cover:
            for (eb, sb, piece_b) in by_chart.get(chart, ()):
                overlap = piece_a.intersect(piece_b)
                if overlap is None:
                    continue
                # branch of f from chart to chart through the two frames:
                # z -> eb*(J(ea*z + sa) - sb), J(w) = diag(d1,d2)(w-p0)+q0
                l1 = ea * eb * d1
                l2 = ea * eb * d2
                cvec = Vec2(d1 * (sa.x - p0.x) + q0.x - sb.x,
                            d2 * (sa.y - p0.y) + q0.y - sb.y)
                if eb == -1:
                    cvec = -cvec
                z = Vec2(cvec.x / (one - l1), cvec.y / (one - l2))
                if overlap.contains(z) == 0:
                    continue
                sp = SurfacePoint(chart, z)
                if not surface.same_point(f.apply(sp), sp):
                    continue
                kind, key, rep = surface.canonical_point(sp)
                if kind == "vertex":
                    continue
                if repr(key) not in seen:
                    seen[repr(key)] = FixedPoint(
                        rep.chart, rep.pos, "regular",
                        _regular_index(l1, l2), key)
    points = list(seen.values()) + _singular_fixed_points(f)
    return FixReport(points, {}, lefschetz_number(f), "oracle")


# ---------------------------------------------------------------------------
# homological Lefschetz number

def _edge_chain(surface: FlatSurface, edges) -> Dict[tuple, int]:
    """Polygon edges, each run counterclockwise around its own polygon,
    as a 1-chain of the polygon complex.  Two glued edges are one cell,
    which their two polygons run in opposite directions; the cell is
    named by the smaller edge, which runs it forwards."""
    chain: Dict[tuple, int] = {}
    for edge in edges:
        twin = surface.transitions[edge].target
        cell, sign = (edge, 1) if edge < twin else (twin, -1)
        chain[cell] = chain.get(cell, 0) + sign
    return chain


def _comb(sc: SaddleConnection) -> Dict[tuple, int]:
    """sc as a 1-chain of polygon edges, homotopic to it rel endpoints.

    Each piece of sc is pushed onto its polygon's boundary, always
    counterclockwise: from the start vertex, or the edge after the entry
    edge, up to the end vertex, or the exit edge, which are left out.
    The partial edges dropped on the two sides of a crossing run along
    one glued edge there and back, so they cancel."""
    surface = sc.surface
    end_chart, _, end = sc.pieces[-1]
    starts = [sc.start_corner] + [
        (q, (e2 + 1) % len(surface.polygons[q])) for _, _, q, e2 in sc.chain]
    stops = [e for _, e, _, _ in sc.chain]
    stops.append(surface.vertex_index(end_chart, end))
    edges = []
    for (chart, k), stop in zip(starts, stops):
        n = len(surface.polygons[chart])
        while k != stop:
            edges.append((chart, k))
            k = (k + 1) % n
    return _edge_chain(surface, edges)


def lefschetz_number(f) -> int:
    """2 minus the trace of f on first homology of the closed surface,
    from the polygon complex: 2-cells the polygons, 1-cells the glued
    edges, 0-cells the vertex classes, all of them singular or marked.

    Its relative homology H1(S, V) is C1 modulo the polygon boundaries,
    and 0 -> H1(S) -> H1(S, V) -> H0~(V) -> 0 is exact, so L = 1 +
    #Fix(f|V) - tr(f on H1(S, V)).  The edges of f's own section,
    combed onto the polygon edges, span H1(S, V), and f carries them to
    their images, kept on the map since the section was built; their
    classes give the trace.
    L is computed once per map and kept on it (f._lefschetz)."""
    if f._lefschetz is None:
        surface = f.surface
        section = annular_avoiding_f_section(f)
        cells = sorted(e for e, tr in surface.transitions.items()
                       if e < tr.target)

        def vector(chain):
            return [chain.get(c, 0) for c in cells]

        boundaries = [
            vector(_edge_chain(surface, ((p, k) for k in range(len(poly)))))
            for p, poly in enumerate(surface.polygons)]
        gens = [vector(_comb(e)) for e in section.edges]
        images = [vector(_comb(section.cache.image(f, e)))
                  for e in section.edges]
        trace = linalg.quotient_trace(boundaries, gens, images)
        if trace.denominator != 1:
            raise InternalCheckError("homology trace %s is not an integer"
                                     % (trace,))
        fixed = sum(1 for c, d in f.singularity_permutation.items() if c == d)
        f._lefschetz = 1 + fixed - int(trace)
    return f._lefschetz


# ---------------------------------------------------------------------------
# the Markov style upper bound

class MarkovBound:
    """An integer upper bound for #Fix(f) from rectangle crossing counts,
    with a rational interval around the crossing matrix's Perron root."""

    __slots__ = ("bound", "matrix", "perron_interval", "method")

    def __init__(self, bound, matrix, perron_interval, method):
        self.bound = bound
        self.matrix = matrix
        self.perron_interval = perron_interval
        self.method = method

    def __repr__(self):
        return "MarkovBound(%d, method=%s)" % (self.bound, self.method)

    def __int__(self):
        return self.bound

    def __le__(self, other):
        return self.bound <= other

    def __ge__(self, other):
        return self.bound >= other


def _branch_maps(rect_a, rect_b):
    """Deduplicated plane motions carrying rect_b's frame into rect_a's,
    read off chart placements the two unfoldings share."""
    by_chart: Dict[int, list] = {}
    for (chart, eps, shift) in rect_b.placements:
        by_chart.setdefault(chart, []).append((eps, shift))
    seen = {}
    for (chart, ea, sa) in rect_a.placements:
        for (eb, sb) in by_chart.get(chart, ()):
            e = ea * eb
            t = (sa - sb) if e == 1 else (sa + sb)
            key = (e, t.x, t.y)
            if key not in seen:
                seen[key] = (e, t)
    return list(seen.values())


def _full_width_crossings(rect_a, rect_b) -> int:
    """Copies of rect_b's rectangle crossing rect_a's over its full width."""
    ax0, ax1, ay0, ay1 = rect_a.bounds
    bx0, bx1, by0, by1 = rect_b.bounds
    count = 0
    for (e, t) in _branch_maps(rect_a, rect_b):
        if e == 1:
            cx0, cx1 = bx0 + t.x, bx1 + t.x
            cy0, cy1 = by0 + t.y, by1 + t.y
        else:
            cx0, cx1 = t.x - bx1, t.x - bx0
            cy0, cy1 = t.y - by1, t.y - by0
        if cx0 <= ax0 and ax1 <= cx1 and ay0 < cy1 and cy0 < ay1:
            count += 1
    return count


def _perron_interval(n_matrix) -> Tuple[Fraction, Fraction]:
    """Collatz-Wielandt bracket for the Perron root, exact rationals.

    Iterates N + I so the test vector stays positive, then shifts back."""
    n = len(n_matrix)
    v = [Fraction(1)] * n
    for _ in range(12):
        w = [sum(n_matrix[i][j] * v[j] for j in range(n)) + v[i]
             for i in range(n)]
        big = max(w)
        v = [x / big for x in w]
    w = [sum(n_matrix[i][j] * v[j] for j in range(n)) + v[i]
         for i in range(n)]
    ratios = [w[i] / v[i] for i in range(n)]
    return (min(ratios) - 1, max(ratios) - 1)


def markov_upper_bound(f) -> MarkovBound:
    """Upper bound for the number of fixed points.

    When affordable, builds the full matrix of full-width crossings of
    each section rectangle by every image rectangle and scales its trace;
    otherwise falls back to the edge-image crossing numbers, which, with
    at most two vertex branches per rectangle, bound the per-rectangle
    branch counts from above."""
    section = annular_avoiding_f_section(f)
    cache = section.cache
    surface = section.surface
    chi = section_size(surface) // 3
    nsing = len(surface.cone_points)
    rects = [cache.rect(e) for e in section.edges]
    images = [cache.image(f, e) for e in section.edges]
    irects = [cache.rect(im) for im in images]
    if any(r is None for r in irects):
        raise InternalCheckError("image of a veering edge is not veering")
    work = sum(len(r.placements) for r in rects) \
        * sum(len(r.placements) for r in irects)
    if work <= _PAIR_BUDGET:
        n = len(rects)
        mat = [[_full_width_crossings(rects[i], irects[j]) for j in range(n)]
               for i in range(n)]
        trace = sum(mat[i][i] for i in range(n))
        bound = 9 * chi * trace + nsing
        return MarkovBound(bound, mat, _perron_interval(mat), "rectangle")
    total = sum(cache.crossings(e, im)
                for e, im in zip(section.edges, images))
    bound = 9 * chi * (total + 1) + nsing
    return MarkovBound(bound, None, None, "crossing-trace")
