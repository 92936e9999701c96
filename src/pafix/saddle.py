"""Saddle connections and their exact geometry.

Everything here rides on two primitives, both exact in the field: trace
walks a straight segment across the surface, and unfold develops chart
placements depth first across every gluing whose placed edge meets a
region.  On top of them sit saddle connection enumeration (polygon
unfolding pruned by a holonomy box), spanning rectangles with certified
immersion degree, transverse crossings and intersection numbers, and
flat cylinders built by developing the band next to a closed leaf.

Its search budgets (the module's _UPPER_CASE constants) stay beside
the searches they cap, not in one shared module, because tests patch
each budget on the module whose search reads it.
"""

import heapq
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    HorizontalOrVertical,
    InputError,
    InternalCheckError,
    NotCylinder,
    OverlappingSegments,
)
from .exactnum import FieldElement, format_element
from .flatsurf import EdgeRef, FlatSurface, SurfacePoint
from .geom import (
    ConvexPolygon,
    Vec2,
    _ibox,
    _iclip,
    boxes_disjoint,
    cross_sign,
    float_box,
    on_segment,
    segment_intersection,
)

# Search budgets; each overflow error names its own.
# Nodes popped by one corner's visibility search in enumerate_saddles.
_VISIBILITY_NODES = 200000
# Placements expanded while unfolding one spanning rectangle.
_RECT_UNFOLD_NODES = 20000
# Placements popped while developing one band beside a closed leaf.
_BAND_NODES = 20000
# Glued edges one trace may cross.
_TRACE_CROSSINGS = 200000
# Length doublings of a leaf before cylinder_through gives up.
_CYLINDER_DOUBLINGS = 48
# Steps of one ray rotation around a vertex fan.
_ROTATE_STEPS = 10000
# Saddle connections of one boundary circle walk.
_CIRCLE_STEPS = 10000


# ---------------------------------------------------------------------------
# exact integer parts of field-element ratios

def _r_int(field, k: int) -> FieldElement:
    return field.rational(Fraction(k))


def _floor_ratio(num: FieldElement, den: FieldElement) -> int:
    """floor(num / den) for den > 0, exact."""
    if den.sign() <= 0:
        raise InternalCheckError("_floor_ratio needs a positive denominator")
    r = num / den
    lo, _ = r.float_bounds()
    k = int(lo // 1)
    # float seed, exact correction
    while (r - _r_int(r.field, k)).sign() < 0:
        k -= 1
    while (r - _r_int(r.field, k + 1)).sign() >= 0:
        k += 1
    return k


def _strict_floor(num: FieldElement, den: FieldElement) -> int:
    """Largest m with m * den < num (den > 0)."""
    q = _floor_ratio(num, den)
    if (den * _r_int(den.field, q) - num).is_zero():
        return q - 1
    return q


# ---------------------------------------------------------------------------
# plane placements of charts: maps x -> eps*x + shift with eps = +-1,
# always realized by a composition of gluing transitions

def _place_apply(eps: int, shift: Vec2, v: Vec2) -> Vec2:
    return (v + shift) if eps == 1 else (shift - v)


def _place_unapply(eps: int, shift: Vec2, v: Vec2) -> Vec2:
    return (v - shift) if eps == 1 else (shift - v)


def _place_cross(eps: int, shift: Vec2, tr) -> Tuple[int, Vec2]:
    """Placement of the target chart after crossing transition tr: the
    composition (current placement) o tr^{-1}."""
    m = -1 if tr.flip else 1
    em = eps * m
    st = tr.map.shift
    return em, (shift - st if em == 1 else shift + st)


def _place_key(chart: int, eps: int, shift: Vec2):
    return (chart, eps, shift.x, shift.y)


def unfold(surface: FlatSurface, seeds, meets_edge, budget):
    """Develop chart placements from seed placements (chart, eps, shift).

    Yields (chart, eps, shift, placed vertices) once per placement, in
    first-reached order, deduplicated by _place_key.  Expansion is depth
    first, the last reached placement first, across every glued edge whose
    placed endpoints a, b satisfy meets_edge(a, b).  A caller may stop
    early by leaving the loop.  budget is (name, limit) of the constant
    capping the expanded placements; the overflow error names it."""
    name, limit = budget
    seen = set()
    stack = []
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
            yield chart, eps, shift, placed
            stack.append((chart, eps, shift, placed))
        if not stack:
            return
        chart, eps, shift, placed = stack.pop()
        expanded += 1
        if expanded > limit:
            raise InternalCheckError(
                "unfolding exceeded %s = %d placements" % (name, limit))
        m = len(placed)
        fresh = []
        for e in range(m):
            if meets_edge(placed[e], placed[(e + 1) % m]):
                tr = surface.transitions[(chart, e)]
                eps2, shift2 = _place_cross(eps, shift, tr)
                fresh.append((tr.target[0], eps2, shift2))


# ---------------------------------------------------------------------------
# the straight-line trace

class TraceResult:
    __slots__ = ("status", "consumed", "pieces", "crossings", "placements",
                 "end_chart", "end_pos", "end_vertex", "sign")

    def __init__(self, status, consumed, pieces, crossings, placements,
                 end_chart, end_pos, end_vertex, sign):
        self.status = status          # "end" or "vertex"
        self.consumed = consumed      # fraction of vec travelled, in [0, 1]
        self.pieces = pieces          # [(chart, a, b)] per-polygon segments
        self.crossings = crossings    # [(p, e, q, e2)] glued-edge crossings
        self.placements = placements  # [(chart, eps, shift)] one per piece;
        # plane frame = coordinates of the starting chart
        self.end_chart = end_chart
        self.end_pos = end_pos
        self.end_vertex = end_vertex  # vertex index when status == "vertex"
        self.sign = sign              # +-1, product of crossing flips


def trace(surface: FlatSurface, chart: int, pos: Vec2,
          vec: Vec2) -> TraceResult:
    """Walk the straight segment pos -> pos + vec across the surface.

    Stops early (status "vertex", consumed < 1) when the open segment runs
    into a polygon vertex, i.e. a cone or marked point."""
    field = surface.field
    one = field.one()
    if vec.is_zero():
        raise InputError("cannot trace a zero vector")
    rem = vec
    s_total = field.zero()
    sign = 1
    eps, shift = 1, Vec2(field.zero(), field.zero())
    pieces, crossings, placements = [], [], []
    steps = 0
    while True:
        steps += 1
        if steps > _TRACE_CROSSINGS:
            raise InternalCheckError(
                "trace exceeded _TRACE_CROSSINGS = %d crossings"
                % _TRACE_CROSSINGS)
        poly = surface.polygons[chart]
        n = len(poly)
        best_t = None
        best_edge = -1
        for e in range(n):
            a = poly.vertices[e]
            b = poly.vertices[(e + 1) % n]
            ev = b - a
            if cross_sign(ev, rem) >= 0:
                continue
            t = ev.cross(pos - a) / (-ev.cross(rem))
            if best_t is None or t < best_t:
                best_t = t
                best_edge = e
        if best_t is None or best_t >= one:
            # segment ends inside this polygon (possibly on its boundary)
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


def _corner_for_ray(surface: FlatSurface, chart: int, vidx: int, d: Vec2):
    """The corner owning ray d at a vertex, hopping around the vertex fan
    as needed.  Returns ((chart, vertex), d transported to that chart)."""
    cls = surface.corner_class[(chart, vidx)]
    fan = len(surface.cone_points[cls].corners)
    c = (chart, vidx)
    cur = d
    for _ in range(2 * fan + 2):
        if surface.owns_ray(c, cur):
            return c, cur
        tr = surface.fan_step(c)
        c = tr.target
        cur = tr.map.mat.apply(cur)
    raise InternalCheckError("ray %r has no owning corner at (%d, %d)"
                             % (d, chart, vidx))


# ---------------------------------------------------------------------------
# saddle connections

class SaddleConnection:
    """A flat geodesic between singular (cone or marked) points, certified
    by its developing chain."""

    __slots__ = ("surface", "start_corner", "hol", "chain", "pieces",
                 "placements", "end_corner", "flip_sign", "_key")

    def __init__(self, surface, start_corner, hol, chain, pieces, placements,
                 end_corner, flip_sign):
        self.surface = surface
        self.start_corner = start_corner  # (chart, vertex index)
        self.hol = hol                    # holonomy in the start chart
        self.chain = chain                # ((p, e, q, e2), ...)
        self.pieces = pieces              # ((chart, a, b), ...)
        self.placements = placements      # ((chart, eps, shift), ...)
        self.end_corner = end_corner
        self.flip_sign = flip_sign        # direction transport sign
        self._key = None

    @staticmethod
    def walk(surface: FlatSurface, corner: EdgeRef,
             hol: Vec2) -> Optional["SaddleConnection"]:
        """Trace hol from the corner; None when the segment is blocked by
        an intermediate singularity, ends at a regular point, or does not
        leave through this corner's wedge."""
        if not surface.owns_ray(corner, hol):
            return None
        chart, vidx = corner
        pos = surface.polygons[chart].vertices[vidx]
        res = trace(surface, chart, pos, hol)
        if res.status != "vertex":
            return None
        if not (res.consumed - surface.field.one()).is_zero():
            return None
        d_end = hol if res.sign == 1 else -hol
        end_corner, _ = _corner_for_ray(surface, res.end_chart,
                                        res.end_vertex, -d_end)
        return SaddleConnection(surface, corner, hol, tuple(res.crossings),
                                tuple(res.pieces), tuple(res.placements),
                                end_corner, res.sign)

    @property
    def start_class(self) -> int:
        return self.surface.corner_class[self.start_corner]

    def length_sq(self) -> FieldElement:
        return self.hol.dot(self.hol)

    def is_horizontal(self) -> bool:
        return self.hol.y.is_zero()

    def is_vertical(self) -> bool:
        return self.hol.x.is_zero()

    def start_point(self) -> SurfacePoint:
        chart, vidx = self.start_corner
        return SurfacePoint(chart, self.surface.polygons[chart].vertices[vidx])

    def reverse(self) -> "SaddleConnection":
        d_end = self.hol if self.flip_sign == 1 else -self.hol
        corner, r = _corner_for_ray(self.surface, self.end_corner[0],
                                    self.end_corner[1], -d_end)
        back = SaddleConnection.walk(self.surface, corner, r)
        if back is None:
            raise InternalCheckError("saddle connection has no reverse walk")
        return back

    def sort_key(self):
        if self._key is None:
            self._key = (self.start_class, self.hol.x, self.hol.y,
                         self.start_corner, self.chain)
        return self._key

    def canonical(self) -> "SaddleConnection":
        """Deterministic representative of the unoriented connection."""
        rev = self.reverse()
        return self if self.sort_key() < rev.sort_key() else rev

    def point_at(self, t) -> SurfacePoint:
        """Point at parameter t in (0, 1) along the connection."""
        return self._placed_point(t)[0]

    def _placed_point(self, t) -> Tuple[SurfacePoint, int]:
        """The point at parameter t with the sign eps of the placement of
        the first piece holding it."""
        if not isinstance(t, FieldElement):
            t = self.surface.field.rational(t)
        target = self.start_point().pos + self.hol.scale(t)
        for (chart, a, b), (_, eps, shift) in zip(self.pieces, self.placements):
            pa = _place_apply(eps, shift, a)
            pb = _place_apply(eps, shift, b)
            if on_segment(target, pa, pb):
                return (SurfacePoint(chart, _place_unapply(eps, shift, target)),
                        eps)
        raise InputError("parameter %s does not land on the connection" % t)

    def midpoint(self) -> SurfacePoint:
        return self.point_at(Fraction(1, 2))

    def record(self):
        """Serialization row: (start id, hol_x, hol_y, chain)."""
        return (self.start_class, format_element(self.hol.x),
                format_element(self.hol.y),
                tuple((q, e2) for (_, _, q, e2) in self.chain))

    def __eq__(self, other):
        return (isinstance(other, SaddleConnection)
                and self.start_corner == other.start_corner
                and self.hol == other.hol and self.chain == other.chain)

    def __hash__(self):
        return hash((self.start_corner, self.hol.x, self.hol.y, self.chain))

    def __repr__(self):
        return "SaddleConnection(start=%s, hol=(%s, %s))" % (
            self.start_corner, self.hol.x, self.hol.y)


# ---------------------------------------------------------------------------
# enumeration by box-pruned unfolding

def enumerate_saddles(surface: FlatSurface, bx, by) -> List[SaddleConnection]:
    """All oriented saddle connections with |hol_x| <= bx and |hol_y| <= by,
    duplicate-free, sorted by (start id, holonomy).

    Each geodesic appears twice, once per orientation; the start corner
    owning the outgoing ray is unique, so per-corner candidate dedup is
    global dedup."""
    field = surface.field
    bx = field.coerce(bx)
    by = field.coerce(by)
    if bx.sign() <= 0 or by.sign() <= 0:
        raise InputError("holonomy box bounds must be positive")
    out = []
    for corner in sorted(surface.corner_class):
        vecs = set()
        for cand in _box_candidates(surface, corner, bx, by):
            key = (cand.x, cand.y)
            if key in vecs:
                continue
            vecs.add(key)
            sc = SaddleConnection.walk(surface, corner, cand)
            if sc is not None:
                out.append(sc)
    out.sort(key=SaddleConnection.sort_key)
    return out


def _box_candidates(surface, corner, bx, by):
    """Candidate holonomies from one corner: placed singular vertices
    visible from the corner within its wedge and the holonomy box.

    The search develops the exponential map: every node is a placement
    plus the angular window of sight rays that enter it through its entry
    edge.  Rays stop at placed vertices, so windows only ever shrink, and
    each crossing along a ray is strictly farther out; the box prune makes
    the tree finite on every surface, including ones whose gluing
    translations accumulate.  Rays through a vertex are left in the
    window; the spurious candidates behind it are discarded later by the
    walk verification.

    An edge is crossed when its part inside the window meets the box.
    Float boxes skip an edge that misses the box and cross one with both
    endpoints strictly inside it without clipping; the geom module
    docstring says why both rules are sound."""
    chart, vidx = corner
    origin = surface.polygons[chart].vertices[vidx]
    out_ray, back_ray = surface.corner_rays(corner)
    bounds = (-bx, bx, -by, by)
    nbx, nby = bounds[0], bounds[2]
    bx_lo, bx_hi = bx.float_bounds()
    by_lo, by_hi = by.float_bounds()
    outer = (-bx_hi, bx_hi, -by_hi, by_hi)
    # plane frame: this chart translated so the corner sits at zero
    seed_place = (chart, 1, Vec2(-origin.x, -origin.y))
    stack = [(seed_place, out_ray, back_ray, None)]
    cands = []
    popped = 0
    while stack:
        (p, eps, shift), w1, w2, entry = stack.pop()
        popped += 1
        if popped > _VISIBILITY_NODES:
            raise InternalCheckError(
                "visibility search exceeded _VISIBILITY_NODES = %d nodes; the "
                "holonomy bound is too large" % _VISIBILITY_NODES)
        ppoly = surface.polygons[p]
        placed = [_place_apply(eps, shift, v) for v in ppoly.vertices]
        for w in placed:
            if w.is_zero():
                continue
            if w.x < nbx or w.x > bx or w.y < nby or w.y > by:
                continue
            if cross_sign(w1, w) >= 0 and cross_sign(w, w2) >= 0:
                cands.append(w)
        m = len(ppoly)
        for e in range(m):
            if e == entry:
                continue
            a, b = placed[e], placed[(e + 1) % m]
            if a.is_zero() or b.is_zero():
                continue
            if cross_sign(a, b) <= 0:
                # not an outward crossing as seen from the origin
                continue
            lo = hi = None
            # intersect the cones [w1, w2] and [a, b], both below pi
            if _in_cone(w1, w2, a):
                lo = a
            elif _in_cone(a, b, w1):
                lo = w1
            if _in_cone(w1, w2, b):
                hi = b
            elif _in_cone(a, b, w2):
                hi = w2
            if lo is None or hi is None or cross_sign(lo, hi) <= 0:
                continue
            sx0, sx1, sy0, sy1 = seg = float_box((a, b))
            if boxes_disjoint(seg, outer):
                continue
            if not (-bx_lo < sx0 and sx1 < bx_lo
                    and -by_lo < sy0 and sy1 < by_lo):
                ca, cb = _clip_to_cone(a, b, lo, hi)
                if ca is None or not _seg_meets_box(ca, cb, bounds, closed=True):
                    continue
            tr = surface.transitions[(p, e)]
            eps2, shift2 = _place_cross(eps, shift, tr)
            stack.append(((tr.target[0], eps2, shift2), lo, hi,
                          tr.target[1]))
    return cands


def _in_cone(u: Vec2, v: Vec2, x: Vec2) -> bool:
    """x inside the closed cone from ray u counterclockwise to ray v; the
    cone must span less than pi."""
    return cross_sign(u, x) >= 0 and cross_sign(x, v) >= 0


def _clip_to_cone(a: Vec2, b: Vec2, lo: Vec2, hi: Vec2):
    """Clip segment ab to the closed cone between rays lo and hi (CCW,
    angle below pi).  Returns (a', b') or (None, None) if empty."""
    field = a.x.field
    t0 = field.zero()
    t1 = field.one()
    d = b - a
    for ray, side in ((lo, 1), (hi, -1)):
        # keep cross(ray, x) * side >= 0
        fa = ray.cross(a) * field.rational(side)
        fd = ray.cross(d) * field.rational(side)
        if fd.is_zero():
            if fa.sign() < 0:
                return None, None
            continue
        t = -fa / fd
        if fd.sign() > 0:
            if t > t0:
                t0 = t
        else:
            if t < t1:
                t1 = t
    if t1 < t0:
        return None, None
    return a + d.scale(t0), a + d.scale(t1)


def _seg_meets_box(a: Vec2, b: Vec2, bounds, closed: bool) -> bool:
    """Does segment ab (a != b) meet the axis box (x0, x1, y0, y1)?
    closed=False asks the open segment to meet the open box.

    Floats decide first: disjoint float boxes reject, an endpoint strictly
    inside the box accepts (near it, the open segment is inside the open
    box), and Liang-Barsky clipping over intervals accepts when the
    interval of the clipped length lies above 0.  Exact clipping decides
    the rest."""
    fx0, fx1, fy0, fy1 = fbox = tuple(v.float_bounds() for v in bounds)
    (ax, ay), (bx, by) = fa, fb = _ibox(a), _ibox(b)
    seg = (min(ax[0], bx[0]), max(ax[1], bx[1]),
           min(ay[0], by[0]), max(ay[1], by[1]))
    if boxes_disjoint(seg, (fx0[0], fx1[1], fy0[0], fy1[1])):
        return False
    for px, py in (fa, fb):
        if fx0[1] < px[0] and px[1] < fx1[0] and fy0[1] < py[0] and py[1] < fy1[0]:
            return True
    length = _iclip(fa, fb, fbox)
    if length is not None and length[0] > 0:
        return True
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
        if t_hi < t_lo:
            t_lo, t_hi = t_hi, t_lo
        if t_lo > lo:
            lo = t_lo
        if t_hi < hi:
            hi = t_hi
    s = (hi - lo).sign()
    return s >= 0 if closed else s > 0


# ---------------------------------------------------------------------------
# spanning rectangles and immersion degree

class SpanningRectangle:
    """The axis-parallel rectangle an edge spans, with immersion data.

    width and height are |hol_x| and |hol_y| of the diagonal edge; degree
    is the largest number of rectangle sheets over one surface point.  For
    degree >= 2 the generating deck translation and a witnessing flat
    annulus (the maximal cylinder in the translation direction through the
    diagonal's midpoint) are attached.  ambiguous flags overlap data whose
    translations are not all multiples of one generator."""

    __slots__ = ("edge", "width", "height", "degree", "witness", "ambiguous",
                 "translation", "bounds", "placements")

    def __init__(self, edge, width, height, deg, witness, ambiguous,
                 translation, bounds, placements):
        self.edge = edge
        self.width = width
        self.height = height
        self.degree = deg
        self.witness = witness
        self.ambiguous = ambiguous
        self.translation = translation
        self.bounds = bounds          # (x0, x1, y0, y1) in the edge's frame
        self.placements = placements  # rectangle unfolding, same frame

    def __repr__(self):
        return "SpanningRectangle(degree=%d, %s x %s)" % (
            self.degree, self.width, self.height)


def is_veering_edge(sc: SaddleConnection) -> Optional[SpanningRectangle]:
    """The spanning rectangle of sc, or None when the open rectangle with
    sc as its diagonal develops over a singular or marked point."""
    surface = sc.surface
    if sc.is_horizontal() or sc.is_vertical():
        raise HorizontalOrVertical(
            "connection with holonomy (%s, %s) spans no rectangle"
            % (sc.hol.x, sc.hol.y))
    p0 = sc.start_point().pos
    x2 = p0.x + sc.hol.x
    y2 = p0.y + sc.hol.y
    bounds = (min(p0.x, x2), max(p0.x, x2), min(p0.y, y2), max(p0.y, y2))
    placements = _develop_rect(surface, sc, bounds)
    if placements is None:
        return None
    width = abs(sc.hol.x)
    height = abs(sc.hol.y)
    deg, witness, ambiguous, translation = _rect_degree(
        surface, sc, bounds, placements, width, height)
    return SpanningRectangle(sc, width, height, deg, witness, ambiguous,
                             translation, bounds, placements)


def _develop_rect(surface, sc, bounds):
    """Unfold the open rectangle, seeded by the diagonal's own chain.

    Returns the placements in first-reached order, or None as soon as a
    placed singular vertex lies strictly inside the rectangle."""
    x0, x1, y0, y1 = bounds
    placements = []
    for chart, eps, shift, placed in unfold(
            surface, sc.placements,
            lambda a, b: _seg_meets_box(a, b, bounds, closed=False),
            ("_RECT_UNFOLD_NODES", _RECT_UNFOLD_NODES)):
        for w in placed:
            if x0 < w.x < x1 and y0 < w.y < y1:
                return None
        placements.append((chart, eps, shift))
    return placements


def _max_depth(regions: Sequence[ConvexPolygon]) -> int:
    """Largest number of the convex regions sharing an interior point."""
    best = 1 if regions else 0
    n = len(regions)
    boxes = [r.float_bbox() for r in regions]
    # (intersection of a run of regions, its box, next index, run length)
    stack = [(regions[i], boxes[i], i + 1, 1) for i in range(n)]
    while stack:
        cur, cur_box, idx, depth = stack.pop()
        if depth > best:
            best = depth
        for j in range(idx, n):
            if boxes_disjoint(cur_box, boxes[j]):
                continue
            nxt = cur.intersect(regions[j])
            if nxt is not None:
                stack.append((nxt, nxt.float_bbox(), j + 1, depth + 1))
    return best


def _rect_degree(surface, sc, bounds, placements, width, height):
    field = surface.field
    box = ConvexPolygon([Vec2(bounds[0], bounds[2]),
                         Vec2(bounds[1], bounds[2]),
                         Vec2(bounds[1], bounds[3]),
                         Vec2(bounds[0], bounds[3])])
    by_chart: Dict[int, list] = {}
    for (chart, eps, shift) in placements:
        poly = surface.polygons[chart]
        # eps = -1 is a rotation by pi, so vertex order stays CCW
        placed = ConvexPolygon([_place_apply(eps, shift, v)
                                for v in poly.vertices])
        clipped = placed.intersect(box)
        if clipped is None:
            continue
        # pull back to chart coordinates: same-chart overlaps there are
        # genuine multiplicity over surface points
        region = ConvexPolygon([_place_unapply(eps, shift, v)
                                for v in clipped.vertices], relaxed=True)
        by_chart.setdefault(chart, []).append((eps, shift, region))
    deg = 1
    translations = []
    for chart, entries in by_chart.items():
        d = _max_depth([r for (_, _, r) in entries])
        if d > deg:
            deg = d
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if entries[i][2].intersect(entries[j][2]) is None:
                    continue
                e1, s1 = entries[i][0], entries[i][1]
                e2, s2 = entries[j][0], entries[j][1]
                if e1 != e2:
                    raise InternalCheckError(
                        "flipped self-overlap of a spanning rectangle; the "
                        "surface would contain an immersed Mobius band")
                translations.append(s2 - s1 if e1 == 1 else s1 - s2)
    if deg == 1:
        return 1, None, False, None
    gen = translations[0]
    for v in translations[1:]:
        if (v.dot(v) - gen.dot(gen)).sign() < 0:
            gen = v
    ambiguous = False
    for v in translations:
        if v.cross(gen).sign() != 0:
            ambiguous = True
            break
        k = _floor_ratio(v.dot(gen), gen.dot(gen))
        if not (gen.scale(_r_int(field, k)) - v).is_zero():
            ambiguous = True
            break
    if not ambiguous:
        stacks = []
        if not gen.x.is_zero():
            stacks.append(_strict_floor(width, abs(gen.x)))
        if not gen.y.is_zero():
            stacks.append(_strict_floor(height, abs(gen.y)))
        k_trans = 1 + min(stacks)
        if k_trans != deg:
            raise InternalCheckError(
                "translation-derived degree %d disagrees with the "
                "arrangement depth %d" % (k_trans, deg))
    witness = _degree_witness(surface, sc, gen)
    return deg, witness, ambiguous, gen


def _degree_witness(surface, sc, gen: Vec2):
    """The flat annulus certifying the overlap: the maximal cylinder
    through the edge's midpoint in the deck translation direction."""
    mid, eps = sc._placed_point(Fraction(1, 2))
    return cylinder_through(surface, mid, gen if eps == 1 else -gen)


# ---------------------------------------------------------------------------
# intersection numbers

def _meetings(s1: SaddleConnection, s2: SaddleConnection):
    """Transverse meetings of a piece i of s1 with a piece j of s2 away
    from the singular points, in (i, j) order: (key, chart, pos, i, j,
    side) with key the surface point's canonical key, pos in chart
    coordinates and side the sign of cross(dir1, dir2).  A point on a
    polygon edge is met once in each chart along the edge, so its key can
    occur twice.  A collinear overlap of positive length raises
    OverlappingSegments.

    Inside a convex chart a piece meets the chart's boundary only at its
    ends, unless the whole piece runs along a polygon edge.  A meeting
    point equal to none of the two pieces' ends a, b, c, d therefore lies
    inside the chart, and its key is (chart, coefficients), what
    canonical_point would return.  That holds also when one piece runs
    along a polygon edge: the other piece stays in the chart, so it can
    reach that edge transversally only at one of its own ends.  Only
    meetings at piece ends go through canonical_point."""
    if s1.surface is not s2.surface:
        raise InputError("connections live on different surfaces")
    surface = s1.surface
    for i, (c1, a, b) in enumerate(s1.pieces):
        for j, (c2, c, d) in enumerate(s2.pieces):
            if c1 != c2:
                continue
            r = segment_intersection(a, b, c, d)
            if r[0] == "none":
                continue
            if r[0] == "overlap":
                if r[1] == r[2]:
                    continue
                raise OverlappingSegments(
                    "connections share a parallel subsegment")
            side = (b - a).cross(d - c).sign()
            if side == 0:
                # collinear endpoint touch; a genuine geodesic overlap
                # surfaces as "overlap" in this or an adjacent chart pair
                continue
            p = r[1]
            if p == a or p == b or p == c or p == d:
                kind, key, _ = surface.canonical_point(SurfacePoint(c1, p))
                if kind == "vertex":
                    continue
            else:
                key = (c1, p.x.coeffs, p.y.coeffs)
            yield key, c1, p, i, j, side


def _first_per_point(meetings) -> tuple:
    """The crossing records (chart, pos, i, j, side) of the first meeting
    at each surface point, in the meetings' order."""
    seen = set()
    out = []
    for key, chart, pos, i, j, side in meetings:
        if key not in seen:
            seen.add(key)
            out.append((chart, pos, i, j, side))
    return tuple(out)


def crossings(s1: SaddleConnection, s2: SaddleConnection) -> tuple:
    """Transverse interior crossings of two saddle connections, one per
    surface point: records (chart, pos, i, j, side) with pos in chart
    coordinates on piece i of s1 and piece j of s2, and side the sign of
    cross(dir1, dir2); at a point on a polygon edge, the record of the
    first piece pair in (i, j) order.

    Meetings at endpoints or cone points are skipped; a collinear overlap
    of positive length raises OverlappingSegments."""
    return _first_per_point(_meetings(s1, s2))


def intersection_number(s1: SaddleConnection, s2: SaddleConnection) -> int:
    """Number of transverse interior intersections of two saddle
    connections; see crossings."""
    return len(crossings(s1, s2))


# ---------------------------------------------------------------------------
# flat cylinders

class Cylinder:
    """A maximal flat cylinder: an open annulus swept by parallel closed
    leaves.

    Lengths are kept as exact squares (a leaf's length need not lie in the
    coefficient field); the area is exact.  boundary holds the saddle
    connection circles on the two sides of the annulus."""

    __slots__ = ("surface", "core_point", "core_direction", "core_pieces",
                 "core_hol", "circumference_sq", "height_sq", "area",
                 "boundary", "_leafkey")

    def __init__(self, surface, core_point, core_direction, core_pieces,
                 core_hol, circumference_sq, height_sq, area, boundary):
        self.surface = surface
        self.core_point = core_point          # on the middle leaf
        self.core_direction = core_direction  # chart coords at core_point
        self.core_pieces = core_pieces        # [(chart, a, b)], one period
        self.core_hol = core_hol              # chart holonomy along the core
        self.circumference_sq = circumference_sq
        self.height_sq = height_sq
        self.area = area
        self.boundary = boundary              # (low side, high side)
        self._leafkey = None

    def key(self):
        """Canonical id: the middle leaf's edge-crossing points."""
        if self._leafkey is None:
            marks = set()
            for (chart, a, b) in self.core_pieces:
                for pt in (a, b):
                    kind, k, _ = self.surface.canonical_point(
                        SurfacePoint(chart, pt))
                    if kind == "edge":
                        marks.add(k)
            self._leafkey = frozenset(marks)
        return self._leafkey

    def __repr__(self):
        return "Cylinder(circumference_sq=%s, area=%s)" % (
            self.circumference_sq, self.area)


def cylinder_through(surface: FlatSurface, sp: SurfacePoint,
                     d: Vec2) -> Cylinder:
    """The maximal flat cylinder whose leaf passes through sp in direction
    d.  Raises NotCylinder when the leaf runs into a singularity or fails
    to close within the doubling budget."""
    field = surface.field
    if d.is_zero():
        raise InputError("cylinder direction must be nonzero")
    if surface.canonical_point(sp)[0] == "vertex":
        raise NotCylinder("leaf basepoint %r is a singular or marked point"
                          % (sp,))
    vec = d
    for _ in range(_CYLINDER_DOUBLINGS):
        res = trace(surface, sp.chart, sp.pos, vec)
        hit = _first_return(surface, sp, res)
        if hit is not None:
            return _build_cylinder(surface, sp, d, hit)
        if res.status == "vertex" and (res.consumed - field.one()).sign() < 0:
            raise NotCylinder("leaf through %r runs into a singularity"
                              % (sp,))
        vec = vec + vec
    raise NotCylinder("leaf through %r did not close within "
                      "_CYLINDER_DOUBLINGS = %d doublings"
                      % (sp, _CYLINDER_DOUBLINGS))


def _first_return(surface, sp, res):
    """Earliest return of a trace to its start point.

    Returns (pieces, placements, t_plane) covering exactly one period, or
    None when the trace never comes back.  Returns can happen strictly
    inside a piece, so every chart representative of the start point is
    tested against each piece."""
    reps = surface.representatives(sp)
    if not res.pieces:
        return None
    p0 = res.placements[0]
    start_plane = _place_apply(p0[1], p0[2], res.pieces[0][1])
    out_pieces = []
    out_placements = []
    for i, ((chart, a, b), plc) in enumerate(zip(res.pieces, res.placements)):
        ab = b - a
        best = None  # (distance key along the piece, position)
        for rep in reps:
            if rep.chart != chart:
                continue
            rpos = rep.pos
            if rpos == a:
                if i == 0:
                    continue
                t_plane = _place_apply(plc[1], plc[2], a) - start_plane
                return out_pieces, out_placements, t_plane
            if on_segment(rpos, a, b):
                key = (rpos - a).dot(ab)
                if best is None or (key - best[0]).sign() < 0:
                    best = (key, rpos)
        if best is not None:
            rpos = best[1]
            out_pieces.append((chart, a, rpos))
            out_placements.append(plc)
            t_plane = _place_apply(plc[1], plc[2], rpos) - start_plane
            return out_pieces, out_placements, t_plane
        out_pieces.append((chart, a, b))
        out_placements.append(plc)
    return None


def _build_cylinder(surface, sp, d, hit):
    pieces, placements, t_plane = hit
    if t_plane.is_zero() or t_plane.cross(d).sign() != 0:
        raise InternalCheckError("leaf closure holonomy is not parallel to "
                                 "the leaf direction")
    ref = pieces[0][1]
    items = []
    for (chart, a, b), (_, eps, shift) in zip(pieces, placements):
        items.append((chart, eps, shift,
                      _place_apply(eps, shift, a),
                      _place_apply(eps, shift, b)))
    up = _develop_band(surface, items, t_plane, d, +1, ref)
    down = _develop_band(surface, items, t_plane, d, -1, ref)
    h_total = up[0] + down[0]
    dd = d.dot(d)
    height_sq = (h_total * h_total) / dd
    circumference_sq = t_plane.dot(t_plane)
    area = h_total * abs(t_plane.dot(d)) / dd
    low = _band_boundary(surface, down, d)
    high = _band_boundary(surface, up, d)
    core_sp, core_dir, core_pieces, core_hol = _core_leaf(
        surface, sp, d, up[0], down[0], t_plane)
    return Cylinder(surface, core_sp, core_dir, core_pieces, core_hol,
                    circumference_sq, height_sq, area, (low, high))


def _core_leaf(surface, sp, d, h_up, h_down, t_plane):
    """Basepoint, direction, pieces, and holonomy of the middle leaf."""
    field = surface.field
    two = field.rational(2)
    dd = d.dot(d)
    offset = (h_up - h_down) / two
    cur = sp
    cur_d = d
    if not offset.is_zero():
        perp = Vec2(-d.y, d.x)
        step = perp.scale(offset / dd)
        res = trace(surface, sp.chart, sp.pos, step)
        if res.status == "vertex" and (res.consumed - field.one()).sign() < 0:
            raise InternalCheckError("path to the middle leaf is blocked")
        cur = SurfacePoint(res.end_chart, res.end_pos)
        cur_d = d if res.sign == 1 else -d
    scale = abs(t_plane.dot(d)) / dd
    vec = cur_d.scale(scale)
    res = trace(surface, cur.chart, cur.pos, vec)
    if res.status == "vertex" and (res.consumed - field.one()).sign() < 0:
        raise InternalCheckError("middle leaf hits a singularity")
    if not surface.same_point(cur, SurfacePoint(res.end_chart, res.end_pos)):
        raise InternalCheckError("middle leaf does not close after one "
                                 "period")
    return cur, cur_d, list(res.pieces), vec


def _develop_band(surface, items, t_plane, d, side, ref):
    """Explore one side of a closed-leaf line up to the first singularity.

    items: [(chart, eps, shift, plane_a, plane_b)] covering one period of
    the line.  side +1 explores the left of direction d, side -1 the
    right.  Distances are measured in cross(d, .) units from the line
    through ref.  Placements are deduplicated modulo the period
    translation.

    Returns (h, hit_groups, tt, u_period, seen): h > 0 is the distance of
    the nearest singular vertex on the chosen side, hit_groups lists the
    distance-h vertices grouped by plane position and ordered along the
    line, tt is the period translation oriented with d, u_period its
    length in d-projection units, and seen the explored placement keys."""
    field = surface.field

    def v_of(x: Vec2) -> FieldElement:
        c = d.cross(x - ref)
        return c if side == 1 else -c

    tt = t_plane if d.dot(t_plane).sign() > 0 else -t_plane
    u_period = d.dot(tt)
    if u_period.sign() <= 0:
        raise InternalCheckError("degenerate band period")

    def canon(eps, shift):
        k = _floor_ratio(d.dot(shift), u_period)
        return eps, shift - tt.scale(_r_int(field, k))

    best_h = None
    hits = []
    seen = set()
    heap = []
    counter = 0

    def push(chart, eps, shift):
        nonlocal counter
        eps, shift = canon(eps, shift)
        key = _place_key(chart, eps, shift)
        if key in seen:
            return
        seen.add(key)
        poly = surface.polygons[chart]
        placed = [_place_apply(eps, shift, v) for v in poly.vertices]
        vs = [v_of(w) for w in placed]
        max_v = vs[0]
        min_v = vs[0]
        for v in vs[1:]:
            if (v - max_v).sign() > 0:
                max_v = v
            if (v - min_v).sign() < 0:
                min_v = v
        if max_v.sign() <= 0:
            # polygon entirely on the wrong side of the line
            return
        heapq.heappush(heap, (min_v.float_bounds()[0], counter,
                              chart, eps, shift, placed, vs))
        counter += 1

    for (chart, eps, shift, pa, pb) in items:
        push(chart, eps, shift)
        # when the line piece runs along a polygon edge, the band on this
        # side may start in the chart across that edge
        poly = surface.polygons[chart]
        a_loc = _place_unapply(eps, shift, pa)
        b_loc = _place_unapply(eps, shift, pb)
        for e, (ea, eb) in enumerate(poly.edges()):
            if on_segment(a_loc, ea, eb) and on_segment(b_loc, ea, eb):
                tr = surface.transitions[(chart, e)]
                eps2, shift2 = _place_cross(eps, shift, tr)
                push(tr.target[0], eps2, shift2)

    popped = 0
    while heap:
        _, _, chart, eps, shift, placed, vs = heapq.heappop(heap)
        if best_h is not None:
            min_v = vs[0]
            for v in vs[1:]:
                if (v - min_v).sign() < 0:
                    min_v = v
            if (min_v - best_h).sign() >= 0:
                continue
        popped += 1
        if popped > _BAND_NODES:
            raise InternalCheckError(
                "band development exceeded _BAND_NODES = %d placements"
                % _BAND_NODES)
        for idx, (w, v) in enumerate(zip(placed, vs)):
            if v.sign() > 0:
                if best_h is None or (v - best_h).sign() < 0:
                    best_h = v
                    hits = []
                if (v - best_h).is_zero():
                    hits.append((chart, eps, shift, idx, w))
        poly = surface.polygons[chart]
        n = len(poly)
        for e in range(n):
            va, vb = vs[e], vs[(e + 1) % n]
            hi = va if (va - vb).sign() >= 0 else vb
            lo = va if (va - vb).sign() < 0 else vb
            if hi.sign() <= 0:
                continue
            if best_h is not None and (lo - best_h).sign() >= 0:
                continue
            tr = surface.transitions[(chart, e)]
            eps2, shift2 = _place_cross(eps, shift, tr)
            push(tr.target[0], eps2, shift2)
    if best_h is None:
        raise NotCylinder("no singularity bounds the band")
    groups: Dict[tuple, list] = {}
    pos_of: Dict[tuple, Vec2] = {}
    for (chart, eps, shift, idx, w) in hits:
        k = _floor_ratio(d.dot(w), u_period)
        w2 = w - tt.scale(_r_int(field, k))
        key = (w2.x, w2.y)
        groups.setdefault(key, []).append((chart, eps, shift, idx))
        pos_of[key] = w2
    ordered = sorted(
        ((pos_of[k], members) for k, members in groups.items()),
        key=lambda item: d.dot(item[0]).float_bounds()[0])
    return best_h, ordered, tt, u_period, seen


def _zero_vec(field) -> Vec2:
    z = field.zero()
    return Vec2(z, z)


def _band_boundary(surface, band, d) -> tuple:
    """The saddle connections along the singular line bounding a developed
    band, ordered along the band direction."""
    h, ordered, tt, u_period, seen = band
    if not ordered:
        raise InternalCheckError("band without boundary singularities")
    out = []
    m = len(ordered)
    for i in range(m):
        w, members = ordered[i]
        nw = ordered[i + 1][0] if i + 1 < m else ordered[0][0] + tt
        delta = nw - w
        if delta.is_zero():
            raise InternalCheckError("coincident boundary singularities")
        sc = None
        for (chart, eps, shift, vidx) in members:
            d_chart = delta if eps == 1 else -delta
            try:
                corner, ray = _corner_for_ray(surface, chart, vidx, d_chart)
            except InternalCheckError:
                continue
            cand = SaddleConnection.walk(surface, corner, ray)
            if cand is not None:
                sc = cand
                break
        if sc is None:
            raise InternalCheckError("cylinder boundary segment could not "
                                     "be walked")
        out.append(sc)
    return tuple(out)


# ---------------------------------------------------------------------------
# cylinders in a fixed direction

def cylinders_in_direction(surface: FlatSurface, d: Vec2,
                           bound) -> List[Cylinder]:
    """All maximal flat cylinders in direction d whose circumference is at
    most the given bound, sorted by circumference then area."""
    field = surface.field
    bound = field.coerce(bound)
    if d.is_zero():
        raise InputError("direction must be nonzero")
    if bound.sign() <= 0:
        return []
    bound_sq = bound * bound
    saddles = []
    for corner in sorted(surface.corner_class):
        for dd in (d, -d):
            if not surface.owns_ray(corner, dd):
                continue
            sc = _separatrix(surface, corner, dd, bound_sq)
            if sc is not None:
                saddles.append(sc)
    found: Dict[frozenset, Cylinder] = {}
    for sc in saddles:
        for side in (1, -1):
            cyl = _cylinder_beside(surface, sc, side, bound_sq)
            if cyl is None:
                continue
            if (cyl.circumference_sq - bound_sq).sign() > 0:
                continue
            found.setdefault(cyl.key(), cyl)
    out = list(found.values())
    out.sort(key=lambda c: (c.circumference_sq.float_bounds()[0],
                            c.area.float_bounds()[0]))
    return out


def _separatrix(surface, corner, d, bound_sq) -> Optional[SaddleConnection]:
    """The saddle connection along ray (corner, d), if one closes within
    the squared length bound."""
    field = surface.field
    dd = d.dot(d)
    hi = (bound_sq / dd).float_bounds()[1]
    m = Fraction(max(1, int(hi ** 0.5) + 2))
    while ((field.rational(m * m) * dd) - bound_sq).sign() < 0:
        m *= 2
    vec = d.scale(field.rational(m))
    chart, vidx = corner
    pos = surface.polygons[chart].vertices[vidx]
    res = trace(surface, chart, pos, vec)
    if res.status != "vertex":
        return None
    hol = vec.scale(res.consumed)
    if (hol.dot(hol) - bound_sq).sign() > 0:
        return None
    return SaddleConnection.walk(surface, corner, hol)


def _rotate_ray(surface, corner, d, half_turns: int):
    """Rotate the ray (corner, d) counterclockwise by exactly
    half_turns * pi through the vertex fan.  Returns (corner, direction)
    of the rotated ray; directions are unnormalized."""
    if half_turns <= 0:
        return corner, d
    u_ref = d
    cur = d
    c = corner
    count = 0
    guard = 0
    while True:
        guard += 1
        if guard > _ROTATE_STEPS:
            raise InternalCheckError(
                "ray rotation exceeded _ROTATE_STEPS = %d steps"
                % _ROTATE_STEPS)
        back = surface.corner_rays(c)[1]
        # next representative of span(u_ref) counterclockwise from cur
        cross_cu = cur.cross(u_ref).sign()
        if cross_cu == 0:
            w = -u_ref if cur.dot(u_ref).sign() > 0 else u_ref
        else:
            w = u_ref if cross_cu > 0 else -u_ref
        cw = cur.cross(w).sign()
        wb = w.cross(back).sign()
        if cw > 0 and wb > 0:
            count += 1
            if count == half_turns:
                return c, w
            cur = w
            continue
        on_back = (wb == 0 and w.dot(back).sign() > 0 and cw >= 0)
        tr = surface.fan_step(c)
        u_ref = tr.map.mat.apply(u_ref)
        c = tr.target
        cur = surface.corner_rays(c)[0]
        if on_back:
            count += 1
            if count == half_turns:
                return c, cur


def _boundary_circle(surface, sc, side, bound_sq):
    """Follow straight boundary continuations (a pi turn toward the chosen
    side at every cone point) until the walk closes up.  Returns the
    circle's saddle connection list, or None when it leaves the
    circumference bound or runs off a separatrix."""
    d_plane = sc.hol
    start_state = (sc.start_corner, _dir_key(sc.hol, d_plane))
    circle = []
    run = _zero_vec(surface.field)
    cur = sc
    guard = 0
    while True:
        guard += 1
        if guard > _CIRCLE_STEPS:
            raise InternalCheckError(
                "boundary walk exceeded _CIRCLE_STEPS = %d saddle "
                "connections" % _CIRCLE_STEPS)
        circle.append(cur)
        s = cur.hol.dot(d_plane).sign()
        run = run + (cur.hol if s > 0 else -cur.hol)
        if (run.dot(run) - bound_sq).sign() > 0:
            return None
        d_end = cur.hol if cur.flip_sign == 1 else -cur.hol
        end_cls = surface.corner_class[cur.end_corner]
        angle_pi = surface.cone_points[end_cls].angle_pi
        # the annulus side lies left of travel for side +1: continuing
        # straight along its boundary turns by (cone angle - pi) through
        # the far side, i.e. by pi through the near side for side -1
        m = angle_pi - 1 if side == 1 else 1
        corner, ray = _rotate_ray(surface, cur.end_corner, -d_end, m)
        if ray.cross(d_plane).sign() != 0:
            raise InternalCheckError("pi turn left the leaf direction")
        state = (corner, _dir_key(ray, d_plane))
        if state == start_state:
            return circle
        nxt = _separatrix(surface, corner, ray, bound_sq)
        if nxt is None:
            return None
        cur = nxt


def _dir_key(v: Vec2, d_plane: Vec2) -> int:
    return v.dot(d_plane).sign()


def _circle_line_items(surface, circle):
    """Develop a closed boundary circle along one straight plane line.

    Returns (items, t_plane, d_plane, ref) in the frame of the first
    saddle connection's start chart; items are the per-piece placements
    with their plane segments."""
    d_plane = circle[0].hol
    ref = circle[0].start_point().pos
    cur_end = ref
    items = []
    for sc in circle:
        p_i = sc.start_point().pos
        eps_i = 1 if sc.hol.dot(d_plane).sign() > 0 else -1
        delta_i = cur_end - (p_i if eps_i == 1 else -p_i)
        for (chart, a, b), (_, e, sh) in zip(sc.pieces, sc.placements):
            eg = eps_i * e
            shg = (sh if eps_i == 1 else -sh) + delta_i
            items.append((chart, eg, shg,
                          _place_apply(eg, shg, a),
                          _place_apply(eg, shg, b)))
        cur_end = cur_end + (sc.hol if eps_i == 1 else -sc.hol)
    return items, cur_end - ref, d_plane, ref


def _cylinder_beside(surface, sc, side, bound_sq) -> Optional[Cylinder]:
    """The maximal cylinder hugging one side of a leaf-parallel saddle
    connection (side +1 is the left of its travel direction)."""
    field = surface.field
    circle = _boundary_circle(surface, sc, side, bound_sq)
    if circle is None:
        return None
    items, t_plane, d_plane, ref = _circle_line_items(surface, circle)
    if t_plane.is_zero() or t_plane.cross(d_plane).sign() != 0:
        raise InternalCheckError("boundary circle holonomy is not parallel "
                                 "to its direction")
    try:
        band = _develop_band(surface, items, t_plane, d_plane, side, ref)
    except NotCylinder:
        return None
    h = band[0]
    chart, eg, shg, pa, pb = items[0]
    mid_plane = pa + (pb - pa).scale(field.rational(Fraction(1, 2)))
    dd = d_plane.dot(d_plane)
    perp = Vec2(-d_plane.y, d_plane.x)
    half_h = h / field.rational(2)
    step_plane = perp.scale(half_h / dd)
    if side == -1:
        step_plane = -step_plane
    sp0 = SurfacePoint(chart, _place_unapply(eg, shg, mid_plane))
    step_chart = step_plane if eg == 1 else -step_plane
    res = trace(surface, sp0.chart, sp0.pos, step_chart)
    if res.status == "vertex" and (res.consumed - field.one()).sign() < 0:
        raise InternalCheckError("probe into the cylinder hit a "
                                 "singularity")
    probe = SurfacePoint(res.end_chart, res.end_pos)
    d_probe = d_plane if eg == 1 else -d_plane
    if res.sign == -1:
        d_probe = -d_probe
    try:
        return cylinder_through(surface, probe, d_probe)
    except NotCylinder:
        return None
