"""Saddle connections and their exact geometry.

Everything here rides on two primitives, both exact in the field: trace
walks a straight segment across the surface, and cover develops chart
placements depth first over a convex region, across every glued edge
that meets the region's interior, and cuts the region into chart
pieces.  Both work in each chart's own frame.  Every gluing transition
and every placement is z -> +-z + t, so trace carries its direction
only up to sign, and cover pulls the region back into each placed chart
and reads its vertex, clip and chord tests from one table of the exact
sides (geom.side_of) of the chart's vertices against the region's edge
lines.  On top of them sit saddle connection enumeration (polygon
unfolding pruned by a holonomy box), spanning rectangles with certified
immersion degree, and transverse crossings and intersection numbers.
cover also serves the oracle's triangles (fixcount._cover_region) and
map building (affine.develop).

Its search budgets (the module's _UPPER_CASE constants) stay beside
the searches they cap, not in one shared module, because tests patch
each budget on the module whose search reads it.
"""

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    HorizontalOrVertical,
    InputError,
    InternalCheckError,
    OverlappingSegments,
)
from .exactnum import FieldElement, format_element
from .flatsurf import EdgeRef, FlatSurface, SurfacePoint
from .geom import (
    ConvexPolygon,
    Vec2,
    _clip,
    _flat,
    boxes_disjoint,
    cross_sign,
    float_box,
    segment_intersection,
    side_of,
)

# Search budgets; each overflow error names its own.
# Nodes popped by one corner's visibility search in enumerate_saddles.
_VISIBILITY_NODES = 200000
# Placements expanded while unfolding one spanning rectangle.
_RECT_UNFOLD_NODES = 20000
# Glued edges one trace may cross.
_TRACE_CROSSINGS = 200000


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


def _place_between(ea: int, sa: Vec2, eb: int, sb: Vec2) -> Tuple[int, Vec2]:
    """The motion w -> e*w + c from the frame of placement (eb, sb) of a
    chart to the frame of its placement (ea, sa): (ea*eb, sa - e*sb)."""
    e = ea * eb
    return e, (sa - sb if e == 1 else sa + sb)


def _place_key(chart: int, eps: int, shift: Vec2):
    return (chart, eps, shift.x, shift.y)


def cover(surface: FlatSurface, seeds, region: ConvexPolygon, budget):
    """Cut the developed convex region into chart pieces.

    Develops chart placements (chart, eps, shift) from the seed
    placements, deduplicated by _place_key, depth first with the last
    reached placement first, across every glued edge of the placed chart
    whose segment meets the region's interior.  Returns
    [(chart, eps, shift, piece)] in first-reached order, one per placement
    whose polygon meets the region with positive area, piece the region
    clipped to the placed polygon, in chart coordinates; or None as soon
    as a placed vertex lies in the region's interior.  budget is (name,
    limit) of the constant capping the expanded placements; the overflow
    error names it.  The pieces are all of the region's when some seed
    meets it with positive area: the open region holds no vertex, so its
    placements are linked across edges through its interior.

    Each placement works in its chart's own frame: the region is pulled
    back by the placement (eps = -1 is a rotation by pi, so its vertex
    order stays counterclockwise), and one table holds, for every
    pulled-back region edge line i and chart vertex j, the side of the
    vertex against the line (geom.side_of, minus the orient sign).  The
    table gives all three tests.  A vertex strictly left of every line is
    inside the region.  Clipping the chart polygon by the lines in turn
    (_chart_piece) skips a line with every chart vertex on its closed
    left, and the piece of an unclipped chart is its own polygon.
    The chord test of an edge reads the sides of its two ends (_chord).
    Signs and arithmetic are exact and the placements are isometries, so
    every answer, and every piece vertex, is the one the region's own
    frame gives.

    Every placement past the seeds adds a piece: it is reached across an
    edge through the region's interior, so near a point of that edge
    inside the region it holds a half-disc of the region."""
    name, limit = budget
    rverts = region.vertices
    # the edge directions, pulled back by negation when eps = -1
    dirs = [b - a for a, b in region.edges()]
    flipped = [-d for d in dirs]
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
            poly = surface.polygons[chart]
            local = [_place_unapply(eps, shift, w) for w in rverts]
            lines = list(zip(local, dirs if eps == 1 else flipped))
            table = [list(map(side_of(p, d), poly.vertices))
                     for p, d in lines]
            cols = list(zip(*table))
            if any(max(col) < 0 for col in cols):
                return None
            piece = _chart_piece(poly, lines, table)
            if piece is not None:
                out.append((chart, eps, shift, piece))
            stack.append((chart, eps, shift, local, cols))
        if not stack:
            return out
        chart, eps, shift, local, cols = stack.pop()
        expanded += 1
        if expanded > limit:
            raise InternalCheckError(
                "unfolding exceeded %s = %d placements" % (name, limit))
        verts = surface.polygons[chart].vertices
        m = len(verts)
        fresh = []
        for e in range(m):
            e1 = (e + 1) % m
            if _chord(verts[e], verts[e1], local, zip(cols[e], cols[e1])):
                tr = surface.transitions[(chart, e)]
                eps2, shift2 = _place_cross(eps, shift, tr)
                fresh.append((tr.target[0], eps2, shift2))


def _chart_piece(poly: ConvexPolygon, lines, table) -> Optional[ConvexPolygon]:
    """poly clipped to the closed left of each directed line (p, d) in
    turn, or None when that has empty interior; table[i][j] is the side of
    poly's vertex j against line i.

    The clipped polygon lies in poly, so a line with every vertex of poly
    on its closed left clips nothing, and one with every vertex on its
    closed right leaves nothing; _clip takes the other lines."""
    vs = poly.vertices
    for (p, d), row in zip(lines, table):
        if max(row) <= 0:
            continue
        if min(row) >= 0:
            return None
        vs = _clip(vs, p, d)
        if vs is None:
            return None
    return poly._rebuilt(vs)


def _chord(a: Vec2, b: Vec2, vs, sides) -> bool:
    """Does segment ab (a != b) meet the interior of the convex polygon
    vs?  sides yields the sides (geom.side_of) of a and b against each
    edge line of vs in turn.

    The closed segment and the open polygon are disjoint exactly when a
    line separates them: an edge line of vs with a and b on its closed
    right, or the segment's own line with every vertex of vs on one
    closed side.  Exact sides decide, with no division."""
    for sa, sb in sides:
        if sa >= 0 and sb >= 0:
            return False
    signs = set(map(side_of(a, b - a), vs))
    return 1 in signs and -1 in signs


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
    into a polygon vertex, i.e. a cone or marked point.

    Every transition is +-I, so the direction d in the current chart is
    vec or -vec, and the walk keeps the fraction of vec still left.  In
    each chart the exit edge is the first one hit along d, at the smallest
    parameter u with pos + u d on its line; the segment ends in the chart
    when u reaches what is left (_exit, which in a quadratic field
    compares the parameters on integer numerators and builds u for the
    exit edge alone).  A crossing maps the point by the
    transition (z -> +-z + t) and negates d on a flip, with no matrix
    product and no rescaling.  The end point is the plane end pos + vec
    pulled back by the current placement, since each placement is the
    composition of the crossings that reached it."""
    field = surface.field
    one = field.one()
    if vec.is_zero():
        raise InputError("cannot trace a zero vector")
    end = pos + vec
    d = vec
    left = one
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
        best_edge, u = _exit(surface, chart, pos, d, left)
        if u is None:
            # segment ends inside this polygon (possibly on its boundary)
            x = _place_unapply(eps, shift, end)
            pieces.append((chart, pos, x))
            placements.append((chart, eps, shift))
            end_vertex = surface.vertex_index(chart, x)
            status = "vertex" if end_vertex is not None else "end"
            return TraceResult(status, one, pieces, crossings, placements,
                               chart, x, end_vertex, sign)
        x = pos if u.is_zero() else pos + d.scale(u)
        if x != pos:
            pieces.append((chart, pos, x))
            placements.append((chart, eps, shift))
        left = left - u
        hit_vertex = surface.vertex_index(chart, x)
        if hit_vertex is not None:
            return TraceResult("vertex", one - left, pieces, crossings,
                               placements, chart, x, hit_vertex, sign)
        tr = surface.transitions[(chart, best_edge)]
        q, e2 = tr.target
        crossings.append((chart, best_edge, q, e2))
        pos = tr.apply(x)
        if tr.flip:
            d = -d
            sign = -sign
        eps, shift = _place_cross(eps, shift, tr)
        chart = q


def _exit(surface: FlatSurface, chart: int, pos: Vec2, d: Vec2, left):
    """The edge of chart that pos + u d leaves it by, and its parameter
    u: (e, u) for the least u, the first such edge on a tie, or (-1, None)
    when no edge is hit before u reaches left.

    Edge e, from vertex v with vector ev, is hit ahead when D_e = d x ev
    > 0, at u = N_e / D_e with N_e = ev x (pos - v).  N_e and D_e stay
    flat tuples of the field's numerator primitives, two parameters
    compare by the sign of N_e D_f - N_f D_e, the winner against left by
    that of N_e - left D_e, and u is built for the winner alone, as one
    quotient."""
    verts = surface.polygons[chart].vertices
    field = surface.field
    cross, sub, sign = field.num_cross, field.num_sub, field.num_sign
    dx, dy = _flat(d.x), _flat(d.y)
    px, py = pos.x, pos.y
    best = None
    for e, ev in enumerate(surface.edge_vectors[chart]):
        ex, ey = _flat(ev.x), _flat(ev.y)
        den = cross(dx, dy, ex, ey)
        if sign(den) <= 0:
            continue
        v = verts[e]
        n = cross(ex, ey, sub(px, v.x), sub(py, v.y))
        if best is None or sign(cross(n, best[1], den, best[2])) < 0:
            best = (e, n, den)
    if best is None or sign(cross(best[1], _flat(left), best[2],
                                  _flat(field.one()))) >= 0:
        return -1, None
    e, n, den = best
    return e, field.num_quotient(n, den)


# ---------------------------------------------------------------------------
# saddle connections

class SaddleConnection:
    """A flat geodesic between singular (cone or marked) points, certified
    by its developing chain."""

    __slots__ = ("surface", "start_corner", "hol", "chain", "pieces",
                 "placements", "_rstart", "_key")

    def __init__(self, surface, start_corner, hol, chain, pieces, placements,
                 rstart):
        self.surface = surface
        self.start_corner = start_corner  # (chart, vertex index)
        self.hol = hol                    # holonomy in the start chart
        self.chain = chain                # ((p, e, q, e2), ...)
        self.pieces = pieces              # ((chart, a, b), ...)
        self.placements = placements      # ((chart, eps, shift), ...)
        self._rstart = rstart             # see reverse_start
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
        rstart = surface.owning_corner(res.end_chart, res.end_vertex, -d_end)
        return SaddleConnection(surface, corner, hol, tuple(res.crossings),
                                tuple(res.pieces), tuple(res.placements),
                                rstart)

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

    @property
    def end_corner(self) -> EdgeRef:
        return self._rstart[0]

    def reverse_start(self) -> tuple:
        """(start corner, holonomy) of the reverse connection: the corner
        at the end vertex that owns the way back, and that ray in its
        chart, as the walk found them, without walking the reverse."""
        return self._rstart

    def reverse(self) -> "SaddleConnection":
        corner, r = self.reverse_start()
        back = SaddleConnection.walk(self.surface, corner, r)
        if back is None:
            raise InternalCheckError("saddle connection has no reverse walk")
        return back

    def sort_key(self):
        if self._key is None:
            self._key = (self.start_class, self.hol.x, self.hol.y,
                         self.start_corner, self.chain)
        return self._key

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

    An edge is crossed unless floats show that its part inside the
    window misses the box (see the note above _window_misses_box).  A
    prune that says "maybe" where the exact answer is "misses" loses
    nothing: the box is convex and holds the origin, so an in-box vertex
    seen through an edge is seen along a segment from the origin that
    crosses the edge inside the box, within the window.  Through an edge
    whose windowed part misses the box no in-box vertex is seen, so the
    extra node and its children hold no candidate."""
    chart, vidx = corner
    origin = surface.polygons[chart].vertices[vidx]
    out_ray, back_ray = surface.corner_rays(corner)
    nbx, nby = -bx, -by
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
                    and -by_lo < sy0 and sy1 < by_lo) \
                    and _window_misses_box(a, b, lo, hi, outer):
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


# The visibility prune of _box_candidates is float only, with no exact
# fallback: it may say "maybe" but is never wrong about "misses".  The
# search crosses an edge when the edge's part inside the window of sight
# may meet the holonomy box.  It skips an edge whose float box misses the
# box's outer float box, since that part lies on the edge; crosses one
# with both endpoints strictly inside the box's inner float box, since the
# part is then inside too and never empty; and otherwise skips the edge
# only when Liang-Barsky over intervals (_window_misses_box), clipping to
# the window's two half-planes and the outer float box, leaves a certainly
# empty range.  An edge crossed in vain costs nodes that hold no
# candidate, and every candidate still passes the exact box, window and
# walk tests.  Floats enter as each coordinate's cached
# FieldElement.float_bounds(), and every float operation on them rounds
# outward by one math.nextafter step, so an interval always holds the
# exact value it stands for.

_nextafter = math.nextafter
_INF = math.inf


def _isub(p, q):
    """Float interval p - q, rounded outward."""
    return (_nextafter(p[0] - q[1], -_INF), _nextafter(p[1] - q[0], _INF))


def _imul(p, q):
    """Float interval p * q, rounded outward."""
    a, b = p
    c, d = q
    prods = (a * c, a * d, b * c, b * d)
    return (_nextafter(min(prods), -_INF), _nextafter(max(prods), _INF))


def _idiv(p, q):
    """Float interval p / q, rounded outward; q must exclude 0."""
    a, b = p
    c, d = q
    quots = (a / c, a / d, b / c, b / d)
    return (_nextafter(min(quots), -_INF), _nextafter(max(quots), _INF))


def _ivec(a: Vec2, b: Vec2):
    """Float intervals of the coordinates of b - a."""
    return (_isub(b.x.float_bounds(), a.x.float_bounds()),
            _isub(b.y.float_bounds(), a.y.float_bounds()))


def _ibox(v: Vec2):
    """Float intervals of the coordinates of v."""
    return (v.x.float_bounds(), v.y.float_bounds())


def _icross(u, v):
    """Float interval of the cross product of interval vectors u and v."""
    return _isub(_imul(u[0], v[1]), _imul(u[1], v[0]))


def _window_misses_box(a: Vec2, b: Vec2, lo: Vec2, hi: Vec2, box) -> bool:
    """True when the part of segment ab inside the closed cone from ray lo
    counterclockwise to ray hi certainly misses the float box
    (x0, x1, y0, y1); False means maybe.

    Liang-Barsky over float intervals, each rounded outward: along
    a + t(b - a), t in [0, 1], each window half-plane and each box side
    bounds t from one side, taken at the end of its interval that widens
    the range.  The search's rays lie in the cone from a to b, so
    cross(ray, b - a) > 0, and lo bounds t from below, hi from above.  A
    bound is dropped when its rate interval holds 0, or, for a ray, does
    not lie above it.  The widened range holds the exact one, so when it
    is empty the part misses."""
    pa = _ibox(a)
    d = _ivec(a, b)
    t_lo, t_hi = 0.0, 1.0
    # cross(ray, a + t d) = 0 at t = -q
    for ray, below in ((lo, True), (hi, False)):
        r = _ibox(ray)
        rate = _icross(r, d)
        if rate[0] <= 0:
            continue
        q = _idiv(_icross(r, pa), rate)
        if below:
            t_lo = max(t_lo, -q[1])
        else:
            t_hi = min(t_hi, -q[0])
    for pv, dv, blo, bhi in ((pa[0], d[0], box[0], box[1]),
                             (pa[1], d[1], box[2], box[3])):
        if dv[0] <= 0 <= dv[1]:
            continue
        ta = _idiv(_isub((blo, blo), pv), dv)
        tb = _idiv(_isub((bhi, bhi), pv), dv)
        if dv[1] < 0:
            ta, tb = tb, ta
        t_lo = max(t_lo, ta[0])
        t_hi = min(t_hi, tb[1])
    return t_hi < t_lo


# ---------------------------------------------------------------------------
# spanning rectangles and immersion degree

class SpanningRectangle:
    """The axis-parallel rectangle an edge spans, with immersion data.

    width and height are |hol_x| and |hol_y| of the diagonal edge; degree
    is the largest number of rectangle sheets over one surface point.  For
    degree >= 2 the generating deck translation is attached.  ambiguous
    flags overlap data whose translations are not all multiples of one
    generator."""

    __slots__ = ("edge", "width", "height", "degree", "ambiguous",
                 "translation", "bounds", "placements")

    def __init__(self, edge, width, height, deg, ambiguous,
                 translation, bounds, placements):
        self.edge = edge
        self.width = width
        self.height = height
        self.degree = deg
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
    x0, x1 = min(p0.x, x2), max(p0.x, x2)
    y0, y1 = min(p0.y, y2), max(p0.y, y2)
    bounds = (x0, x1, y0, y1)
    box = ConvexPolygon([Vec2(x0, y0), Vec2(x1, y0), Vec2(x1, y1),
                         Vec2(x0, y1)])
    # cover the rectangle, seeded by the diagonal's own chain
    pieces = cover(surface, sc.placements, box,
                   ("_RECT_UNFOLD_NODES", _RECT_UNFOLD_NODES))
    if pieces is None:
        return None
    width = abs(sc.hol.x)
    height = abs(sc.hol.y)
    deg, ambiguous, translation = _rect_degree(pieces, width, height)
    return SpanningRectangle(sc, width, height, deg, ambiguous, translation,
                             bounds, [(c, e, t) for c, e, t, _ in pieces])


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


def _rect_degree(pieces, width, height):
    """Immersion degree of a rectangle from its cover: same-chart overlaps
    of the pieces, which are in chart coordinates, are genuine
    multiplicity over surface points."""
    by_chart: Dict[int, list] = {}
    for (chart, eps, shift, region) in pieces:
        by_chart.setdefault(chart, []).append((eps, shift, region))
    deg = 1
    translations = []
    for chart, entries in by_chart.items():
        d = _max_depth([r for (_, _, r) in entries])
        if d > deg:
            deg = d
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                if not entries[i][2].overlaps(entries[j][2]):
                    continue
                e1, s1 = entries[i][0], entries[i][1]
                e2, s2 = entries[j][0], entries[j][1]
                if e1 != e2:
                    raise InternalCheckError(
                        "flipped self-overlap of a spanning rectangle; the "
                        "surface would contain an immersed Mobius band")
                translations.append(s2 - s1 if e1 == 1 else s1 - s2)
    if deg == 1:
        return 1, False, None
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
        if not (gen.scale(_r_int(width.field, k)) - v).is_zero():
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
    return deg, ambiguous, gen


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
            side = cross_sign(b - a, d - c)
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
