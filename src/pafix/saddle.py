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
lines.  On top of them sit saddle connection enumeration, spanning
rectangles with certified immersion degree, and transverse crossings,
each as the deck motion between the two walk frames that it selects
(crossing_motions).  Enumeration is a visibility search from each
corner by polygon unfolding pruned by a holonomy box, again in each
chart's own frame: one table of exact sides of the chart's vertices
against the two rays of the window of sight serves the vertex and edge
tests, each visible vertex is reported once, strictly inside its window,
and its walk always ends at it.  The box prune is exact too, an outcode
reject as in Cohen-Sutherland clipping: an edge is skipped when both
its ends lie beyond one side of the box, so the edge, lying in that
half-plane, misses the box and no in-box vertex is seen through it.
The search reads no float.  In canonical mode the search leaves
out, before their walk, the connections that it can tell are not the
canonical orientation of their geodesic (veering.EdgeCache.canonical).
cover serves the spanning rectangles and map building (affine.develop).

Its search budgets (the module's _UPPER_CASE constants) stay beside
the searches they cap, not in one shared module, because tests patch
each budget on the module whose search reads it.
"""

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

def _floor_ratio(num: FieldElement, den: FieldElement) -> int:
    """floor(num / den) for den > 0, exact."""
    if den.sign() <= 0:
        raise InternalCheckError("_floor_ratio needs a positive denominator")
    r = num / den
    lo, _ = r.float_bounds()
    k = int(lo // 1)
    # float seed, exact correction
    while (r - r.field.rational(k)).sign() < 0:
        k -= 1
    while (r - r.field.rational(k + 1)).sign() >= 0:
        k += 1
    return k


def _strict_floor(num: FieldElement, den: FieldElement) -> int:
    """Largest m with m * den < num (den > 0)."""
    q = _floor_ratio(num, den)
    if (den * den.field.rational(q) - num).is_zero():
        return q - 1
    return q


# ---------------------------------------------------------------------------
# plane placements of charts: maps x -> eps*x + shift with eps = +-1,
# always realized by a composition of gluing transitions

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


def _invert_motion(m: Tuple[int, Vec2]) -> Tuple[int, Vec2]:
    """The inverse of the motion w -> e*w + c: (e, -e*c)."""
    e, c = m
    return e, (-c if e == 1 else c)


def _compose_motions(m1: Tuple[int, Vec2],
                     m2: Tuple[int, Vec2]) -> Tuple[int, Vec2]:
    """The motion m1 after m2: (e1*e2, c1 + e1*c2)."""
    (e1, c1), (e2, c2) = m1, m2
    return e1 * e2, (c1 + c2 if e1 == 1 else c1 - c2)


def _motion_key(e: int, c: Vec2):
    """A hashable key of the motion w -> e*w + c; reduced elements are
    equal exactly when their numerators and denominators are."""
    return (e, c.x.num, c.x.den, c.y.num, c.y.den)


def _place_key(chart: int, eps: int, shift: Vec2):
    return (chart, eps, shift.x, shift.y)


def cover(surface: FlatSurface, seeds, region: ConvexPolygon, budget):
    """Cut the developed convex region into chart pieces: a spanning
    rectangle (is_veering_edge) or a polygon's image (affine.develop).

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
                 "placements", "_rstart", "_key", "_hash")

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
        self._hash = None

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

    def reverse_motion(self) -> Tuple[int, Vec2]:
        """The motion w -> e*(w - r0) + (p0 + hol) from the reverse's walk
        frame to this one's, with r0 the reverse's start and e = 1 exactly
        when its holonomy is -hol; read off reverse_start, no walk."""
        (chart, vidx), r_hol = self._rstart
        r0 = self.surface.polygons[chart].vertices[vidx]
        end = self.start_point().pos + self.hol
        if r_hol == -self.hol:
            return 1, end - r0
        return -1, end + r0

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
        # immutable, and every EdgeCache lookup hashes it
        h = self._hash
        if h is None:
            h = self._hash = hash((self.start_corner, self.hol.x, self.hol.y,
                                   self.chain))
        return h

    def __repr__(self):
        return "SaddleConnection(start=%s, hol=(%s, %s))" % (
            self.start_corner, self.hol.x, self.hol.y)


# ---------------------------------------------------------------------------
# enumeration by box-pruned unfolding

def enumerate_saddles(surface: FlatSurface, bx, by,
                      canonical: bool = False) -> List[SaddleConnection]:
    """All oriented saddle connections with |hol_x| <= bx and |hol_y| <= by,
    duplicate-free, sorted by (start id, holonomy).

    By default each geodesic appears twice, once per orientation.  Each
    corner's visibility search (_box_candidates) reports every vertex it
    sees once, within the cone [out, back) that owns_ray gives the corner,
    and the corner owning an outgoing ray is unique, so every candidate
    is walked once, and every walk ends at its vertex.

    With canonical=True the axis-parallel connections are left out, and
    so is every connection whose reverse sorts first under
    veering.EdgeCache.canonical's key when the search can tell before the
    walk: its end class is smaller than its start class, or the classes
    agree, no gluing of the surface is a halfturn (so the reverse's
    holonomy is exactly -hol) and hol_x > 0.  When the classes agree on a
    surface with halfturns both orientations are kept, and the caller
    chooses after the walk."""
    field = surface.field
    bx = field.coerce(bx)
    by = field.coerce(by)
    if bx.sign() <= 0 or by.sign() <= 0:
        raise InputError("holonomy box bounds must be positive")
    out = []
    for corner in sorted(surface.corner_class):
        for cand in _box_candidates(surface, corner, bx, by, canonical):
            sc = SaddleConnection.walk(surface, corner, cand)
            if sc is None:
                raise InternalCheckError(
                    "the vertex seen from corner %s at %r ends no saddle "
                    "connection" % (corner, cand))
            out.append(sc)
    out.sort(key=SaddleConnection.sort_key)
    return out


def _box_candidates(surface, corner, bx, by, canonical=False):
    """The holonomies of the vertices visible from one corner within its
    cone [out, back) and the holonomy box, each once; with canonical, only
    those enumerate_saddles keeps in canonical mode.

    The search develops the exponential map: every node is a chart
    placement plus the window of sight rays that enter it through its
    entry edge.  Rays stop at vertices, so windows only ever shrink, and
    each crossing along a ray is strictly farther out.

    A node works in its chart's own frame.  It holds the chart, the
    placement sign eps, the corner pulled back into the chart as o, the
    window rays r1, r2 times eps (_ray), the entry edge and the outcodes
    of its two ends.  A crossing
    maps o by the transition, and on a flip negates eps and the rays.
    Cross signs do not depend on the frame, and the box, being symmetric,
    is the same in every frame, so one side table per node serves every
    test: for each chart vertex v, dv = v - o, s1 = sign(r1 x dv) and
    s2 = sign(dv x r2).  A vertex is a candidate strictly inside the
    window with outcode 0 (_outcode: the box sides it lies beyond), and a
    candidate alone gets its plane holonomy eps*dv built.  At the root the
    window is the corner's cone [out, back), as owns_ray reads it.  Below
    the root a vertex on a window ray lies behind the vertex the ray began
    at, a candidate where it lay inside a window, or behind the far end of
    the corner's out edge, a candidate at the root.

    An edge ab is crossed when it runs outward (sign(dv_a x dv_b) > 0),
    its cone meets the window, and the outcodes of its ends share no side.
    The child's low ray is a when a lies in the window and r1 when
    s1[a] <= 0 <= s1[b]; its high ray is b or r2 likewise; and its window
    is empty only when a low r1 meets a high b with s1[b] = 0, or a low a
    a high r2 with s2[a] = 0.  Outcodes are exact and computed lazily,
    at most once per vertex per node: for the vertices inside the window,
    and for an edge's end b only when its end a lies outside the box,
    since an end in the box shares no side.  A child takes the codes of
    its entry edge's ends from its parent, mirrored (_mirror) across a
    halfturn, where dv turns into -dv.  The reject is sound: a
    half-plane is convex, so an edge with both ends beyond one side lies
    wholly beyond it and misses the box, while an in-box vertex seen
    through an edge is seen along a segment from the origin, which
    crosses the edge inside the box, since the box is convex and holds
    the origin.  The tree is finite on every surface, including ones
    whose gluing translations accumulate: the bounding box of every
    crossed edge meets the box, so every node's chart lies within the box
    grown by the largest chart diameter, and a sight segment of bounded
    length crosses boundedly many edges.

    In canonical mode a vertex is skipped when it is axis-parallel to the
    corner, when its class is smaller than the corner's, or, on a surface
    without halfturns, when its class is the corner's and its plane x is
    positive.  There a corner of the largest class keeps only x < 0, so
    its root window is clipped to x <= 0 (_left_half)."""
    field = surface.field
    sub, cross, sign = field.num_sub, field.num_cross, field.num_sign
    polys, transitions = surface.polygons, surface.transitions
    corner_class = surface.corner_class
    chart, vidx = corner
    origin = polys[chart].vertices[vidx]
    r1, r2 = map(_ray, surface.corner_rays(corner))
    cls = corner_class[corner]
    halfturn = canonical and any(tr.flip for tr in transitions.values())
    if canonical and not halfturn and cls == len(surface.cone_points) - 1:
        r1, r2 = _left_half(field, r1, r2)
        if r1 is None:
            return []
    box = ((bx.num, bx.den), (by.num, by.den))
    stack = [(chart, 1, origin, r1, r2, None, None)]
    cands = []
    popped = 0
    while stack:
        p, eps, o, r1, r2, entry, ends = stack.pop()
        popped += 1
        if popped > _VISIBILITY_NODES:
            raise InternalCheckError(
                "visibility search exceeded _VISIBILITY_NODES = %d nodes; the "
                "holonomy bound is too large" % _VISIBILITY_NODES)
        # the least s1 of a candidate: the root's window holds its ray r1
        s1_min = 0 if entry is None else 1
        verts = polys[p].vertices
        n = len(verts)
        ox, oy = o.x, o.y
        r1x, r1y = r1
        r2x, r2y = r2
        dvs, s1s, s2s = [], [], []
        codes = [None] * n
        if entry is not None:
            codes[entry], codes[(entry + 1) % n] = ends
        for j, v in enumerate(verts):
            dv = dx, dy = sub(v.x, ox), sub(v.y, oy)
            # at the root the corner itself has dv = 0 and both sides 0
            s1 = sign(cross(r1x, r1y, dx, dy))
            s2 = sign(cross(dx, dy, r2x, r2y))
            dvs.append(dv)
            s1s.append(s1)
            s2s.append(s2)
            if s1 < s1_min or s2 <= 0:
                continue
            code = codes[j] = _outcode(sign, dv, box)
            if code:
                continue
            if canonical:
                m = corner_class[(p, j)]
                if (not any(dx[:-1]) or not any(dy[:-1]) or m < cls
                        or (m == cls and not halfturn
                            and eps * sign(dx) > 0)):
                    continue
            cands.append(v - o if eps == 1 else o - v)
        for e in range(n):
            if e == entry:
                continue
            ia, ib = e, (e + 1) % n
            s1a, s1b, s2a, s2b = s1s[ia], s1s[ib], s2s[ia], s2s[ib]
            # intersect the window [r1, r2] with the cone [a, b]
            lo_a = s1a >= 0 and s2a >= 0
            hi_b = s1b >= 0 and s2b >= 0
            if not (lo_a or s1a <= 0 <= s1b) or not (hi_b or s2b <= 0 <= s2a):
                continue
            if (hi_b and not lo_a and s1b <= 0) \
                    or (lo_a and not hi_b and s2a <= 0):
                continue
            a, b = dvs[ia], dvs[ib]
            if sign(cross(a[0], a[1], b[0], b[1])) <= 0:
                # not an outward crossing as seen from the origin, or an
                # edge of the corner itself
                continue
            ca = codes[ia]
            if ca is None:
                ca = codes[ia] = _outcode(sign, a, box)
            if ca:
                cb = codes[ib]
                if cb is None:
                    cb = codes[ib] = _outcode(sign, b, box)
                if ca & cb:
                    continue
            lo = a if lo_a else r1
            hi = b if hi_b else r2
            tr = transitions[(p, e)]
            # the child's entry edge runs from b to a
            ends = codes[ib], codes[ia]
            if tr.flip:
                # z -> t - z turns directions around
                c_eps, lo, hi = -eps, _neg_ray(lo), _neg_ray(hi)
                ends = tuple(map(_mirror, ends))
            else:
                c_eps = eps
            q, e2 = tr.target
            stack.append((q, c_eps, tr.apply(o), lo, hi, e2, ends))
    return cands


def _ray(d: Vec2) -> tuple:
    """A window ray of _box_candidates: (x, y), flat tuples of the
    numerator primitives."""
    return _flat(d.x), _flat(d.y)


def _neg_ray(r: tuple) -> tuple:
    """The opposite ray, in the frame across a halfturn."""
    x, y = r
    return (*[-c for c in x[:-1]], x[-1]), (*[-c for c in y[:-1]], y[-1])


def _outcode(sign, dv: tuple, box: tuple) -> int:
    """The sides of the box |x| <= bx, |y| <= by that the point dv = (x,
    y) lies beyond, as bits: 1 for x > bx, 2 for x < -bx, 4 for y > by and
    8 for y < -by; 0 exactly when dv is in the closed box.  x and y are
    flat tuples, box is ((numerators, den) of bx, of by), bx, by > 0, and
    each bit is the exact sign of a difference or sum over the positive
    common denominator."""
    code = 0
    for t, (bn, bd), bit in zip(dv, box, (1, 4)):
        td = t[-1]
        if sign([c * bd - b * td for c, b in zip(t, bn)]) > 0:
            code |= bit
        elif sign([c * bd + b * td for c, b in zip(t, bn)]) < 0:
            code |= bit << 1
    return code


def _mirror(code):
    """The outcode of -dv from that of dv, or None for None."""
    return None if code is None else (code & 5) << 1 | (code >> 1) & 5


def _left_half(field, r1: tuple, r2: tuple):
    """The cone from ray r1 counterclockwise to ray r2 (_ray tuples, the
    cone below pi) clipped to the closed halfplane x <= 0, the cone from
    (0, 1) to (0, -1): its two rays, or (None, None) when the clipped cone
    has no interior."""
    sign = field.num_sign
    up = _ray(Vec2(field.zero(), field.one()))
    r1_left, r2_left = sign(r1[0]) <= 0, sign(r2[0]) <= 0
    lo = r1 if r1_left else up if r2_left else None
    hi = r2 if r2_left else _neg_ray(up) if r1_left else None
    if lo is None or hi is None \
            or sign(field.num_cross(lo[0], lo[1], hi[0], hi[1])) <= 0:
        return None, None
    return lo, hi


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


def _max_depth(regions: Sequence[ConvexPolygon], boxes, pairs) -> int:
    """Largest number of the convex regions sharing an interior point,
    from their float boxes and pairs, the (j, intersection) of every pair
    i < j of regions whose interiors meet."""
    best = 2 if pairs else 1
    n = len(regions)
    # (intersection of a run of regions, its box, next index, run length)
    stack = [(nxt, nxt.float_bbox(), j + 1, 2) for j, nxt in pairs]
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
    multiplicity over surface points.  One pass over the pairs of a
    chart's pieces gives both the deck translations, in (i, j) order, and
    the runs of two that _max_depth extends."""
    by_chart: Dict[int, list] = {}
    for (chart, eps, shift, region) in pieces:
        by_chart.setdefault(chart, []).append((eps, shift, region))
    deg = 1
    translations = []
    for chart, entries in by_chart.items():
        regions = [r for (_, _, r) in entries]
        boxes = [r.float_bbox() for r in regions]
        pairs = []
        for i, (e1, s1, region) in enumerate(entries):
            for j in range(i + 1, len(entries)):
                if boxes_disjoint(boxes[i], boxes[j]):
                    continue
                nxt = region.intersect(regions[j])
                if nxt is None:
                    continue
                e2, s2 = entries[j][0], entries[j][1]
                if e1 != e2:
                    raise InternalCheckError(
                        "flipped self-overlap of a spanning rectangle; the "
                        "surface would contain an immersed Mobius band")
                translations.append(s2 - s1 if e1 == 1 else s1 - s2)
                pairs.append((j, nxt))
        deg = max(deg, _max_depth(regions, boxes, pairs))
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
        if not (gen.scale(width.field.rational(k)) - v).is_zero():
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
# crossings as deck motions

def crossing_motions(s1: SaddleConnection, s2: SaddleConnection) -> tuple:
    """The transverse interior crossings of two saddle connections, each
    as the deck motion (e, c), w -> e*w + c from s2's walk frame to s1's
    that it selects, in the order first met over piece pairs (i, j).

    A piece i of s1 and a piece j of s2 in one chart that meet in one
    point give _place_between of their two placements.  Meetings at
    vertices (the ends of the connections and any cone or marked point)
    are skipped; inside a convex chart a piece meets the boundary only at
    its ends, so only a meeting at a piece end can be at a vertex.  A
    collinear overlap of positive length raises OverlappingSegments.

    One motion per crossing: a point on a polygon edge is met once from
    each chart along the edge, and the two charts' placements differ by
    the same gluing in both walks, so both give one motion.  Two distinct
    crossings give two distinct motions, because a motion carries s2's
    developed segment onto a straight segment, which meets s1's developed
    segment at most once unless the two overlap.  So the motions,
    deduplicated by _motion_key, count the crossings."""
    if s1.surface is not s2.surface:
        raise InputError("connections live on different surfaces")
    surface = s1.surface
    seen = {}
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
            p = r[1]
            if ((p == a or p == b or p == c or p == d)
                    and surface.vertex_index(c1, p) is not None):
                continue
            m = _place_between(*s1.placements[i][1:], *s2.placements[j][1:])
            seen.setdefault(_motion_key(*m), m)
    return tuple(seen.values())


def intersection_number(s1: SaddleConnection, s2: SaddleConnection) -> int:
    """Number of transverse interior intersections of two saddle
    connections: len(crossing_motions(s1, s2))."""
    return len(crossing_motions(s1, s2))
