"""Exact fixed point counting for affine automorphisms.

Two independent counters are provided.  The primary one solves, for every
edge of an f-section, the affine fixed point equation of each branch of f
over the edge's spanning rectangle; every regular fixed point of f lies
in at least one such rectangle, so the deduplicated union is Fix(f) minus
the singular points, which are read off the singularity permutation.  The
oracle counter is a brute force over the pieces of f instead: it solves
the fixed point equation once per piece and per identification of the
piece's chart with its target chart, the identity or a gluing
transition z -> +-z + s, so it needs no section, walk or cover and runs
on halfturn surfaces as on translation ones.  Both attach a
Lefschetz number computed homologically, from the action of f on the
polygon edges modulo the polygon boundaries, as a third check: L equals
the index sum.  L is independent of both counters, but not of itself:
it is computed once per map and kept on it, as are the fixed singular
points, so the oracle reuses the count's L and singular points (the same
deterministic code on the same input would only repeat them).

Coordinates, indices and counts are exact; no step rounds.

Its search budgets (the module's _UPPER_CASE constants) stay beside
the searches they cap, not in one shared module, because tests patch
each budget on the module whose search reads it.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from . import linalg
from .errors import InputError, InternalCheckError, NotFixed, NotVeering
from .exactnum import FieldElement, format_element
from .flatsurf import FlatSurface, SurfacePoint
from .geom import Vec2, cross_sign
from .saddle import (
    SaddleConnection,
    _motion_key,
    _place_between,
    _place_unapply,
)
from .veering import (
    Section,
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
        return hash(self.key)

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
        return frozenset(p.key for p in self.points)

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
# the rectangle solver

def _image_sign(f, sc: SaddleConnection, image: SaddleConnection) -> int:
    d = f.derivative.apply(sc.hol)
    if image.hol == d:
        return 1
    if image.hol == -d:
        return -1
    raise InternalCheckError("image holonomy is not +-D times the source")


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


def _ends(sc: SaddleConnection):
    """sc's start and end as (germ into sc, point in sc's walk frame,
    sign of the germ chart's placement there).  The end germ is the
    reverse connection's start, and its sign that of sc.reverse_motion,
    both read off sc without walking the reverse."""
    p0 = sc.start_point().pos
    return ((_germ_of(sc), p0, 1),
            (sc.reverse_start(), p0 + sc.hol, sc.reverse_motion()[0]))


def _vertex_branches(surface, sigma, image, s: int):
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
    (a0, a1), (b0, b1) = _ends(sigma), _ends(image)
    e = -s
    out = []
    for (ga, pa, ea), (gb, qb, eb) in ((a0, b1), (a1, b0)):
        if surface.corner_class[ga[0]] != surface.corner_class[gb[0]]:
            continue
        m = ea * e * eb
        if _germ_turn(surface, gb, ga, m) or _germ_turn(surface, ga, gb, m):
            out.append(_place_between(e, pa, 1, qb))
    return out


def _branch_fixed_point(d1, d2, p0: Vec2, q0: Vec2, e: int, c: Vec2):
    """The fixed point of the branch w -> e*(diag(d1, d2)(w - p0) + q0) + c
    of f, and the diagonal (l1, l2) = e*(d1, d2) of its linear part.

    The lift of f along an edge with start p0, into the frame of the
    image edge with start q0, is w -> diag(d1, d2)(w - p0) + q0; a motion
    w -> e*w + c (saddle._place_between) carries the image frame back."""
    one = d1.field.one()
    l1, l2 = (d1, d2) if e == 1 else (-d1, -d2)
    base = (q0 + c) if e == 1 else (c - q0)
    return (Vec2((base.x - l1 * p0.x) / (one - l1),
                 (base.y - l2 * p0.y) / (one - l2)), l1, l2)


def fixed_points_in_rectangle(f, sigma: SaddleConnection) -> List[FixedPoint]:
    """Regular fixed points of f inside sigma's spanning rectangle.

    Every crossing of sigma with f(sigma), and every meeting of an end of
    sigma with the opposite end of f(sigma) at a vertex, selects one
    affine branch of f over the rectangle, a deck motion from the image's
    walk frame to sigma's: the crossings' from the surface's crossing
    memo (EdgeCache.motions), the vertex meetings' from
    _vertex_branches.  The branch's unique fixed point is kept when it
    lands in the open rectangle and survives an exact f(p) = p check.
    Points are deduplicated by canonical coordinates."""
    surface = sigma.surface
    cache = edge_cache(surface)
    rect = cache.rect(sigma)
    if rect is None:
        raise NotVeering(
            "connection with holonomy (%s, %s) spans a singular rectangle"
            % (sigma.hol.x, sigma.hol.y))
    image = cache.image(f, sigma)
    s = _image_sign(f, sigma, image)
    dmat = f.derivative
    d1 = dmat.a if s == 1 else -dmat.a
    d2 = dmat.d if s == 1 else -dmat.d
    p0 = sigma.start_point().pos
    q0 = image.start_point().pos
    x0, x1, y0, y1 = rect.bounds
    branches = (cache.motions(sigma, image)
                + tuple(_vertex_branches(surface, sigma, image, s)))
    found: Dict[object, FixedPoint] = {}
    for e, c in branches:
        z, l1, l2 = _branch_fixed_point(d1, d2, p0, q0, e, c)
        if not (x0 < z.x < x1 and y0 < z.y < y1):
            continue
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


def _singular_index(f, surface: FlatSurface, cone) -> int:
    """Index of a fixed cone or marked point: 1 - prongs when f fixes
    every unstable prong, +1 when it fixes none.  A prong is a horizontal
    germ (corner, x sign); f.carry gives its image germ exactly, and the
    image is again horizontal because Df is diagonal."""
    one = Vec2(surface.field.one(), surface.field.zero())
    germs = _horizontal_germs(surface, cone)
    fixed = 0
    for corner, xsign in germs:
        image, d = f.carry(corner, one if xsign > 0 else -one)
        if (image, d.x.sign()) == (corner, xsign):
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
    when it fixes each of them, each prong's image carried exactly as a
    germ by f.carry."""
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
        dmat = f.derivative
        return _regular_index(dmat.a if lin == 1 else -dmat.a,
                              dmat.d if lin == 1 else -dmat.d)
    cls = surface.vertex_class_at(sp)
    if cls is None:
        raise InputError("singular fixed point is not at a vertex")
    return _singular_index(f, surface, surface.cone_points[cls])


def _singular_fixed_points(f) -> List[FixedPoint]:
    """The fixed cone and marked points of f with their indices, found
    once per map and kept on it (f._singular)."""
    if f._singular is not None:
        return f._singular
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
                              surface.canonical_point(sp)[1]))
    f._singular = out
    return out


# ---------------------------------------------------------------------------
# the main counter

def count_fixed_points(f) -> FixReport:
    """Exact Fix(f): rectangle solves over an annular-avoiding f-section,
    deduplicated, plus the fixed singular and marked points.  The
    section and the edge images are kept on the map and shared with
    lefschetz_number and the Markov bound for the same map; rectangles and
    crossing numbers come from the surface's edge_cache.

    A power f = b^n counts over b's section T: b(T) <= T, both +-D keep
    every slope's sign, so b respects the section order, which is
    transitive, and f(T) <= T; the degree threshold reads only T's
    rectangles.

    f must expand the horizontal direction: `count_fixed_points(f.inverse())`
    raises LambdaNotExpanding.  Fix(f^-1) = Fix(f), so count f instead."""
    section = annular_avoiding_f_section(f)
    per_edge = {}
    seen: Dict[tuple, FixedPoint] = {}
    for e in section.edges:
        pts = fixed_points_in_rectangle(f, e)
        per_edge[e] = tuple(pts)
        for fp in pts:
            seen.setdefault(fp.key, fp)
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
# the brute force oracle

def oracle_count_fixed_points(f, T: Section) -> FixReport:
    """Brute force counter over the pieces of f, for checking the
    rectangle route: it reads f.pieces (a power's composed pieces), the
    surface's transitions and the exact point primitives, and no section,
    walk, edge image, crossing or cover.  T is not read.

    A piece P in chart c maps z -> A z + b into chart t, with A =
    +-diag(lambda, 1/lambda), so A - I and A + I are invertible.  Its
    cases are t = c, with the equation A z + b = z, and each glued edge e
    of c whose partner chart is t, with A z + b = T_e(z), T_e: z -> +-z +
    s the transition.  Each case has one solution z, kept when P's
    closed region holds it, f fixes it exactly, it is not a vertex and
    its canonical key is new.

    Complete: a regular fixed point z of chart c lies in some piece P
    of c, and P's image of z is a representative of z, z itself (t = c)
    or T_e(z) for the glued edge e holding z, so that case's equation
    holds.  The index is right: conversely, where a case's equation
    holds at a point z of P's region, P maps into chart t's polygon, so
    a T_e case's z lies on e, and the case's linear part, A, or -A across
    a halfturn, is Df read in chart c.  So the index is intrinsic,
    whichever piece or case finds z first."""
    surface = f.surface
    zero = surface.field.zero()
    seen: Dict[tuple, FixedPoint] = {}
    for piece in f.pieces:
        mat, b = piece.map.mat, piece.map.shift
        cases = [(1, Vec2(zero, zero))] if piece.target == piece.chart else []
        for k in range(len(surface.polygons[piece.chart])):
            tr = surface.transitions[(piece.chart, k)]
            if tr.target[0] == piece.target:
                cases.append((-1 if tr.flip else 1, tr.map.shift))
        for e, s in cases:
            z = Vec2((s.x - b.x) / (mat.a - e), (s.y - b.y) / (mat.d - e))
            if piece.region.contains(z) == 0:
                continue
            sp = SurfacePoint(piece.chart, z)
            if not surface.same_point(f.apply(sp), sp):
                continue
            kind, key, rep = surface.canonical_point(sp)
            if kind == "vertex" or key in seen:
                continue
            l1, l2 = (mat.a, mat.d) if e == 1 else (-mat.a, -mat.d)
            seen[key] = FixedPoint(rep.chart, rep.pos, "regular",
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
            m = _place_between(ea, sa, eb, sb)
            seen.setdefault(_motion_key(*m), m)
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

    Iterates N + I on integer vectors so the test vector stays positive,
    then shifts back.  The ratios w_i / v_i do not change when v is
    rescaled, so no step divides: each is one Fraction at the end."""
    n = len(n_matrix)

    def step(v):
        return [sum(n_matrix[i][j] * v[j] for j in range(n)) + v[i]
                for i in range(n)]
    v = [1] * n
    for _ in range(12):
        v = step(v)
    w = step(v)
    ratios = [Fraction(w[i], v[i]) for i in range(n)]
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
