"""Piecewise-affine self-maps of a flat surface and the affine automorphisms
sitting inside them.

A PiecewiseAffineMap is a finite list of pieces; each piece carries a convex
source region inside one polygon chart, an affine map, and a target chart.
Validation checks that the regions tile the surface, that every piece maps
into its target chart, that the map is continuous across piece boundaries
and across gluings, and (for automorphisms) that the image regions tile as
well, so the map is bijective.  For the images an area check suffices:
the piece areas sent to each chart must add up to its area, and a degree
argument (see _validate_image_tiling) shows that images of a continuous,
orientation-preserving map of determinant-1 pieces that pass it cannot
overlap.  Continuity is checked once per vertex
star, a piece vertex with every piece holding it: the ends of every
segment two pieces share, in a chart or across a glued edge, are piece
vertices, so agreement at the stars is agreement everywhere.

An AffineAutomorphism additionally has every derivative equal to
diag(lambda, 1/lambda) up to an overall sign per piece (the sign is the
half-translation chart ambiguity), with lambda > 1 exact.

develop is the map builder: it cuts D times each polygon into chart
pieces with saddle.cover, and pulls each piece back by D^-1, inverted
once; torus_from_matrix develops the eigen torus of an integer matrix.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import (
    Discontinuous,
    InputError,
    InternalCheckError,
    LambdaNotExpanding,
    NotBijective,
    NotConstantDerivative,
    NotHyperbolic,
)
from .exactnum import FieldElement, RealNumberField
from .flatsurf import EdgeRef, FlatSurface, SurfacePoint
from .geom import (
    AffineMap,
    ConvexPolygon,
    Mat2,
    Vec2,
    boxes_disjoint,
    cross_sign,
    float_box,
    orient,
)
from .saddle import _place_cross, cover
from .veering import edge_cache

# Placements expanded while covering the image of one polygon in develop.
_IMAGE_COVER_NODES = 200000


class Piece:
    __slots__ = ("chart", "region", "map", "target")

    def __init__(self, chart: int, region: ConvexPolygon, map_: AffineMap, target: int):
        self.chart = chart
        self.region = region
        self.map = map_
        self.target = target

    def image(self) -> ConvexPolygon:
        return self.region.transform(self.map)

    def __repr__(self):
        return "Piece(%d -> %d, %d vertices)" % (
            self.chart, self.target, len(self.region))


class PiecewiseAffineMap:
    # the map a PowerAutomorphism iterates; None for every other map
    base: Optional["AffineAutomorphism"] = None

    def __init__(self, surface: FlatSurface, pieces: Sequence[Piece],
                 validate: bool = True):
        self.surface = surface
        self.pieces = list(pieces)
        # the surface's EdgeCache, which the surface refers to only weakly:
        # the maps and sections on a surface keep its geometry alive
        self._cache = edge_cache(surface)
        # filled by veering.annular_avoiding_f_section, EdgeCache.image,
        # fixcount.lefschetz_number (L of the map) and
        # fixcount._singular_fixed_points
        self._section = None
        self._images: dict = {}
        self._lefschetz = None
        self._singular = None
        self._by_chart: List[list] = [[] for _ in surface.polygons]
        for piece in self.pieces:
            if not 0 <= piece.chart < len(surface.polygons):
                raise InputError("piece chart %d out of range" % piece.chart)
            if not 0 <= piece.target < len(surface.polygons):
                raise InputError("piece target %d out of range" % piece.target)
            self._by_chart[piece.chart].append(piece)
        if validate:
            self._validate()

    # -- validation -----------------------------------------------------------

    def _validate(self) -> list:
        """Run every check; returns each chart's piece areas (area2), in
        the order of its pieces."""
        areas = self._validate_source_tiling()
        self._validate_continuity()
        return areas

    def _validate_source_tiling(self) -> list:
        """Every region vertex lies in its chart, each distinct vertex of a
        chart tested once, and the regions tile it (_check_tiling);
        returns the areas _check_tiling computed."""
        areas = []
        for chart, poly in enumerate(self.surface.polygons):
            regions = [piece.region for piece in self._by_chart[chart]]
            seen = set()
            for region in regions:
                for v in region.vertices:
                    if v in seen:
                        continue
                    seen.add(v)
                    if poly.contains(v) == 0:
                        raise InputError(
                            "piece region vertex %r outside its chart %d" % (v, chart))
            areas.append(self._check_tiling(chart, regions))
        return areas

    def _check_tiling(self, chart: int, regions) -> list:
        """The regions, all in one chart, must cover its area and have
        pairwise disjoint interiors; returns their areas (area2)."""
        area = self.surface.polygons[chart].area2()
        areas = [region.area2() for region in regions]
        total = sum(areas, self.surface.field.zero())
        if total != area:
            raise NotBijective("piece regions of chart %d cover area %s of %s"
                               % (chart, total, area))
        for i in range(len(regions)):
            for j in range(i + 1, len(regions)):
                if regions[i].overlaps(regions[j]):
                    raise NotBijective(
                        "piece regions overlap in chart %d" % chart)
        return areas

    def _validate_continuity(self) -> None:
        """The map must agree wherever two piece regions touch, including
        touching across a glued edge, and must map every piece into its
        target chart.  Affine on segments: agreement at the two ends of a
        shared sub-segment is agreement along it.

        Every vertex image of every piece is computed and checked inside
        its target chart first (NotBijective), each distinct (target,
        image) pair tested once, before any comparison can raise
        Discontinuous.  Then one pass over vertex stars: a star is a
        distinct piece vertex of a chart together with every piece whose
        closed region holds it.  The first such piece, in chart order,
        maps the star; each other piece must map it to the same surface
        point.  A star on a glued edge is crossed to the partner chart and
        must map to the same point there: the crossed point's own star
        when it is a piece vertex there, else self.apply (a T-junction).
        Images compare as equal (chart, pos) pairs first, then by
        canonical_point keys, each star's key computed at most once.

        This is as strong as comparing every pair of piece sides: the
        segment two piece sides share, or a piece side and a glued polygon
        edge, ends at vertices of one of the two pieces or of the polygon,
        and the source tiling (checked first) makes every polygon vertex a
        piece vertex too.  So each end is a star holding both pieces, or a
        star on the glued edge.  It rejects no continuous map either: a
        continuous map is single-valued at every point that several closed
        pieces hold."""
        surface = self.surface
        polygons = surface.polygons
        canonical = surface.canonical_point
        images = {}
        inside = set()
        for piece in self.pieces:
            target = piece.target
            ws = [piece.map.apply(v) for v in piece.region.vertices]
            for w in ws:
                if (target, w) in inside:
                    continue
                if polygons[target].contains(w) == 0:
                    raise NotBijective(
                        "piece image leaves its target chart %d" % target)
                inside.add((target, w))
            images[piece] = ws

        # a star is [image, canonical key or None, float box of the vertex]
        def key(star):
            if star[1] is None:
                star[1] = canonical(star[0])[:2]
            return star[1]

        # same chart: every piece holding a star maps it where the first does
        stars = []
        for chart, pieces in enumerate(self._by_chart):
            own = {}
            for piece in pieces:
                for v, w in zip(piece.region.vertices, images[piece]):
                    own.setdefault(v, {})[piece] = w
            chart_stars = {}
            for v, held in own.items():
                box = float_box((v,))
                star = None
                for piece in pieces:
                    w = held.get(piece)
                    if w is None:
                        if (boxes_disjoint(box, piece.region.float_bbox())
                                or piece.region.contains(v) == 0):
                            continue
                        w = piece.map.apply(v)
                    image = SurfacePoint(piece.target, w)
                    if star is None:
                        star = [image, None, box]
                    elif image != star[0] and canonical(image)[:2] != key(star):
                        raise Discontinuous(
                            "pieces disagree at %r in chart %d" % (v, chart))
                chart_stars[v] = star
            stars.append(chart_stars)
        # across gluings: a star on an edge maps where its crossing does
        for edge, tr in surface.transitions.items():
            chart, e = edge
            a, b = polygons[chart].edges()[e]
            edge_box = float_box((a, b))
            partner = stars[tr.target[0]]
            for v, star in stars[chart].items():
                if boxes_disjoint(edge_box, star[2]) or orient(a, b, v) != 0:
                    continue
                other = surface.cross_edge(edge, v)
                # no piece vertex there (a T-junction): the piece holding it
                crossed = (partner.get(other.pos)
                           or [self.apply(other), None, None])
                if crossed[0] != star[0] and key(crossed) != key(star):
                    raise Discontinuous(
                        "pieces disagree across edge %s at %r" % (edge, v))

    def _validate_image_tiling(self, areas: list):
        """The image regions must tile every chart.  It is enough that the
        images targeting each chart cover its area, summed from the piece
        areas that the source check computed: every derivative has
        determinant 1 (AffineAutomorphism checks it first), so an image
        has its region's area exactly.

        No pair of images can overlap once this holds, by a degree
        argument.  The checks before this one (source tiling; continuity,
        which also puts every image in its target chart; derivatives
        +-diag(lambda, 1/lambda); gluings by +-I) make f continuous and
        orientation preserving, and a local homeomorphism except at
        finitely many piece vertices.  So on each component C' of the
        surface, the number N of preimages of a point is constant off a
        finite set, and the integral of N over C' is the summed image
        area of the charts of C', which this check makes area(C').  So
        N = 1: the images tile."""
        field = self.surface.field
        totals = [field.zero() for _ in self.surface.polygons]
        for pieces, chart_areas in zip(self._by_chart, areas):
            for piece, area in zip(pieces, chart_areas):
                totals[piece.target] = totals[piece.target] + area
        for chart, total in enumerate(totals):
            area = self.surface.polygons[chart].area2()
            if total != area:
                raise NotBijective("image regions of chart %d cover area %s of %s"
                                   % (chart, total, area))

    # -- evaluation -------------------------------------------------------------

    def piece_at(self, sp: SurfacePoint) -> Piece:
        """The piece whose region holds sp: one holding it in its
        interior, else the first holding it on its boundary.  Both float
        boxes are conservative, so a piece skipped for a disjoint box is
        one that does not contain sp."""
        box = float_box((sp.pos,))
        best = None
        for piece in self._by_chart[sp.chart]:
            if boxes_disjoint(box, piece.region.float_bbox()):
                continue
            c = piece.region.contains(sp.pos)
            if c == 2:
                return piece
            if c == 1 and best is None:
                best = piece
        if best is None:
            raise InputError("point %r not in any piece region" % (sp,))
        return best

    def apply(self, sp: SurfacePoint) -> SurfacePoint:
        piece = self.piece_at(sp)
        return SurfacePoint(piece.target, piece.map.apply(sp.pos))

    def derivative_sign_at(self, sp: SurfacePoint) -> int:
        """Sign of the horizontal derivative of the piece holding sp."""
        return self.piece_at(sp).map.mat.a.sign()

    def carry(self, corner: EdgeRef, d: Vec2) -> Tuple[EdgeRef, Vec2]:
        """Image of the germ (corner, d), d a direction the corner owns,
        as (owning corner, direction in that corner's chart).

        The piece whose closed region holds the corner's vertex and whose
        tangent cone there holds d maps the vertex, and its matrix maps d.
        The vertex is an extreme point of its chart, so it is a vertex of
        every region holding it, and two cross signs test the cone.  Two
        pieces whose cones share the ray agree along it, as continuity
        asks, so the first one found decides."""
        chart, v = corner
        surface = self.surface
        pos = surface.polygons[chart].vertices[v]
        box = float_box((pos,))
        for piece in self._by_chart[chart]:
            if boxes_disjoint(box, piece.region.float_bbox()):
                continue
            vs = piece.region.vertices
            k = next((k for k, w in enumerate(vs) if w == pos), None)
            if k is None:
                continue
            if (cross_sign(vs[(k + 1) % len(vs)] - pos, d) < 0
                    or cross_sign(d, vs[k - 1] - pos) < 0):
                continue
            image = piece.map.apply(pos)
            vidx = surface.vertex_index(piece.target, image)
            if vidx is None:
                raise InternalCheckError(
                    "germ image %r is not a vertex of chart %d"
                    % (image, piece.target))
            return surface.owning_corner(piece.target, vidx,
                                         piece.map.mat.apply(d))
        raise InputError("no piece at corner %s holds direction %r"
                         % (corner, d))

    def compose_with(self, inner: "PiecewiseAffineMap") -> "PiecewiseAffineMap":
        """self after inner, pieces refined by exact polygon intersection."""
        if inner.surface is not self.surface:
            raise InputError("maps live on different surfaces")
        out = []
        outer_boxes = [(p, p.region.float_bbox()) for p in self.pieces]
        for ip in inner.pieces:
            img = ip.image()
            ibox = img.float_bbox()
            inv = ip.map.inverse()
            for op, obox in outer_boxes:
                if op.chart != ip.target or boxes_disjoint(ibox, obox):
                    continue
                overlap = img.intersect(op.region)
                if overlap is None:
                    continue
                region = overlap.transform(inv)
                out.append(Piece(ip.chart, region, op.map.compose(ip.map), op.target))
        return PiecewiseAffineMap(self.surface, out, validate=False)

    def __repr__(self):
        return "PiecewiseAffineMap(%d pieces)" % len(self.pieces)


class AffineAutomorphism(PiecewiseAffineMap):
    """Bijective piecewise-affine self-map with derivative diag(lambda,
    1/lambda) up to per-piece sign; .derivative is diag(lambda,
    1/lambda)."""

    def __init__(self, surface: FlatSurface, pieces: Sequence[Piece],
                 lambda_: FieldElement):
        if (lambda_ - 1).sign() <= 0:
            raise LambdaNotExpanding("stretch factor %s is not > 1" % lambda_)
        if not pieces:
            raise NotBijective("map has no pieces")
        self.lambda_ = lambda_
        neg = -lambda_
        for piece in pieces:
            m = piece.map.mat
            # +-diag(lambda, 1/lambda), checked without a division
            if not (m.b.is_zero() and m.c.is_zero()
                    and (m.a == lambda_ or m.a == neg) and m.a * m.d == 1):
                raise NotConstantDerivative(
                    "piece derivative %r is not +-diag(%s, 1/%s)"
                    % (piece.map.mat, lambda_, lambda_))
        # read off a piece, so 1/lambda costs no division
        m = pieces[0].map.mat
        self.derivative = m if m.a == lambda_ else -m
        super().__init__(surface, pieces)
        self.singularity_permutation = self._compute_singularity_permutation()

    def _validate(self) -> list:
        areas = super()._validate()
        self._validate_image_tiling(areas)
        return areas

    def _compute_singularity_permutation(self):
        surface = self.surface
        perm = {}
        for cp in surface.cone_points:
            sp = surface.vertex_point(cp.id)
            image = self.apply(sp)
            cls = surface.vertex_class_at(image)
            if cls is None:
                kind, key, rep = surface.canonical_point(image)
                if kind != "vertex":
                    raise InputError(
                        "vertex class %d maps to a non-vertex point; "
                        "automorphisms must permute cone and marked points" % cp.id)
                cls = key
            if surface.cone_points[cls].angle_pi != cp.angle_pi:
                raise InternalCheckError(
                    "cone angle not preserved: class %d -> %d" % (cp.id, cls))
            perm[cp.id] = cls
        if sorted(perm.values()) != sorted(perm.keys()):
            raise InternalCheckError("singularity map is not a permutation")
        return perm

    def inverse(self) -> "AffineAutomorphism":
        out = []
        for piece in self.pieces:
            out.append(Piece(piece.target, piece.image(),
                             piece.map.inverse(), piece.chart))
        d = self.derivative
        return InverseAutomorphism(self.surface, out, self.lambda_,
                                   Mat2.diagonal(d.d, d.a))

    def power(self, n: int) -> "AffineAutomorphism":
        if n < 1:
            raise InputError("power expects n >= 1")
        if n == 1:
            return self
        return PowerAutomorphism(self, n)

    def __repr__(self):
        return "AffineAutomorphism(%d pieces, lambda = %s)" % (
            len(self.pieces), self.lambda_)


class InverseAutomorphism(PiecewiseAffineMap):
    """Inverse of an affine automorphism: contracts horizontally.  Kept as a
    separate class because its derivative is diag(1/lambda, lambda), so it is
    not an AffineAutomorphism in the normalized sense.  lambda_ is the
    stretch factor of the map it inverts."""

    def __init__(self, surface, pieces, lambda_, derivative: Mat2):
        super().__init__(surface, pieces, validate=False)
        self.lambda_ = lambda_
        self.derivative = derivative


class PowerAutomorphism(AffineAutomorphism):
    """Lazy n-th power: iterates its base, so apply, carry and the
    derivative sign walk the base n times; pieces are composed only on
    request, when .pieces or piece_at is read.

    A power counts on its base's section (veering.annular_avoiding_f_section):
    the base's annular-avoiding f-section T has base(T) <= T; both +-D keep
    every slope's sign, so the base respects the section order, which is
    transitive, and base^n(T) <= T.  The degree threshold reads only T's
    rectangles.  Edge images stay per map, in ._images."""

    def __init__(self, base: AffineAutomorphism, n: int):
        self.base = base
        self.n = n
        self.surface = base.surface
        self._cache = base._cache
        self.lambda_ = base.lambda_ ** n
        self.derivative = Mat2.diagonal(self.lambda_, base.derivative.d ** n)
        self._materialized: Optional[PiecewiseAffineMap] = None
        self._section = None
        self._images: dict = {}
        self._lefschetz = None
        self._singular = None
        perm = {k: k for k in base.singularity_permutation}
        for _ in range(n):
            perm = {k: base.singularity_permutation[v] for k, v in perm.items()}
        self.singularity_permutation = perm

    def apply(self, sp: SurfacePoint) -> SurfacePoint:
        for _ in range(self.n):
            sp = self.base.apply(sp)
        return sp

    def derivative_sign_at(self, sp: SurfacePoint) -> int:
        sign = 1
        for _ in range(self.n):
            sign *= self.base.derivative_sign_at(sp)
            sp = self.base.apply(sp)
        return sign

    def carry(self, corner: EdgeRef, d: Vec2) -> Tuple[EdgeRef, Vec2]:
        for _ in range(self.n):
            corner, d = self.base.carry(corner, d)
        return corner, d

    def _materialize(self) -> PiecewiseAffineMap:
        if self._materialized is None:
            acc: PiecewiseAffineMap = self.base
            for _ in range(self.n - 1):
                acc = self.base.compose_with(acc)
            self._materialized = acc
        return self._materialized

    @property
    def pieces(self):
        return self._materialize().pieces

    def piece_at(self, sp: SurfacePoint) -> Piece:
        """The composed map's piece holding sp; see .pieces."""
        return self._materialize().piece_at(sp)

    def inverse(self):
        raise InputError("invert the base map and take its power instead")

    def power(self, n: int):
        return self if n == 1 else self.base.power(self.n * n)

    def __repr__(self):
        return "PowerAutomorphism(%r, n=%d)" % (self.base, self.n)


# ---------------------------------------------------------------------------
# building maps by development

def develop(surface: FlatSurface, D: Mat2, corner: EdgeRef,
            image_corner: EdgeRef, lambda_: FieldElement
            ) -> AffineAutomorphism:
    """The affine automorphism with derivative D taking corner's vertex to
    image_corner's, which must own D times corner's outgoing edge; an
    InputError says so before any cover runs.

    The polygons are placed around corner's chart by a breadth-first
    spanning tree of the gluings; each placed P goes to D.P in
    image_corner's frame, which saddle.cover cuts into map pieces.  The
    cover of corner's chart is seeded by image_corner's chart, and that of
    every other P by the cover of its tree parent (_child_seeds).  A D
    outside the Veech group puts a vertex inside some D.P (NotBijective)
    or fails validation."""
    ray = D.apply(surface.corner_rays(corner)[0])
    if not surface.owns_ray(image_corner, ray):
        raise InputError("image corner %s does not own the ray %r, D times "
                         "corner %s's outgoing edge" % (image_corner, ray,
                                                        corner))
    field = surface.field
    zero = Vec2(field.zero(), field.zero())
    chart0, v0 = corner
    target0, w0 = image_corner
    v = surface.polygons[chart0].vertices[v0]
    w = surface.polygons[target0].vertices[w0]
    budget = ("_IMAGE_COVER_NODES", _IMAGE_COVER_NODES)
    # a piece map z -> +-D z + s has the inverse z -> +-D^-1 (z - s)
    d_inv = D.inverse()
    inverses = {1: d_inv, -1: -d_inv}
    # chart -> (placement eps, shift, seed placements of its image cover)
    tree = {chart0: (1, zero, [(target0, 1, zero)])}
    order = [chart0]
    pieces = []
    for chart in order:
        eps, shift, seeds = tree[chart]
        # chart coordinates -> plane -> image frame: z -> lin z + c
        lin = D if eps == 1 else -D
        c = D.apply(shift - v) + w
        region = surface.polygons[chart].transform(AffineMap(lin, c))
        cut = cover(surface, seeds, region, budget)
        if cut is None:
            raise NotBijective(
                "D carries polygon %d over a vertex: %r is not the "
                "derivative of an automorphism" % (chart, D))
        for target, e, t, piece in cut:
            # then into the target chart, y -> e (y - t)
            m = AffineMap(lin, c - t) if e == 1 else AffineMap(-lin, t - c)
            inv = inverses[e * eps]
            pieces.append(Piece(chart, piece.transform(
                AffineMap(inv, -inv.apply(m.shift))), m, target))
        child_seeds = None
        for k in range(len(surface.polygons[chart])):
            tr = surface.transitions[(chart, k)]
            child = tr.target[0]
            if child not in tree:
                if child_seeds is None:
                    child_seeds = _child_seeds(surface, cut)
                tree[child] = (*_place_cross(eps, shift, tr), child_seeds)
                order.append(child)
    return AffineAutomorphism(surface, pieces, lambda_)


def _child_seeds(surface: FlatSurface, cut):
    """Seeds for the cover of D.P, P a tree child of Q, from the cut of
    D.Q: its placements and their neighbours across every chart edge.

    cover crosses only edges through its region's interior, so some seed
    must meet D.P with positive area, and one of these does: a point
    inside the edge D.P shares with D.Q lies in a placement of the cut,
    inside it, or on an edge of it that crosses the shared edge, or on
    one that runs along it, with the neighbour across on D.P's side."""
    seeds = [(target, e, t) for target, e, t, _ in cut]
    for target, e, t, _ in cut:
        for j in range(len(surface.polygons[target])):
            tr = surface.transitions[(target, j)]
            seeds.append((tr.target[0], *_place_cross(e, t, tr)))
    return seeds


def torus_from_matrix(m_rows: Sequence[Sequence[int]]
                      ) -> Tuple[FlatSurface, AffineAutomorphism]:
    """Once-marked torus in eigenbasis coordinates for a hyperbolic integer
    matrix with det 1, together with the induced affine automorphism.

    Negative-trace matrices are supported: the derivative is then
    -diag(lambda, 1/lambda) (point-reflection composed with the stretch),
    with lambda the Perron root of the characteristic polynomial of -M.
    develop builds the map, taking vertex 0 to itself.
    """
    (a, b), (c, d) = m_rows
    for entry in (a, b, c, d):
        if not isinstance(entry, int):
            raise InputError("matrix entries must be integers")
    det = a * d - b * c
    if det != 1:
        raise NotHyperbolic("determinant %d != 1" % det)
    tr = a + d
    if abs(tr) <= 2:
        raise NotHyperbolic("|trace| = %d <= 2: matrix is not hyperbolic" % abs(tr))
    sign = 1 if tr > 0 else -1
    t = abs(tr)
    # lambda: larger root of x^2 - t x + 1, in (t-1, t)
    field = RealNumberField.create([1, -t, 1], t - 1, t)
    lam = field.gen()
    mu = field.element([t, -1])  # 1/lambda = t - lambda

    sa, sb, sc, sd = sign * a, sign * b, sign * c, sign * d
    # eigenvectors of N = sign*M for lambda and mu
    if sb != 0:
        v_u = Vec2(field.rational(sb), lam - sa)
        v_s = Vec2(field.rational(sb), mu - sa)
    else:
        v_u = Vec2(lam - sd, field.rational(sc))
        v_s = Vec2(mu - sd, field.rational(sc))
    # coordinate matrix E with E v_u = e1 scale, E v_s = e2 scale:
    # E = [v_u, v_s]^{-1} as columns
    cols = Mat2(v_u.x, v_s.x, v_u.y, v_s.y)
    e_mat = cols.inverse()
    if e_mat.det().sign() < 0:
        # flip the vertical axis to keep orientation; diag derivative survives
        e_mat = Mat2(e_mat.a, e_mat.b, -e_mat.c, -e_mat.d)

    w1 = e_mat.apply(Vec2(field.one(), field.zero()))
    w2 = e_mat.apply(Vec2(field.zero(), field.one()))
    origin = Vec2(field.zero(), field.zero())
    if w1.cross(w2).sign() <= 0:
        raise InternalCheckError("eigen coordinate change lost orientation")
    poly = ConvexPolygon([origin, w1, w1 + w2, w2])
    gluings = {
        (0, 0): ((0, 2), "translation"),
        (0, 2): ((0, 0), "translation"),
        (0, 1): ((0, 3), "translation"),
        (0, 3): ((0, 1), "translation"),
    }
    surface = FlatSurface(field, [poly], gluings, marked_corners=[(0, 0)],
                          names=["T"])
    d_mat = Mat2.diagonal(lam, mu)
    if sign < 0:
        d_mat = -d_mat
    image_corner, _ = surface.owning_corner(0, 0, d_mat.apply(w1))
    return surface, develop(surface, d_mat, (0, 0), image_corner, lam)
