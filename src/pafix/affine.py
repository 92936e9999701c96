"""Piecewise-affine self-maps of a flat surface and the affine automorphisms
sitting inside them.

A PiecewiseAffineMap is a finite list of pieces; each piece carries a convex
source region inside one polygon chart, an affine map, and a target chart.
Validation checks that the regions tile the surface, that the map is
continuous across piece boundaries and across gluings, and (for
automorphisms) that the image regions tile as well, so the map is bijective.

An AffineAutomorphism additionally has every derivative equal to
diag(lambda, 1/lambda) up to an overall sign per piece (the sign is the
half-translation chart ambiguity), with lambda > 1 exact.
"""

from __future__ import annotations

from fractions import Fraction
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
from .flatsurf import FlatSurface, SurfacePoint
from .geom import (
    AffineMap,
    ConvexPolygon,
    Mat2,
    Vec2,
    boxes_disjoint,
    float_box,
    shared_segment,
)


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
    def __init__(self, surface: FlatSurface, pieces: Sequence[Piece],
                 validate: bool = True):
        from .veering import edge_cache  # veering imports this module

        self.surface = surface
        self.pieces = list(pieces)
        # the surface's EdgeCache, which the surface refers to only weakly:
        # the maps and sections on a surface keep its geometry alive
        self._cache = edge_cache(surface)
        # filled by veering.annular_avoiding_f_section, EdgeCache.image
        # and fixcount.lefschetz_number (L of the map)
        self._section = None
        self._images: dict = {}
        self._lefschetz = None
        self._by_chart: List[list] = [[] for _ in surface.polygons]
        for piece in self.pieces:
            if not 0 <= piece.chart < len(surface.polygons):
                raise InputError("piece chart %d out of range" % piece.chart)
            if not 0 <= piece.target < len(surface.polygons):
                raise InputError("piece target %d out of range" % piece.target)
            self._by_chart[piece.chart].append(piece)
        if validate:
            self._validate_source_tiling()
            self._validate_images_inside()
            self._validate_continuity()

    # -- validation -----------------------------------------------------------

    def _validate_source_tiling(self):
        for chart, poly in enumerate(self.surface.polygons):
            pieces = self._by_chart[chart]
            total = self.surface.field.zero()
            for piece in pieces:
                for v in piece.region.vertices:
                    if poly.contains(v) == 0:
                        raise InputError(
                            "piece region vertex %r outside its chart %d" % (v, chart))
                total = total + piece.region.area2()
            if total != poly.area2():
                raise NotBijective(
                    "piece regions of chart %d cover area %s of %s"
                    % (chart, total, poly.area2()))
            for i in range(len(pieces)):
                for j in range(i + 1, len(pieces)):
                    if pieces[i].region.overlaps(pieces[j].region):
                        raise NotBijective(
                            "piece regions overlap in chart %d" % chart)

    def _validate_images_inside(self):
        for piece in self.pieces:
            target_poly = self.surface.polygons[piece.target]
            for v in piece.region.vertices:
                if target_poly.contains(piece.map.apply(v)) == 0:
                    raise NotBijective(
                        "piece image leaves its target chart %d" % piece.target)

    def _validate_continuity(self):
        """The map must agree wherever two piece regions touch, including
        touching across a glued edge.  Affine on segments: agreement at the
        two endpoints of the shared sub-segment is agreement everywhere.

        Every side of a piece is tested against the sides of each other
        piece in its chart and against each polygon edge of its chart with
        geom.shared_segment, whose float intervals drop the pairs that are
        not parallel or lie on different lines, and which orders collinear
        ends without a division.  A shared sub-segment also lies in the
        conservative float boxes of both regions and of both sides, so
        pairs whose boxes are disjoint are skipped: they cannot overlap,
        and every check that can fail runs."""
        surface = self.surface
        sides = {piece: [(a, b, float_box((a, b))) for a, b in piece.region.edges()]
                 for piece in self.pieces}
        # same-chart adjacencies
        for chart in range(len(surface.polygons)):
            pieces = self._by_chart[chart]
            for i in range(len(pieces)):
                for j in range(i + 1, len(pieces)):
                    if boxes_disjoint(pieces[i].region.float_bbox(),
                                      pieces[j].region.float_bbox()):
                        continue
                    for a, b, box1 in sides[pieces[i]]:
                        for c, d, box2 in sides[pieces[j]]:
                            if boxes_disjoint(box1, box2):
                                continue
                            hit = shared_segment(a, b, c, d)
                            if hit is None:
                                continue
                            for pt in hit:
                                p1 = SurfacePoint(pieces[i].target,
                                                  pieces[i].map.apply(pt))
                                p2 = SurfacePoint(pieces[j].target,
                                                  pieces[j].map.apply(pt))
                                if not surface.same_point(p1, p2):
                                    raise Discontinuous(
                                        "pieces disagree at %r in chart %d"
                                        % (pt, chart))
        # across gluings
        for (edge, tr) in surface.transitions.items():
            chart, e = edge
            a, b = surface.polygons[chart].edges()[e]
            box1 = float_box((a, b))
            for piece in self._by_chart[chart]:
                if boxes_disjoint(box1, piece.region.float_bbox()):
                    continue
                for c, d, box2 in sides[piece]:
                    if boxes_disjoint(box1, box2):
                        continue
                    hit = shared_segment(a, b, c, d)
                    if hit is None:
                        continue
                    for pt in hit:
                        other = surface.cross_edge(edge, pt)
                        img1 = SurfacePoint(piece.target, piece.map.apply(pt))
                        img2 = self.apply(other)
                        if not surface.same_point(img1, img2):
                            raise Discontinuous(
                                "pieces disagree across edge %s at %r"
                                % (edge, pt))

    def _validate_image_tiling(self):
        surface = self.surface
        by_target: List[list] = [[] for _ in surface.polygons]
        for piece in self.pieces:
            by_target[piece.target].append(piece.image())
        for chart, poly in enumerate(surface.polygons):
            total = surface.field.zero()
            for img in by_target[chart]:
                total = total + img.area2()
            if total != poly.area2():
                raise NotBijective(
                    "image regions of chart %d cover area %s of %s"
                    % (chart, total, poly.area2()))
            imgs = by_target[chart]
            for i in range(len(imgs)):
                for j in range(i + 1, len(imgs)):
                    if imgs[i].overlaps(imgs[j]):
                        raise NotBijective("image regions overlap in chart %d" % chart)

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

    def compose_with(self, inner: "PiecewiseAffineMap",
                     validate: bool = False) -> "PiecewiseAffineMap":
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
        return PiecewiseAffineMap(self.surface, out, validate=validate)

    def derivative_classes(self):
        mats = []
        for piece in self.pieces:
            if piece.map.mat not in mats:
                mats.append(piece.map.mat)
        return mats

    def __repr__(self):
        return "PiecewiseAffineMap(%d pieces)" % len(self.pieces)


class AffineAutomorphism(PiecewiseAffineMap):
    """Bijective piecewise-affine self-map with derivative diag(lambda,
    1/lambda) up to per-piece sign."""

    def __init__(self, surface: FlatSurface, pieces: Sequence[Piece],
                 lambda_: FieldElement, validate: bool = True):
        if (lambda_ - 1).sign() <= 0:
            raise LambdaNotExpanding("stretch factor %s is not > 1" % lambda_)
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
        super().__init__(surface, pieces, validate=validate)
        if validate:
            self._validate_image_tiling()
        self.singularity_permutation = self._compute_singularity_permutation()

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
        inv_lambda = self.lambda_  # inverse stretches by the same factor,
        # with expanding and contracting directions exchanged; as a map its
        # derivative is diag(1/lambda, lambda), which is not in normal form.
        return InverseAutomorphism(self.surface, out, inv_lambda)

    def power(self, n: int) -> "AffineAutomorphism":
        if n < 1:
            raise InputError("power expects n >= 1")
        if n == 1:
            return self
        return PowerAutomorphism(self, n)

    def compose(self, other: "PiecewiseAffineMap") -> PiecewiseAffineMap:
        return self.compose_with(other)

    def __repr__(self):
        return "AffineAutomorphism(%d pieces, lambda = %s)" % (
            len(self.pieces), self.lambda_)


class InverseAutomorphism(PiecewiseAffineMap):
    """Inverse of an affine automorphism: contracts horizontally.  Kept as a
    separate class because its derivative is diag(1/lambda, lambda), so it is
    not an AffineAutomorphism in the normalized sense."""

    def __init__(self, surface, pieces, lambda_):
        super().__init__(surface, pieces, validate=False)
        self.lambda_ = lambda_


class PowerAutomorphism(AffineAutomorphism):
    """Lazy n-th power: applies the base map n times; the refined piece
    decomposition is materialized only when .pieces is accessed."""

    def __init__(self, base: AffineAutomorphism, n: int):
        self.base = base
        self.n = n
        self.surface = base.surface
        self._cache = base._cache
        self.lambda_ = base.lambda_ ** n
        self._materialized: Optional[PiecewiseAffineMap] = None
        self._section = None
        self._images: dict = {}
        self._lefschetz = None
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

    @property
    def _by_chart(self):
        m = self._materialize()
        return m._by_chart

    def piece_at(self, sp: SurfacePoint):
        return self._materialize().piece_at(sp)

    def inverse(self):
        raise InputError("invert the base map and take its power instead")

    def power(self, n: int):
        if n < 1:
            raise InputError("power expects n >= 1")
        return PowerAutomorphism(self.base, self.n * n)

    def __repr__(self):
        return "PowerAutomorphism(%r, n=%d)" % (self.base, self.n)


def validate_automorphism(surface: FlatSurface, m: PiecewiseAffineMap,
                          lambda_: Optional[FieldElement] = None) -> AffineAutomorphism:
    """Promote a piecewise-affine map to a validated automorphism.

    The stretch factor may be supplied or inferred from the derivatives."""
    if lambda_ is None:
        mats = m.derivative_classes()
        if not mats:
            raise InputError("map has no pieces")
        cand = mats[0].a
        if cand.sign() < 0:
            cand = -cand
        lambda_ = cand
    if (lambda_ - 1).sign() <= 0:
        raise LambdaNotExpanding("stretch factor %s is not > 1" % lambda_)
    return AffineAutomorphism(m.surface, m.pieces, lambda_)


# ---------------------------------------------------------------------------
# torus generator


def torus_from_matrix(m_rows: Sequence[Sequence[int]]
                      ) -> Tuple[FlatSurface, AffineAutomorphism]:
    """Once-marked torus in eigenbasis coordinates for a hyperbolic integer
    matrix with det 1, together with the induced affine automorphism.

    Negative-trace matrices are supported: the derivative is then
    -diag(lambda, 1/lambda) (point-reflection composed with the stretch),
    with lambda the Perron root of the characteristic polynomial of -M.
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

    # pieces: clip the unit square against M^{-1}(unit square + (i,j)) in
    # standard coordinates, then push through E
    d_mat = Mat2.diagonal(lam, mu)
    if sign < 0:
        d_mat = -d_mat
    std_square = ConvexPolygon([
        Vec2(field.rational(x), field.rational(y))
        for (x, y) in [(0, 0), (1, 0), (1, 1), (0, 1)]])
    m_fld = Mat2(field.rational(a), field.rational(b),
                 field.rational(c), field.rational(d))
    m_aff = AffineMap(m_fld, Vec2(field.zero(), field.zero()))
    image = std_square.transform(m_aff)
    xlo, xhi, ylo, yhi = image.float_bbox()
    square_box = std_square.float_bbox()
    pieces = []
    for i in range(int(xlo) - 1, int(xhi) + 2):
        for j in range(int(ylo) - 1, int(yhi) + 2):
            # skip a cell whose shifted image box misses the square's box:
            # rounding is monotone and each test compares a rounded
            # difference with a float bound, so a skipped cell's clip is
            # empty
            if boxes_disjoint((xlo - i, xhi - i, ylo - j, yhi - j), square_box):
                continue
            shift = Vec2(field.rational(-i), field.rational(-j))
            moved = image.translate(shift)
            overlap = moved.intersect(std_square)
            if overlap is None:
                continue
            region_std = overlap.transform(
                AffineMap(m_fld, shift).inverse())
            region = region_std.transform(AffineMap(e_mat, origin))
            # map in eigen coords: z -> D z + E(-i, -j)
            tau = e_mat.apply(shift)
            pieces.append(Piece(0, region, AffineMap(d_mat, tau), 0))
    fmap = AffineAutomorphism(surface, pieces, lam)
    return surface, fmap
