"""Half-translation surfaces presented by glued convex polygons.

A surface is a finite list of strictly convex polygons with an involutive
edge pairing.  Each pairing is a `translation` (partner edge vector is the
negative) or a `halfturn` (partner edge vector is equal, glued by a point
reflection).  The vertex classes are the cycles of fan_step (below) on
the corners; classes carry a cone angle that is an exact integer multiple
of pi, counted along one line through the vertex: the corner wedges
[out, back) tile the cone, so a cone of angle k*pi owns exactly k rays of
any such line.

The surface owns the vertex primitives that every other module reads a
singularity through: corner_rays (a corner's out and back edge rays),
owns_ray (the one corner whose wedge holds a ray at a vertex), fan_step
(the hop across a corner's back edge to the next corner of the fan),
owning_corner (the fan walk from any corner to the owner of a ray),
fan_position (each corner's class and place in its counterclockwise fan,
recorded by the one walk per class that counts the angle) and
vertex_index (which vertex of a chart sits at a position).

Conventions baked in here and relied on everywhere else:

* crossing edge e of polygon P into its partner e' of Q sends z to z + t
  (translation) or -z + t (halfturn), with t chosen so endpoints match;
* vertex classes of angle exactly 2*pi must be marked; unmarked flat
  vertices are rejected rather than silently smoothed away;
* an edge may not be glued to itself (fold points would hide angle-pi cone
  points inside edges, which the validator cannot see).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    GaussBonnetViolation,
    InputError,
    InternalCheckError,
    LengthMismatch,
    UnmarkedConePoint,
    UnmatchedEdge,
)
from .exactnum import FieldElement, RealNumberField
from .geom import AffineMap, ConvexPolygon, Mat2, Vec2, cross_sign

EdgeRef = Tuple[int, int]  # (polygon index, edge index)


class Transition:
    """Chart change when crossing a glued edge: z -> z + t for a
    translation, z -> -z + t for a halfturn (flip).  flip and the shift t
    of map are the whole map, so points move by apply and directions by
    negation on a flip, with no matrix product."""

    __slots__ = ("source", "target", "map", "flip")

    def __init__(self, source: EdgeRef, target: EdgeRef, map_: AffineMap, flip: bool):
        self.source = source
        self.target = target
        self.map = map_
        self.flip = flip  # True for halfturn

    def apply(self, pos: Vec2) -> Vec2:
        """The point pos of the source chart in the target chart."""
        shift = self.map.shift
        return shift - pos if self.flip else pos + shift

    def __repr__(self):
        return "Transition(%s -> %s%s)" % (
            self.source, self.target, ", flip" if self.flip else "")


class ConePoint:
    __slots__ = ("id", "angle_pi", "is_marked", "corners")

    def __init__(self, id_: int, angle_pi: int, is_marked: bool, corners: frozenset):
        self.id = id_
        self.angle_pi = angle_pi  # cone angle in units of pi
        self.is_marked = is_marked
        self.corners = corners  # frozenset of (polygon, vertex) pairs

    @property
    def prongs(self) -> int:
        """Number of unstable (horizontal) prongs: angle / pi."""
        return self.angle_pi

    def __repr__(self):
        mark = ", marked" if self.is_marked else ""
        return "ConePoint(%d, angle %d*pi%s)" % (self.id, self.angle_pi, mark)


class SurfacePoint:
    """A point given in one polygon chart.  Use FlatSurface.canonical_point
    to compare points that may sit on shared edges."""

    __slots__ = ("chart", "pos")

    def __init__(self, chart: int, pos: Vec2):
        self.chart = chart
        self.pos = pos

    def __eq__(self, o):
        return isinstance(o, SurfacePoint) and self.chart == o.chart and self.pos == o.pos

    def __hash__(self):
        return hash((self.chart, self.pos))

    def __repr__(self):
        return "SurfacePoint(%d, %r)" % (self.chart, self.pos)


class FlatSurface:
    """Validated half-translation surface."""

    def __init__(self, field: RealNumberField, polygons: Sequence[ConvexPolygon],
                 gluings: Dict[EdgeRef, Tuple[EdgeRef, str]],
                 marked_corners: Sequence[EdgeRef] = (),
                 names: Optional[Sequence[str]] = None):
        self.field = field
        self.polygons = list(polygons)
        # each chart's edge vectors, edge e running from vertex e to e + 1
        self.edge_vectors: List[Tuple[Vec2, ...]] = [
            tuple(poly.edge_vector(e) for e in range(len(poly)))
            for poly in self.polygons]
        self._rays: Dict[EdgeRef, Tuple[Vec2, Vec2]] = {
            (p, v): (vecs[v], -vecs[v - 1])
            for p, vecs in enumerate(self.edge_vectors)
            for v in range(len(vecs))}
        self.names = list(names) if names is not None else [
            "P%d" % i for i in range(len(self.polygons))]
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate polygon names")
        self._validate_gluings(gluings)
        self.gluings = dict(gluings)
        self._build_transitions()
        self._build_vertex_classes()
        self._apply_marks(marked_corners)
        self._check_gauss_bonnet()
        # a weak reference to the surface's EdgeCache, set by
        # veering.edge_cache; the maps and sections on the surface hold the
        # cache itself
        self._edge_cache = None

    # -- validation steps ----------------------------------------------------

    def _validate_gluings(self, gluings):
        all_edges = set()
        for p, poly in enumerate(self.polygons):
            for e in range(len(poly)):
                all_edges.add((p, e))
        seen = {}
        for edge, (partner, kind) in gluings.items():
            if edge not in all_edges:
                raise UnmatchedEdge("gluing names nonexistent edge %s" % (edge,))
            if partner not in all_edges:
                raise UnmatchedEdge("gluing names nonexistent edge %s" % (partner,))
            if kind not in ("translation", "halfturn"):
                raise InputError("unknown gluing kind %r" % kind)
            if edge == partner:
                raise UnmatchedEdge(
                    "edge %s glued to itself; subdivide the polygon instead "
                    "(self-gluings hide fold points)" % (edge,))
            seen[edge] = (partner, kind)
        for edge in all_edges:
            if edge not in seen:
                raise UnmatchedEdge("edge %s is not glued" % (edge,))
        for edge, (partner, kind) in seen.items():
            back = seen.get(partner)
            if back != (edge, kind):
                raise UnmatchedEdge(
                    "gluing is not an involution at %s <-> %s" % (edge, partner))
        # edge vector compatibility
        for edge, (partner, kind) in seen.items():
            v = self.edge_vectors[edge[0]][edge[1]]
            w = self.edge_vectors[partner[0]][partner[1]]
            if kind == "translation":
                if not (v + w).is_zero():
                    raise LengthMismatch(
                        "translation-glued edges %s, %s need opposite vectors; "
                        "got %r and %r" % (edge, partner, v, w))
            else:
                if not (v - w).is_zero():
                    raise LengthMismatch(
                        "halfturn-glued edges %s, %s need equal vectors; "
                        "got %r and %r" % (edge, partner, v, w))

    def _build_transitions(self):
        self.transitions: Dict[EdgeRef, Transition] = {}
        one = self.field.one()
        for edge, (partner, kind) in self.gluings.items():
            p, e = edge
            q, e2 = partner
            a = self.polygons[p].vertices[e]
            qverts = self.polygons[q].vertices
            b2 = qverts[(e2 + 1) % len(qverts)]
            if kind == "translation":
                m = AffineMap(Mat2.identity(self.field), b2 - a)
                flip = False
            else:
                m = AffineMap(Mat2.diagonal(-one, -one), a + b2)
                flip = True
            self.transitions[edge] = Transition(edge, partner, m, flip)

    def _build_vertex_classes(self):
        """The vertex classes are the cycles of fan_step, a permutation of
        the corners.  One walk per class, from its least corner in sorted
        order, records each corner's class and fan position and counts
        the rays of the start corner's out-edge line that the corners own
        (transitions are +-I): the cone angle in units of pi."""
        self.corner_class: Dict[EdgeRef, int] = {}
        self.fan_position: Dict[EdgeRef, Tuple[int, int]] = {}
        self.cone_points: List[ConePoint] = []
        for start in sorted(self._rays):
            if start in self.corner_class:
                continue
            cls = len(self.cone_points)
            corner, d = start, self.corner_rays(start)[0]
            fan = []
            angle = 0
            while not fan or corner != start:
                self.corner_class[corner] = cls
                self.fan_position[corner] = (cls, len(fan))
                fan.append(corner)
                angle += self.owns_ray(corner, d) + self.owns_ray(corner, -d)
                tr = self.fan_step(corner)
                corner, d = tr.target, -d if tr.flip else d
            self.cone_points.append(ConePoint(cls, angle, False,
                                              frozenset(fan)))

    def _apply_marks(self, marked_corners):
        marked_classes = set()
        for corner in marked_corners:
            if corner not in self.corner_class:
                raise InputError("mark names nonexistent corner %s" % (corner,))
            marked_classes.add(self.corner_class[corner])
        for cls in marked_classes:
            cp = self.cone_points[cls]
            if cp.angle_pi != 2:
                raise InputError(
                    "vertex class %d has angle %d*pi and cannot be marked "
                    "(marks are for angle-2pi classes only)" % (cls, cp.angle_pi))
            cp.is_marked = True
        for cp in self.cone_points:
            if cp.angle_pi == 2 and not cp.is_marked:
                raise UnmarkedConePoint(
                    "vertex class %d has cone angle exactly 2*pi but is not "
                    "marked; mark it or remove the flat vertex" % cp.id)

    def _check_gauss_bonnet(self):
        v = len(self.cone_points)
        e = sum(len(p) for p in self.polygons) // 2
        f = len(self.polygons)
        self.euler_char = v - e + f
        excess = sum(cp.angle_pi - 2 for cp in self.cone_points)
        if excess != -2 * self.euler_char:
            raise GaussBonnetViolation(
                "total angle excess %d*pi does not match -2*chi = %d"
                % (excess, -2 * self.euler_char))
        if self.euler_char % 2 != 0:
            raise GaussBonnetViolation(
                "odd Euler characteristic %d: surface not closed orientable"
                % self.euler_char)
        self.genus = (2 - self.euler_char) // 2

    # -- derived data ----------------------------------------------------------

    @property
    def chi_punctured(self) -> int:
        """Euler characteristic of the surface punctured at every vertex class."""
        return self.euler_char - len(self.cone_points)

    def area2(self) -> FieldElement:
        total = self.field.zero()
        for poly in self.polygons:
            total = total + poly.area2()
        return total

    def vertex_point(self, cls: int) -> SurfacePoint:
        p, v = min(self.cone_points[cls].corners)
        return SurfacePoint(p, self.polygons[p].vertices[v])

    def vertex_index(self, chart: int, pos: Vec2) -> Optional[int]:
        """Index of the vertex of polygon chart at pos, or None."""
        for v, vert in enumerate(self.polygons[chart].vertices):
            if vert == pos:
                return v
        return None

    def vertex_class_at(self, sp: SurfacePoint) -> Optional[int]:
        v = self.vertex_index(sp.chart, sp.pos)
        return None if v is None else self.corner_class[(sp.chart, v)]

    # -- the corner fan -------------------------------------------------------

    def corner_rays(self, corner: EdgeRef) -> Tuple[Vec2, Vec2]:
        """Outgoing edge direction and direction toward the previous vertex,
        both based at the corner, built once with the surface."""
        return self._rays[corner]

    def owns_ray(self, corner: EdgeRef, d: Vec2) -> bool:
        """Ray d inside the corner cone [out, back): strictly interior or
        along the outgoing edge.  Corner angles are below pi, so two cross
        tests do.  Every ray at a vertex has exactly one owning corner."""
        out, back = self.corner_rays(corner)
        co = cross_sign(out, d)
        if co == 0:
            return out.dot(d).sign() > 0
        return co > 0 and cross_sign(d, back) > 0

    def fan_step(self, corner: EdgeRef) -> Transition:
        """The transition across the corner's back edge.  Its target is the
        next corner counterclockwise in the fan of the vertex class, and
        its map carries directions there."""
        p, v = corner
        n = len(self.polygons[p])
        return self.transitions[(p, (v - 1) % n)]

    def owning_corner(self, chart: int, vidx: int, d: Vec2) -> Tuple[EdgeRef, Vec2]:
        """The corner owning ray d at vertex vidx of chart, found by
        stepping around the vertex fan.  Returns ((chart, vertex), d
        carried into that corner's chart)."""
        fan = len(self.cone_points[self.corner_class[(chart, vidx)]].corners)
        c = (chart, vidx)
        cur = d
        for _ in range(2 * fan + 2):
            if self.owns_ray(c, cur):
                return c, cur
            tr = self.fan_step(c)
            c = tr.target
            cur = -cur if tr.flip else cur
        raise InternalCheckError("ray %r has no owning corner at (%d, %d)"
                                 % (d, chart, vidx))

    # -- point bookkeeping -----------------------------------------------------

    def cross_edge(self, edge: EdgeRef, pos: Vec2) -> SurfacePoint:
        tr = self.transitions[edge]
        return SurfacePoint(tr.target[0], tr.apply(pos))

    def canonical_point(self, sp: SurfacePoint) -> Tuple[str, object, SurfacePoint]:
        """Classify and canonicalize: returns (kind, key, representative).

        kind is "interior", "edge", or "vertex"; key is hashable and equal
        exactly when the surface points coincide.  A point that is not a
        vertex is classified by one orient pass over the chart's edges
        (ConvexPolygon.locate): the polygon is strictly convex, so a point
        with one zero orient lies on that edge."""
        cls = self.vertex_class_at(sp)
        if cls is not None:
            return ("vertex", cls, self.vertex_point(cls))
        e = self.polygons[sp.chart].locate(sp.pos)
        if e is None:
            raise InputError("point %r lies outside its chart" % (sp,))
        if e < 0:
            return ("interior", (sp.chart, sp.pos.x.coeffs, sp.pos.y.coeffs), sp)
        # on an edge interior: normalize to the smaller edge reference
        partner, _ = self.gluings[(sp.chart, e)]
        if partner < (sp.chart, e):
            other = self.cross_edge((sp.chart, e), sp.pos)
            return ("edge",
                    (partner, other.pos.x.coeffs, other.pos.y.coeffs),
                    other)
        return ("edge", ((sp.chart, e), sp.pos.x.coeffs, sp.pos.y.coeffs), sp)

    def same_point(self, a: SurfacePoint, b: SurfacePoint) -> bool:
        """Do a and b name one surface point?  An equal (chart, pos) pair
        does at once; that shortcut does not re-check that the point lies
        in its chart, which canonical_point would."""
        if a.chart == b.chart and a.pos == b.pos:
            return True
        return self.canonical_point(a)[:2] == self.canonical_point(b)[:2]

    def __repr__(self):
        return "FlatSurface(%d polygons, genus %d, %d cone points)" % (
            len(self.polygons), self.genus, len(self.cone_points))

