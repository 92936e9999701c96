"""Exact planar geometry over a real number field.

Every answer here is the exact one, and one kernel serves every field
degree.  The predicates `orient`, `cross_sign` and `side_of` (the side
of a point against a directed line, which `ConvexPolygon.clip_halfplane`
and `saddle.cover` read) take the sign of one cross product, formed from
the coordinates' integer numerators and denominators by the field's
numerator primitives (see `exactnum.RealNumberField`): ``num_sub`` and
``num_cross`` give differences and x*w - y*z as integer numerators over
one denominator, and ``num_sign`` their exact sign.  No element is built
and no float is read on the way.

`segment_intersection` is decided by four such side values, those of a
and b against line cd and of c and d against line ab: "none" when a pair
is strictly on one side, collinear segments when a and b are both on
line cd, which are then ordered along b - a by the signs of dot products,
and otherwise the point.  The constructions build only their answer,
each coordinate one quotient of side values reduced once
(``num_quotient``): a clip's crossing and segment_intersection's point
are (sb*a - sa*b)/(sb - sa) from the side values sa, sb of a and b
against the line (`_line_crossing`), and its t and u are sa/(sa - sb)
(`_parameter`); `saddle.trace` compares its exit parameters the same way
and divides once, for the edge it leaves by.

`ConvexPolygon.overlaps` is a separating-axis test whose every step is
an exact `orient`, and `ConvexPolygon.locate` and `contains` read the
same orient signs.  The float box prefilter (`float_box` and
`boxes_disjoint`, which `ConvexPolygon.intersect` and `overlaps` run
first) reads the cached `FieldElement.float_bounds()`; it may claim
"maybe" but never lies about "no", and it is the only float arithmetic
here.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalCheckError, NonConvexPolygon
from .exactnum import FieldElement, RealNumberField


class Vec2:
    __slots__ = ("x", "y")

    def __init__(self, x: FieldElement, y: FieldElement):
        self.x = x
        self.y = y

    @property
    def field(self) -> RealNumberField:
        return self.x.field

    def __add__(self, o: "Vec2") -> "Vec2":
        return Vec2(self.x + o.x, self.y + o.y)

    def __sub__(self, o: "Vec2") -> "Vec2":
        return Vec2(self.x - o.x, self.y - o.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def scale(self, s) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    def dot(self, o: "Vec2") -> FieldElement:
        return self.x * o.x + self.y * o.y

    def cross(self, o: "Vec2") -> FieldElement:
        return self.x * o.y - self.y * o.x

    def is_zero(self) -> bool:
        return self.x.is_zero() and self.y.is_zero()

    def __eq__(self, o):
        return isinstance(o, Vec2) and self.x == o.x and self.y == o.y

    def __ne__(self, o):
        return not self.__eq__(o)

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return "(%s, %s)" % (self.x, self.y)

    def key(self):
        """Deterministic sort key (coefficient tuples, exact)."""
        return (self.x.coeffs, self.y.coeffs)


class Mat2:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def identity(cls, field: RealNumberField) -> "Mat2":
        return cls(field.one(), field.zero(), field.zero(), field.one())

    @classmethod
    def diagonal(cls, lam: FieldElement, mu: FieldElement) -> "Mat2":
        z = lam.field.zero()
        return cls(lam, z, z, mu)

    def apply(self, v: Vec2) -> Vec2:
        return Vec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def __mul__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def det(self) -> FieldElement:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Mat2":
        dt = self.det()
        return Mat2(self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def __eq__(self, o):
        return (isinstance(o, Mat2) and self.a == o.a and self.b == o.b
                and self.c == o.c and self.d == o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return "[[%s, %s], [%s, %s]]" % (self.a, self.b, self.c, self.d)


class AffineMap:
    """z -> M z + t with exact entries."""

    __slots__ = ("mat", "shift")

    def __init__(self, mat: Mat2, shift: Vec2):
        self.mat = mat
        self.shift = shift

    @classmethod
    def identity(cls, field: RealNumberField) -> "AffineMap":
        return cls(Mat2.identity(field), Vec2(field.zero(), field.zero()))

    def apply(self, v: Vec2) -> Vec2:
        return self.mat.apply(v) + self.shift

    def compose(self, inner: "AffineMap") -> "AffineMap":
        # self after inner
        return AffineMap(self.mat * inner.mat, self.mat.apply(inner.shift) + self.shift)

    def inverse(self) -> "AffineMap":
        inv = self.mat.inverse()
        return AffineMap(inv, -inv.apply(self.shift))

    def __eq__(self, o):
        return isinstance(o, AffineMap) and self.mat == o.mat and self.shift == o.shift

    def __hash__(self):
        return hash((self.mat, self.shift))

    def __repr__(self):
        return "AffineMap(%r, %r)" % (self.mat, self.shift)


def _flat(x: FieldElement) -> tuple:
    """x as a flat tuple (n0, .., n_(d-1), den) of the numerator
    primitives."""
    return (*x.num, x.den)


def _diff(s: tuple, q: tuple) -> tuple:
    """s - q for flat tuples, as one, not brought to lowest terms."""
    sd, qd = s[-1], q[-1]
    return (*[a * qd - b * sd for a, b in zip(s[:-1], q[:-1])], sd * qd)


def _line(p: Vec2, dx: tuple, dy: tuple):
    """v -> (v - p) x d as a flat tuple: the side value of v against the
    line through p with direction d, whose coordinates are flat tuples."""
    px, py = p.x, p.y
    field = px.field
    cross, sub = field.num_cross, field.num_sub
    return lambda v: cross(sub(v.x, px), sub(v.y, py), dx, dy)


def _parameter(field: RealNumberField, sa: tuple, sb: tuple) -> FieldElement:
    """sa/(sa - sb) for the flat side values sa != sb: where a linear
    function with values sa at a and sb at b vanishes along a + t(b - a)."""
    return field.num_quotient(sa, _diff(sa, sb))


def _line_crossing(a: Vec2, b: Vec2, sa: tuple, sb: tuple) -> Vec2:
    """The point a + t(b - a), t = sa/(sa - sb), where segment ab crosses
    a line, from the flat side values sa != sb of a and b against it:
    (sb*a - sa*b)/(sb - sa), each coordinate one integer cross product
    and one quotient, reduced once."""
    field = a.x.field
    cross, quotient = field.num_cross, field.num_quotient
    den = _diff(sb, sa)
    return Vec2(quotient(cross(sb, sa, _flat(b.x), _flat(a.x)), den),
                quotient(cross(sb, sa, _flat(b.y), _flat(a.y)), den))


def orient(a: Vec2, b: Vec2, c: Vec2) -> int:
    """Sign of the signed area of triangle abc: +1 counterclockwise."""
    ax, ay = a.x, a.y
    field = ax.field
    sub = field.num_sub
    return field.num_sign(field.num_cross(sub(b.x, ax), sub(b.y, ay),
                                          sub(c.x, ax), sub(c.y, ay)))


def cross_sign(u: Vec2, v: Vec2) -> int:
    """Sign of u x v."""
    ux, uy, vx, vy = u.x, u.y, v.x, v.y
    field = ux.field
    # the flat tuples built in place: this is the hottest predicate
    return field.num_sign(field.num_cross(
        (*ux.num, ux.den), (*uy.num, uy.den), (*vx.num, vx.den),
        (*vy.num, vy.den)))


def segment_intersection(a: Vec2, b: Vec2, c: Vec2, d: Vec2):
    """Exact intersection of closed segments ab and cd.

    Returns one of
      ("none",)
      ("point", p, t, u)   p = a + t(b-a) = c + u(d-c), t and u FieldElements in [0,1]
      ("overlap", p, q)    collinear with a shared segment [p, q] of positive length
    A zero-length segment is an InputError.

    The four sides of a and b against line cd and of c and d against line
    ab decide it: "none" when a pair is strictly on one side, collinear
    segments when a and b are both on line cd, and otherwise the point,
    whose coordinates and t and u are each one quotient of the side
    values (_line_crossing, _parameter).
    """
    if a == b or c == d:
        raise InputError("a segment needs two distinct ends")
    field = a.x.field
    sign, sub = field.num_sign, field.num_sub
    on_cd = _line(c, sub(d.x, c.x), sub(d.y, c.y))
    sa, sb = on_cd(a), on_cd(b)
    ga, gb = sign(sa), sign(sb)
    if ga == gb != 0:
        return ("none",)
    rx, ry = sub(b.x, a.x), sub(b.y, a.y)
    if ga == gb:
        # a and b on line cd; (q - p).r is (q - p).x r.x - (p - q).y r.y
        cross = field.num_cross
        return _collinear_meet(a, b, c, d, lambda p, q: sign(cross(
            sub(q.x, p.x), sub(p.y, q.y), ry, rx)))
    on_ab = _line(a, rx, ry)
    sc, sd = on_ab(c), on_ab(d)
    if sign(sc) == sign(sd) != 0:
        return ("none",)
    # the lines are not parallel, and meet in a point of both segments
    return ("point", _line_crossing(a, b, sa, sb),
            _parameter(field, sa, sb), _parameter(field, sc, sd))


def _collinear_meet(a: Vec2, b: Vec2, c: Vec2, d: Vec2, along):
    """segment_intersection's answer for collinear segments ab and cd,
    where along(p, q) is the exact sign of (q - p).r, r = b - a, which
    orders p before q along r when positive.

    Each end of cd is placed against a and b by the sign of a dot product
    with r, so no division is needed: an end nearer a than b along r has a
    smaller (end - a).r.  The shared ends are the given points themselves,
    which are the exact a + t r of the parametrised answer."""
    lo, hi = (c, d) if along(c, d) > 0 else (d, c)
    s_hi = along(a, hi)
    s_lo = along(b, lo)
    if s_hi < 0 or s_lo > 0:
        return ("none",)
    zero, one = a.field.zero(), a.field.one()
    # endpoint touch of collinear segments, at a or at b
    if s_hi == 0:
        return ("point", a, zero, zero if hi is c else one)
    if s_lo == 0:
        return ("point", b, one, zero if lo is c else one)
    p = a if along(a, lo) <= 0 else lo
    q = b if along(b, hi) >= 0 else hi
    return ("overlap", p, q)


def float_box(points: Iterable[Vec2]):
    """Conservative float bounding box (xlo, xhi, ylo, yhi)."""
    xlo = ylo = float("inf")
    xhi = yhi = float("-inf")
    for p in points:
        bx = p.x.float_bounds()
        by = p.y.float_bounds()
        xlo, xhi = min(xlo, bx[0]), max(xhi, bx[1])
        ylo, yhi = min(ylo, by[0]), max(yhi, by[1])
    return (xlo, xhi, ylo, yhi)


def boxes_disjoint(b1, b2) -> bool:
    return b1[1] < b2[0] or b2[1] < b1[0] or b1[3] < b2[2] or b2[3] < b1[2]


class ConvexPolygon:
    """Strictly convex polygon, vertices in counterclockwise order.

    Validation rejects repeated vertices, collinear triples, and clockwise
    order."""

    __slots__ = ("vertices", "_box")

    def __init__(self, vertices: Sequence[Vec2]):
        verts = list(vertices)
        if len(verts) < 3:
            raise NonConvexPolygon("polygon needs at least 3 vertices")
        n = len(verts)
        for i in range(n):
            a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
            if orient(a, b, c) <= 0:
                raise NonConvexPolygon(
                    "vertices not in strictly convex counterclockwise position "
                    "near %r" % (b,))
        self.vertices = tuple(verts)
        self._box = None

    def __len__(self):
        return len(self.vertices)

    def edges(self):
        vs = self.vertices
        n = len(vs)
        return [(vs[i], vs[(i + 1) % n]) for i in range(n)]

    def edge_vector(self, i: int) -> Vec2:
        vs = self.vertices
        return vs[(i + 1) % len(vs)] - vs[i]

    def area2(self) -> FieldElement:
        """Twice the area, exact."""
        vs = self.vertices
        total = vs[0].field.zero()
        for i in range(1, len(vs) - 1):
            total = total + (vs[i] - vs[0]).cross(vs[i + 1] - vs[0])
        return total

    def contains(self, p: Vec2) -> int:
        """2 = interior, 1 = boundary, 0 = outside."""
        e = self.locate(p)
        return 0 if e is None else 1 if e >= 0 else 2

    def locate(self, p: Vec2) -> Optional[int]:
        """Where p lies, from one orient pass over the edges: None outside,
        -1 in the interior, else the index of an edge holding p (at a
        vertex, the first of its two edges).

        The polygon is strictly convex, so a point on or left of every
        edge line lies in the closed polygon, which meets the line of an
        edge in that edge alone: a point found on an edge line is on the
        edge, and needs no check of the edge's span."""
        vs = self.vertices
        n = len(vs)
        found = -1
        for i in range(n):
            s = orient(vs[i], vs[(i + 1) % n], p)
            if s < 0:
                return None
            if s == 0 and found < 0:
                found = i
        return found

    def float_bbox(self):
        if self._box is None:
            self._box = float_box(self.vertices)
        return self._box

    def transform(self, m: "AffineMap") -> "ConvexPolygon":
        verts = [m.apply(v) for v in self.vertices]
        if m.mat.det().sign() < 0:
            verts.reverse()
        return ConvexPolygon(verts)

    def clip_halfplane(self, p: Vec2, d: Vec2) -> Optional["ConvexPolygon"]:
        """Intersection with {z : cross(d, z - p) >= 0}, the closed halfplane
        to the left of the directed line through p with direction d.
        Returns None when the intersection has empty interior; a zero d
        is an InputError."""
        return self._rebuilt(_clip(self.vertices, p, d))

    def intersect(self, other: "ConvexPolygon") -> Optional["ConvexPolygon"]:
        """Intersection with positive area, or None: the vertex list is
        clipped by each edge line of other in turn, and one polygon is
        built at the end."""
        if boxes_disjoint(self.float_bbox(), other.float_bbox()):
            return None
        vs = self.vertices
        for a, b in other.edges():
            vs = _clip(vs, a, b - a)
            if vs is None:
                return None
        return self._rebuilt(vs)

    def _rebuilt(self, vs) -> Optional["ConvexPolygon"]:
        """The polygon on a vertex list that _clip returned: None for None,
        self for its own vertices, else a new polygon, which _clip's proof
        makes strictly convex, so a failed validation is an internal
        fault."""
        if vs is None:
            return None
        if vs is self.vertices:
            return self
        try:
            return ConvexPolygon(vs)
        except NonConvexPolygon as exc:
            raise InternalCheckError(
                "a clipped polygon is not strictly convex: %s" % exc) from exc

    def overlaps(self, other: "ConvexPolygon") -> bool:
        """Do the interiors meet?  The same answer as intersect(other) is
        not None, without building the polygon.

        Separating axes: two convex polygons have disjoint interiors
        exactly when some edge line of one has the other on or to its
        right (an edge of their Minkowski difference leaves 0 outside)."""
        if boxes_disjoint(self.float_bbox(), other.float_bbox()):
            return False
        return not (_edge_line_separates(self.vertices, other.vertices)
                    or _edge_line_separates(other.vertices, self.vertices))

    def __eq__(self, o):
        return isinstance(o, ConvexPolygon) and self.vertices == o.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return "ConvexPolygon(%s)" % (list(self.vertices),)


def side_of(p: Vec2, d: Vec2):
    """The exact side function of the directed line through p with
    direction d: v -> the sign of (v - p) x d, so -1 strictly left of the
    line, 0 on it and 1 strictly right, with d's numerators read once.
    A zero d is an InputError."""
    _check_direction(d)
    value, sign = _line(p, _flat(d.x), _flat(d.y)), p.x.field.num_sign
    return lambda v: sign(value(v))


def _check_direction(d: Vec2) -> None:
    if d.is_zero():
        raise InputError("a directed line needs a nonzero direction")


def _clip(vs, p: Vec2, d: Vec2):
    """The vertices of a strictly convex counterclockwise polygon clipped
    to the closed halfplane left of the directed line through p with
    direction d: vs itself when every vertex is in it, None when no vertex
    is strictly inside.

    A vertex v's side is the sign of (v - p) x d, as side_of(p, d)(v)
    reads it, and v is kept when it is <= 0.  Otherwise the kept vertices
    and the crossing points of the line, in order, each built from the
    side values at its edge's ends (_line_crossing).  The signs are exact,
    so the line meets the interior; the clipped polygon is again strictly
    convex, with exactly two points on the line (a vertex on it, or a
    crossing strictly inside an edge), so clipping again needs no
    collinear drop and the vertex order never changes."""
    _check_direction(d)
    values = list(map(_line(p, _flat(d.x), _flat(d.y)), vs))
    sides = list(map(p.x.field.num_sign, values))
    if all(s <= 0 for s in sides):
        return vs
    if not any(s < 0 for s in sides):
        return None
    n = len(vs)
    out = []
    for i in range(n):
        j = (i + 1) % n
        if sides[i] <= 0:
            out.append(vs[i])
        if (sides[i] < 0 < sides[j]) or (sides[j] < 0 < sides[i]):
            out.append(_line_crossing(vs[i], vs[j], values[i], values[j]))
        # vertices exactly on the line are kept once above
    return out


def _edge_line_separates(vs, others) -> bool:
    """Is some edge line of the CCW polygon vs one with every point of
    others on or to its right?"""
    n = len(vs)
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        if all(orient(a, b, p) <= 0 for p in others):
            return True
    return False
