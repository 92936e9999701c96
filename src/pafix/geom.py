"""Exact planar geometry over a real number field.

Every answer here is the exact one.  In a quadratic field (the field's
``_quad`` set), `orient`, `cross_sign`, `side_of` (the side of a point
against a directed line, which `ConvexPolygon.clip_halfplane` and
`saddle.cover` read), `segment_intersection` and the `FieldElement`
comparisons `<`, `<=`, `>` and `>=` are integer kernels: each
cross-multiplies the coordinates' numerators by their denominators,
forms the products with the field's reduction constants (`_cross2`, the
one value kernel, which gives x*w - y*z as integers over one
denominator) and takes the closed-form sign (`exactnum.quad_sign`), with
no float enclosure and no element built.  The constructions read the
same integer values and build only their answer, each coordinate one
quotient reduced once (`exactnum.quad_quotient`): a clip's crossing and
segment_intersection's point are (sb*a - sa*b)/(sb - sa) from the side
values sa, sb of a and b against the line (`_line_crossing`), its t and
u are sa/(sa - sb) (`_parameter2`), and `saddle.trace` compares its
exit parameters as integer fractions and divides once, for the edge it
leaves by.

Every other predicate, and in every other degree these five too, is
float filtered.  Floats enter only as enclosures: each coordinate's
cached `FieldElement.float_bounds()` holds it, and every float operation
on them rounds outward by one `math.nextafter` step, so an interval
always holds the exact value it stands for.  A filtered predicate takes
its answer from floats only when the interval excludes 0, and whenever it
holds 0 the exact field arithmetic decides (Shewchuk's filtered
predicates).  The filtered predicates are:

- `orient`, `cross_sign` and `side_of` outside degree 2: the sign of a
  cross product;
- `segment_intersection` outside degree 2: "none" when the denominator's
  interval excludes 0 and a parameter's interval lies outside [0, 1].
  Collinear ends are ordered along b - a by filtered signs of dot
  products, with no division (exact integer signs in degree 2);
- `ConvexPolygon.overlaps`, a separating-axis test whose every step is a
  filtered `orient`: a vertex strictly left of an edge line rules that
  line out as a separator, and the sign it reads is the exact one, so
  each verdict is final.  `ConvexPolygon.locate` and `contains` read the
  same orient signs;
- the `FieldElement` comparisons outside degree 2: disjoint float bounds
  decide.  Bounds that overlap, or only share an end, cost a subtraction
  and an exact sign, since `float_bounds` promises no more than
  lo <= x <= hi.

`cross_sign` and the comparisons carry the cone and wedge tests of the
saddle search, the exit-edge tests of `trace` outside degree 2, and the
bound tests of the spanning rectangles and the fixed-point solver.  A
few exact paths answer without arithmetic outside degree 2: a repeated
point makes `orient` 0, and identical segments overlap in themselves.
The float box prefilter (`float_box` and `boxes_disjoint`, which
`ConvexPolygon.intersect` and `overlaps` run first) serves every degree;
it may claim "maybe" but never lies about "no".

The visibility prune of `saddle._box_candidates` is float only, with no
exact fallback: it may say "maybe" but is never wrong about "misses".
The search crosses an edge when the edge's part inside the window of
sight may meet the holonomy box.  It skips an edge whose float box
misses the box's outer float box, since that part lies on the edge;
crosses one with both endpoints strictly inside the box's inner float
box, since the part is then inside too and never empty; and otherwise
skips the edge only when Liang-Barsky over intervals
(`saddle._window_misses_box`), clipping to the window's two half-planes
and the outer float box, leaves a certainly empty range.  An edge
crossed in vain costs nodes that hold no candidate, and every candidate
still passes the exact box, window and walk tests.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalCheckError, NonConvexPolygon
from .exactnum import FieldElement, RealNumberField, quad_quotient, quad_sign


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


_nextafter = math.nextafter
_INF = math.inf


def _isub(p, q):
    """Float interval p - q, rounded outward."""
    return (_nextafter(p[0] - q[1], -_INF), _nextafter(p[1] - q[0], _INF))


def _iadd(p, q):
    """Float interval p + q, rounded outward."""
    return (_nextafter(p[0] + q[0], -_INF), _nextafter(p[1] + q[1], _INF))


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


def _idot(u, v):
    """Float interval of the dot product of interval vectors u and v."""
    return _iadd(_imul(u[0], v[0]), _imul(u[1], v[1]))


def _filtered_sign(interval, exact) -> int:
    """The sign of a value, given its outward-rounded float interval: from
    the interval when it excludes 0, else from exact()."""
    lo, hi = interval
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return exact()


def _sub2(p: FieldElement, q: FieldElement) -> tuple:
    """q - p in a quadratic field as integers (n0, n1, den), den > 0, not
    brought to lowest terms."""
    (p0, p1), pd = p.num, p.den
    (q0, q1), qd = q.num, q.den
    if pd == qd:
        return q0 - p0, q1 - p1, pd
    return q0 * pd - p0 * qd, q1 * pd - p1 * qd, pd * qd


def _cross2(quad, x0, x1, xd, y0, y1, yd, z0, z1, zd, w0, w1, wd) -> tuple:
    """x*w - y*z in the quadratic field with constants quad, for x = (x0 +
    x1*g)/xd and likewise y, z, w, every den positive, as integers (n0, n1,
    den), den > 0, not brought to lowest terms.

    Over the denominator xd*wd*yd*zd (xd*wd alone when it equals yd*zd),
    x*w - y*z is X*W - Y*Z with X = x's numerator times yd*zd and Y = y's
    times xd*wd.  With g^2 = (r0 + r1*g)/t, t times that is the integer
    pair below, over that denominator times t."""
    dp, dq = xd * wd, yd * zd
    if dp != dq:
        x0, x1, y0, y1 = x0 * dq, x1 * dq, y0 * dp, y1 * dp
        dp *= dq
    r0, r1, t = quad[0], quad[1], quad[2]
    m = x1 * w1 - y1 * z1
    return (t * (x0 * w0 - y0 * z0) + r0 * m,
            t * (x0 * w1 + x1 * w0 - y0 * z1 - y1 * z0) + r1 * m, dp * t)


def _det2(quad, x0, x1, xd, y0, y1, yd, z0, z1, zd, w0, w1, wd) -> int:
    """Exact sign of x*w - y*z, for the arguments of _cross2."""
    n0, n1, _ = _cross2(quad, x0, x1, xd, y0, y1, yd, z0, z1, zd,
                        w0, w1, wd)
    return quad_sign(quad, n0, n1)


def _line2(quad, p: Vec2, dx: tuple, dy: tuple):
    """v -> (v - p) x d as a _cross2 triple, in a quadratic field: the
    side value of v against the line through p with direction d, whose
    coordinates are given as triples (n0, n1, den), den > 0."""
    px, py = p.x, p.y
    return lambda v: _cross2(quad, *_sub2(px, v.x), *_sub2(py, v.y), *dx, *dy)


def _triple(x: FieldElement) -> tuple:
    return (*x.num, x.den)


def _parameter2(field: RealNumberField, sa: tuple, sb: tuple) -> FieldElement:
    """sa/(sa - sb) for the _cross2 triples sa != sb: where a linear
    function with values sa at a and sb at b vanishes along a + t(b - a)."""
    s0, s1, sd = sa
    q0, q1, qd = sb
    return quad_quotient(field, s0, s1, sd,
                         s0 * qd - q0 * sd, s1 * qd - q1 * sd, sd * qd)


def _line_crossing(quad, a: Vec2, b: Vec2, sa: tuple, sb: tuple) -> Vec2:
    """The point a + t(b - a), t = sa/(sa - sb), where segment ab crosses
    a line, from the side values sa != sb (_cross2 triples) of a and b
    against it: (sb*a - sa*b)/(sb - sa), each coordinate one integer
    cross product and one quotient, reduced once."""
    field = a.x.field
    s0, s1, sd = sa
    q0, q1, qd = sb
    den = (q0 * sd - s0 * qd, q1 * sd - s1 * qd, sd * qd)
    return Vec2(
        quad_quotient(field, *_cross2(quad, *sb, *sa, *_triple(b.x),
                                      *_triple(a.x)), *den),
        quad_quotient(field, *_cross2(quad, *sb, *sa, *_triple(b.y),
                                      *_triple(a.y)), *den))


def orient(a: Vec2, b: Vec2, c: Vec2) -> int:
    """Sign of the signed area of triangle abc: +1 counterclockwise.
    Exact from the numerators in a quadratic field; otherwise decided over
    float intervals when they exclude 0, else exactly."""
    ax, ay = a.x, a.y
    quad = ax.field._quad
    if quad is not None:
        n0, n1, _ = _cross2(quad, *_sub2(ax, b.x), *_sub2(ay, b.y),
                            *_sub2(ax, c.x), *_sub2(ay, c.y))
        return quad_sign(quad, n0, n1)

    def exact():
        if a == b or b == c or c == a:
            return 0
        return (b - a).cross(c - a).sign()
    return _filtered_sign(_icross(_ivec(a, b), _ivec(a, c)), exact)


def cross_sign(u: Vec2, v: Vec2) -> int:
    """Sign of u x v.  Exact from the numerators in a quadratic field;
    otherwise decided over float intervals when they exclude 0, else
    exactly."""
    ux, uy, vx, vy = u.x, u.y, v.x, v.y
    quad = ux.field._quad
    if quad is not None:
        n0, n1, _ = _cross2(quad, *ux.num, ux.den, *uy.num, uy.den,
                            *vx.num, vx.den, *vy.num, vy.den)
        return quad_sign(quad, n0, n1)
    return _filtered_sign(_icross(_ibox(u), _ibox(v)),
                          lambda: u.cross(v).sign())


def segment_intersection(a: Vec2, b: Vec2, c: Vec2, d: Vec2):
    """Exact intersection of closed segments ab and cd.

    Returns one of
      ("none",)
      ("point", p, t, u)   p = a + t(b-a) = c + u(d-c), t and u FieldElements in [0,1]
      ("overlap", p, q)    collinear with a shared segment [p, q] of positive length
    A zero-length segment is an InputError.

    In a quadratic field the four exact sides of a and b against line cd
    and of c and d against line ab decide it: "none" when a pair is
    strictly on one side, collinear segments when a and b are both on
    line cd, and otherwise the point, whose coordinates and t and u are
    each one quotient of the side values (_line_crossing, _parameter2).

    In every other degree, when float intervals show the segments are not
    parallel and t or u lies outside [0, 1], the answer is ("none",)
    without field arithmetic.
    """
    if a == b or c == d:
        raise InputError("a segment needs two distinct ends")
    quad = a.x.field._quad
    if quad is not None:
        return _segment_intersection2(quad, a, b, c, d)
    r_box, s_box, ca_box = _ivec(a, b), _ivec(c, d), _ivec(a, c)
    dlo, dhi = _icross(r_box, s_box)
    if dlo > 0 or dhi < 0:
        # t = (ca x s) / denom and u = (ca x r) / denom; with denom > 0,
        # t < 0 when its numerator is, and t > 1 when it exceeds denom
        tlo, thi = _icross(ca_box, s_box)
        ulo, uhi = _icross(ca_box, r_box)
        if dhi < 0:
            dhi = -dlo
            tlo, thi = -thi, -tlo
            ulo, uhi = -uhi, -ulo
        if thi < 0 or tlo > dhi or uhi < 0 or ulo > dhi:
            return ("none",)
    if (c == a and d == b) or (c == b and d == a):
        return ("overlap", a, b)
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
    # parallel
    if ca.cross(r).sign() != 0:
        return ("none",)

    def along(p, q):
        return _filtered_sign(_idot(_ivec(p, q), r_box),
                              lambda: (q - p).dot(r).sign())
    return _collinear_meet(a, b, c, d, along)


def _segment_intersection2(quad, a: Vec2, b: Vec2, c: Vec2, d: Vec2):
    """segment_intersection in a quadratic field, from exact side values."""
    on_cd = _line2(quad, c, _sub2(c.x, d.x), _sub2(c.y, d.y))
    sa, sb = on_cd(a), on_cd(b)
    ga, gb = quad_sign(quad, sa[0], sa[1]), quad_sign(quad, sb[0], sb[1])
    if ga == gb != 0:
        return ("none",)
    rx, ry = _sub2(a.x, b.x), _sub2(a.y, b.y)
    if ga == gb:
        # a and b on line cd; q - p dotted with r is (q - p) x (-r.y, r.x)
        neg_ry = (-ry[0], -ry[1], ry[2])
        return _collinear_meet(a, b, c, d, lambda p, q: _det2(
            quad, *_sub2(p.x, q.x), *_sub2(p.y, q.y), *neg_ry, *rx))
    on_ab = _line2(quad, a, rx, ry)
    sc, sd = on_ab(c), on_ab(d)
    if quad_sign(quad, sc[0], sc[1]) == quad_sign(quad, sd[0], sd[1]) != 0:
        return ("none",)
    # the lines are not parallel, and meet in a point of both segments
    field = a.x.field
    return ("point", _line_crossing(quad, a, b, sa, sb),
            _parameter2(field, sa, sb), _parameter2(field, sc, sd))


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
    line, 0 on it and 1 strictly right.

    It is the integer kernel in a quadratic field, with d's numerators
    read once, and the float filter with an exact fallback in every other
    degree.  A zero d is an InputError."""
    _check_direction(d)
    px, py = p.x, p.y
    quad = px.field._quad
    if quad is not None:
        dx, dy = _triple(d.x), _triple(d.y)

        def side(v):
            n0, n1, _ = _cross2(quad, *_sub2(px, v.x), *_sub2(py, v.y),
                                *dx, *dy)
            return quad_sign(quad, n0, n1)
        return side
    d_box = _ibox(d)
    return lambda v: _filtered_sign(_icross(_ivec(p, v), d_box),
                                    lambda: (v - p).cross(d).sign())


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
    and the crossing points of the line, in order.  The signs are exact,
    so the line meets the interior; the clipped polygon is again strictly
    convex, with exactly two points on the line (a vertex on it, or a
    crossing strictly inside an edge), so clipping again needs no
    collinear drop and the vertex order never changes.

    In a quadratic field the sides are taken from the values of (v - p) x
    d as integer triples, and each crossing is built from the values at
    its edge's ends (_line_crossing), with no element on the way; in
    every other degree it is a + t(b - a) for t = (p - a) x d / (b - a)
    x d."""
    quad = p.x.field._quad
    if quad is None:
        sides = list(map(side_of(p, d), vs))
    else:
        _check_direction(d)
        values = list(map(_line2(quad, p, _triple(d.x), _triple(d.y)), vs))
        sides = [quad_sign(quad, s[0], s[1]) for s in values]
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
            a, b = vs[i], vs[j]
            if quad is None:
                r = b - a
                t = (p - a).cross(d) / r.cross(d)
                out.append(a + r.scale(t))
            else:
                out.append(_line_crossing(quad, a, b, values[i], values[j]))
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


def convex_hull_is_quad_strict(pts) -> bool:
    """True iff the four points form a strictly convex quadrilateral in the
    given cyclic order."""
    if len(pts) != 4:
        raise InternalCheckError("expected 4 points")
    for i in range(4):
        if orient(pts[i], pts[(i + 1) % 4], pts[(i + 2) % 4]) <= 0:
            return False
    return True
