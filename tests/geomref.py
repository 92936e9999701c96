"""Reference plane predicates decided by exact field signs alone.

These are pafix.geom's orient, segment_intersection and
ConvexPolygon.contains as they were before the float interval filter:
every sign is an exact FieldElement.sign, and contains re-checks a point
on an edge line against the edge spans.  The tests compare the filtered
predicates against them.
"""


def orient(a, b, c):
    return (b - a).cross(c - a).sign()


def on_segment(p, a, b):
    if orient(a, b, p) != 0:
        return False
    d = b - a
    t = (p - a).dot(d)
    return t.sign() >= 0 and (t - d.dot(d)).sign() <= 0


def segment_intersection(a, b, c, d):
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
    if ca.cross(r).sign() != 0:
        return ("none",)
    rr = r.dot(r)
    t0 = ca.dot(r) / rr
    t1 = t0 + s.dot(r) / rr
    lo, hi = (t0, t1) if (t1 - t0).sign() > 0 else (t1, t0)
    zero, one = a.field.zero(), a.field.one()
    lo2 = lo if (lo - zero).sign() > 0 else zero
    hi2 = hi if (hi - one).sign() < 0 else one
    cmp = (hi2 - lo2).sign()
    if cmp < 0:
        return ("none",)
    if cmp == 0:
        p = a + r.scale(lo2)
        return ("point", p, lo2, (p - c).dot(s) / s.dot(s))
    return ("overlap", a + r.scale(lo2), a + r.scale(hi2))


def contains(vertices, p):
    """2 = interior, 1 = boundary, 0 = outside, for the CCW vertices."""
    res = 2
    n = len(vertices)
    for i in range(n):
        s = orient(vertices[i], vertices[(i + 1) % n], p)
        if s < 0:
            return 0
        if s == 0:
            res = 1
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    if res == 1 and not any(on_segment(p, a, b) for a, b in edges):
        return 0
    return res
