"""Veering triangulation combinatorics on half-translation surfaces.

A section is a triangulation of the punctured surface by veering edges:
pairwise noncrossing saddle connections whose spanning rectangles are
free of singularities.  Sections are partially ordered by the slope
order on crossing edges; diagonal exchanges (flips) are the covering
moves.  This module builds sections, flips them, stabilizes a section
under an expanding affine automorphism, and layers the automorphism's
mapping torus into ideal tetrahedra, one per flip.

All geometry is exact.  Each memo has one owner.  The surface has one
EdgeCache (edge_cache(surface)), which memoises reverses, canonical
representatives, crossing records, spanning rectangles and candidate
boxes: data of the flat surface alone, shared by every section and
every map on it.  The maps and sections on the surface own the cache
and the surface points at it weakly, so a surface's geometry is freed
by reference counting when its last map and section go.  The crossing
records of a pair (saddle.crossings) are kept, not only their number,
so the sweeps here and the rectangle solver of fixcount cross each pair
once.  A map owns what depends on it: its edge images and the section
that annular_avoiding_f_section keeps, so every counter run on one map
shares one section, and every power of one map shares its base's.  No
routine takes a cache.

A map acts on edges through its own germ primitive: f.carry takes an
edge's start germ (corner and holonomy) to the image germ, exactly, and
the image edge is walked from there; f.derivative is the map's constant
derivative.  So no routine here asks which class of map it holds, and
this module does not import the affine module.

Its search budgets (the module's _UPPER_CASE constants) stay beside
the searches they cap, not in one shared module, because tests patch
each budget on the module whose search reads it.
"""

import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    InputError,
    InternalCheckError,
    LambdaNotExpanding,
    NonConvexPolygon,
    NotFilling,
    NotFlippable,
    NotNoncrossing,
    NotVeering,
    OverlappingSegments,
    UnsupportedSurface,
    WrongOrder,
)
from .flatsurf import FlatSurface
from .geom import ConvexPolygon, Vec2
from .saddle import (
    SaddleConnection,
    _first_per_point,
    _meetings,
    enumerate_saddles,
    is_veering_edge,
)

__all__ = [
    "EdgeCache",
    "edge_cache",
    "Section",
    "edge_order",
    "section_size",
    "complete_to_section",
    "flip_up",
    "flip_down",
    "section_leq",
    "apply_to_edge",
    "apply_to_section",
    "f_section",
    "annular_avoiding_f_section",
    "FlipStep",
    "flip_path",
    "Tetrahedron",
    "MappingTorus",
    "mapping_torus_layering",
]

# Flips of one section sweep: the cap of _sweep, the flip loop that serves
# f_section, annular_avoiding_f_section and flip_path.
_SWEEP_CAP = 20000
_BOX_DOUBLINGS = 4
_DEGREE_THRESHOLD = 16


def section_size(surface: FlatSurface) -> int:
    """Edge count of any section: three times |chi| of the punctured
    surface (vertices removed)."""
    e = len(surface.gluings) // 2
    f = len(surface.polygons)
    n = 3 * (e - f)
    if n <= 0:
        raise UnsupportedSurface(
            "punctured Euler characteristic %d admits no triangulation by "
            "saddle connections" % (f - e))
    return n


class EdgeCache:
    """One surface's memo for reverses, canonical representatives,
    crossing records, spanning rectangles and candidate boxes.

    Get it with edge_cache(surface); every section, flip, order test
    and rectangle solve on the surface shares it.
    Crossings are the expensive primitive, and every sweep in this
    module hits the same pairs repeatedly.  The crossing memo holds, per
    pair of oriented connections, the records of saddle.crossings; a
    crossing number is the number of records of the two canonical
    representatives.  Rectangles are keyed by the oriented edge, because
    a rectangle's bounds and placements live in that orientation's walk
    frame.  Nothing here depends on a map: edge images live on the map
    (image() reads f._images), so the surface never keeps a map
    alive.  The maps and sections on the surface own the cache, and the
    surface points at it weakly (see edge_cache), so no reference cycle
    keeps it, or the surface, alive after the last of them."""

    def __init__(self, surface: FlatSurface):
        self.surface = surface
        self.rev: Dict[SaddleConnection, SaddleConnection] = {}
        self.canon: Dict[SaddleConnection, SaddleConnection] = {}
        # connections found canonical without a walk of their reverse,
        # by (start corner, holonomy): a walk from there would rebuild one
        self.starts: Dict[tuple, SaddleConnection] = {}
        self.crossed: Dict[tuple, tuple] = {}
        self.rects: Dict[SaddleConnection, object] = {}
        self.boxes: Dict[int, tuple] = {}

    def box_candidates(self, box: int):
        """Canonical non-axis saddle connections with |holonomy| in the
        box, sorted; memoized because completions re-scan the same
        boxes."""
        got = self.boxes.get(box)
        if got is None:
            seen = set()
            out = []
            for sc in enumerate_saddles(self.surface, box, box):
                if sc.is_horizontal() or sc.is_vertical():
                    continue
                c = self.canonical(sc)
                if c not in seen:
                    seen.add(c)
                    out.append(c)
            out.sort(key=SaddleConnection.sort_key)
            got = tuple(out)
            self.boxes[box] = got
        return got

    def reverse(self, sc: SaddleConnection) -> SaddleConnection:
        r = self.rev.get(sc)
        if r is None:
            r = self.starts.get(sc.reverse_start())
            if r is None:
                r = sc.reverse()
            self.rev[sc] = r
            self.rev[r] = sc
        return r

    def canonical(self, sc: SaddleConnection) -> SaddleConnection:
        """The orientation with the smaller sort_key.  Its first three
        entries, the start class and the holonomy, nearly always decide,
        and the reverse's come from its start without walking it; the
        reverse is needed only when sc loses or ties there."""
        c = self.canon.get(sc)
        if c is None:
            corner, r_hol = sc.reverse_start()
            if ((sc.start_class, sc.hol.x, sc.hol.y)
                    < (self.surface.corner_class[corner], r_hol.x, r_hol.y)):
                c = self.canon[sc] = sc
                self.starts[(sc.start_corner, sc.hol)] = sc
            else:
                r = self.reverse(sc)
                c = sc if sc.sort_key() < r.sort_key() else r
                self.canon[sc] = c
                self.canon[r] = c
        return c

    def _crossed(self, a: SaddleConnection, b: SaddleConnection) -> tuple:
        """(records, meetings) of the pair a, b with a before b in
        sort_key order, computed once."""
        got = self.crossed.get((a, b))
        if got is None:
            meetings = tuple(_meetings(a, b))
            got = self.crossed[(a, b)] = (_first_per_point(meetings), meetings)
        return got

    def crossing_records(self, a: SaddleConnection,
                         b: SaddleConnection) -> tuple:
        """saddle.crossings(a, b) for oriented connections, from the memo.

        A pair is stored in sort_key order.  A swapped query swaps i and
        j and negates side in every meeting, then keeps the first meeting
        per point in its own (i, j) order, as saddle.crossings would.  A
        reversed orientation is a different key: its walk runs through
        other pieces (a piece along a polygon edge starts in the glued
        chart), so it is crossed on its own."""
        if b.sort_key() < a.sort_key():
            meetings = self._crossed(b, a)[1]
            return _first_per_point(sorted(
                ((key, chart, pos, j, i, -side)
                 for key, chart, pos, i, j, side in meetings),
                key=lambda m: (m[3], m[4])))
        return self._crossed(a, b)[0]

    def crossings(self, a: SaddleConnection, b: SaddleConnection) -> int:
        """Crossing number of the unoriented connections."""
        ca, cb = self.canonical(a), self.canonical(b)
        if ca == cb:
            return 0
        if cb.sort_key() < ca.sort_key():
            ca, cb = cb, ca
        return len(self._crossed(ca, cb)[0])

    def rect(self, sc: SaddleConnection):
        """is_veering_edge(sc): the spanning rectangle in sc's own walk
        frame, or None when the rectangle develops over a singularity
        (not a veering edge)."""
        if sc not in self.rects:
            self.rects[sc] = is_veering_edge(sc)
        return self.rects[sc]

    def image(self, f, sc: SaddleConnection) -> SaddleConnection:
        """apply_to_edge(f, sc), computed once per (f, oriented edge)
        and kept on the map in f._images."""
        im = f._images.get(sc)
        if im is None:
            im = f._images[sc] = apply_to_edge(f, sc)
        return im


def edge_cache(surface: FlatSurface) -> EdgeCache:
    """The surface's EdgeCache: the live one, or a new one when none is.

    The surface points at its cache weakly, because the cache's saddle
    connections refer to the surface.  Every map on the surface holds the
    cache from its construction and every Section holds it too, so it
    lives exactly as long as one of them does, and reference counting
    frees a map's geometry with its last map."""
    ref = surface._edge_cache
    cache = None if ref is None else ref()
    if cache is None:
        cache = EdgeCache(surface)
        surface._edge_cache = weakref.ref(cache)
    return cache


def _slope_abs_less(a: Vec2, b: Vec2) -> int:
    """sign(|slope a| - |slope b|) via a cross-multiplied compare."""
    lhs = abs(a.y * b.x)
    rhs = abs(b.y * a.x)
    return lhs._compare(rhs)


def edge_order(a: SaddleConnection, b: SaddleConnection) -> str:
    """Order of two veering edges: "equal", "disjoint", "below", "above".

    Crossing edges compare by absolute slope; the more-horizontal edge
    crosses the other's spanning rectangle left to right and is below.
    An exact |slope| tie between crossing edges is broken by sign: the
    negative-slope edge counts as above."""
    cache = edge_cache(a.surface)
    ca, cb = cache.canonical(a), cache.canonical(b)
    if ca == cb:
        return "equal"
    if cache.crossings(ca, cb) == 0:
        return "disjoint"
    s = _slope_abs_less(ca.hol, cb.hol)
    if s < 0:
        return "below"
    if s > 0:
        return "above"
    sa = (ca.hol.x * ca.hol.y).sign()
    return "above" if sa < 0 else "below"


# ---------------------------------------------------------------------------
# face tracing

def _ordered_ends(surface, oriented):
    """Cyclic counterclockwise order of edge germs around each vertex
    class, in _germ_cmp order."""
    fan = surface.fan_position
    by_class: Dict[int, list] = {}
    for sc in oriented:
        cls, _ = fan[sc.start_corner]
        by_class.setdefault(cls, []).append(sc)
    cyclic = {}
    for cls, ends in by_class.items():
        ordered: List[SaddleConnection] = []
        for sc in ends:
            germ = _germ_of(sc)
            lo, hi = 0, len(ordered)
            while lo < hi:
                mid = (lo + hi) // 2
                c = _germ_cmp(fan, _germ_of(ordered[mid]), germ)
                if c == 0:
                    raise InternalCheckError(
                        "coincident edge germs at one corner")
                if c < 0:
                    lo = mid + 1
                else:
                    hi = mid
            ordered.insert(lo, sc)
        cyclic[cls] = ordered
    return cyclic


def _germ_of(sc: SaddleConnection):
    return (sc.start_corner, sc.hol)


def _germ_cmp(fan, a, b) -> int:
    """Counterclockwise order of two outgoing germs at one vertex class.

    A germ is ((chart, vertex), direction) with the direction owned by
    the corner.  Primary key is the corner's position in fan (a
    surface's fan_position), secondary the angle inside the wedge."""
    (ca, da), (cb, db) = a, b
    pa, pb = fan[ca][1], fan[cb][1]
    if pa != pb:
        return -1 if pa < pb else 1
    s = da.cross(db).sign()
    if s == 0:
        if da.dot(db).sign() > 0:
            return 0
        raise InternalCheckError("opposite germs share a corner wedge")
    return -1 if s > 0 else 1


def _trace_faces(surface, edges):
    """Complementary faces of a noncrossing edge set, each as the cycle
    of oriented edges with the face on the left."""
    cache = edge_cache(surface)
    oriented = []
    for c in edges:
        oriented.append(c)
        oriented.append(cache.reverse(c))
    cyclic = _ordered_ends(surface, oriented)
    pred = {}
    for ends in cyclic.values():
        k = len(ends)
        for i, sc in enumerate(ends):
            pred[sc] = ends[(i - 1) % k]
    remaining = set(oriented)
    faces = []
    while remaining:
        start = min(remaining, key=SaddleConnection.sort_key)
        cyc = [start]
        remaining.discard(start)
        cur = start
        while True:
            nxt = pred[cache.reverse(cur)]
            if nxt == start:
                break
            if nxt not in remaining:
                raise InternalCheckError("face boundary revisits an edge")
            remaining.discard(nxt)
            cyc.append(nxt)
            cur = nxt
            if len(cyc) > len(oriented):
                raise InternalCheckError("face boundary does not close")
        faces.append(tuple(cyc))
    if sum(len(f) for f in faces) != len(oriented):
        raise InternalCheckError("face boundary count mismatch")
    return tuple(faces)


# ---------------------------------------------------------------------------
# sections

class Section:
    """A triangulation of the punctured surface by veering edges.

    edges holds canonical representatives in deterministic order; the
    triangles property lists each complementary face as its boundary
    cycle of oriented edges (face on the left)."""

    def __init__(self, surface: FlatSurface, edges: Sequence[SaddleConnection]):
        self.surface = surface
        self.cache = edge_cache(surface)
        canon: List[SaddleConnection] = []
        for e in edges:
            if e.surface is not surface:
                raise InputError("edge belongs to a different surface")
            c = self.cache.canonical(e)
            if c not in canon:
                canon.append(c)
        canon.sort(key=SaddleConnection.sort_key)
        self.edges: Tuple[SaddleConnection, ...] = tuple(canon)
        self.edge_set = frozenset(canon)
        self._faces = None
        self._face_of = None
        self._validate()

    def _validate(self):
        target = section_size(self.surface)
        if len(self.edges) != target:
            raise NotFilling(
                "a section of this surface has %d edges, got %d"
                % (target, len(self.edges)))
        for e in self.edges:
            if e.is_horizontal() or e.is_vertical():
                raise NotVeering(
                    "edge with holonomy (%s, %s) is axis parallel"
                    % (e.hol.x, e.hol.y))
            if self.cache.rect(e) is None:
                raise NotVeering(
                    "edge with holonomy (%s, %s) spans a rectangle containing "
                    "a singularity" % (e.hol.x, e.hol.y))
        for i, a in enumerate(self.edges):
            for b in self.edges[i + 1:]:
                try:
                    n = self.cache.crossings(a, b)
                except OverlappingSegments:
                    raise NotNoncrossing("edges overlap along a segment")
                if n != 0:
                    raise NotNoncrossing(
                        "edges with holonomies (%s, %s) and (%s, %s) cross"
                        % (a.hol.x, a.hol.y, b.hol.x, b.hol.y))
        for f in self.triangles:
            if len(f) != 3:
                raise NotFilling("complementary face with %d sides" % len(f))

    @property
    def triangles(self):
        if self._faces is None:
            self._faces = _trace_faces(self.surface, self.edges)
            self._face_of = {}
            for f in self._faces:
                for sc in f:
                    self._face_of[sc] = f
        return self._faces

    def face_of(self, oriented: SaddleConnection):
        """The face on the left of an oriented edge of this section."""
        self.triangles
        f = self._face_of.get(oriented)
        if f is None:
            raise InputError("oriented edge is not part of this section")
        return f

    def records(self):
        return tuple(e.record() for e in self.edges)

    def __eq__(self, other):
        return isinstance(other, Section) and self.edge_set == other.edge_set

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self.edge_set)

    def __repr__(self):
        return "Section(%d edges)" % len(self.edges)


def complete_to_section(surface: FlatSurface,
                        edges: Sequence[SaddleConnection] = ()) -> Section:
    """Extend pairwise noncrossing veering edges to a full section.

    Greedy and deterministic: candidate edges come from holonomy boxes
    of doubling size, each pass sorted by (start class, holonomy).  A
    surface whose sections need edges beyond the final box raises
    UnsupportedSurface.  So, at once and after the seed edges are
    checked, does a surface with a horizontal or vertical polygon edge:
    every polygon vertex is a singularity or marked, so the edge is an
    axis-parallel saddle connection, and such a surface admits no veering
    triangulation (Gueritaud; Minsky-Taylor)."""
    cache = edge_cache(surface)
    chosen: List[SaddleConnection] = []
    for e in edges:
        c = cache.canonical(e)
        if c in chosen:
            continue
        if c.is_horizontal() or c.is_vertical() or cache.rect(c) is None:
            raise NotVeering(
                "seed edge with holonomy (%s, %s) is not a veering edge"
                % (c.hol.x, c.hol.y))
        for prev in chosen:
            try:
                if cache.crossings(c, prev) != 0:
                    raise NotNoncrossing("seed edges cross")
            except OverlappingSegments:
                raise NotNoncrossing("seed edges overlap")
        chosen.append(c)
    for chart, vecs in enumerate(surface.edge_vectors):
        for e, hol in enumerate(vecs):
            if hol.x.is_zero() or hol.y.is_zero():
                raise UnsupportedSurface(
                    "polygon edge %s has holonomy (%s, %s), an axis-parallel "
                    "saddle connection: the surface admits no veering "
                    "triangulation" % ((chart, e), hol.x, hol.y))
    target = section_size(surface)
    box = 1
    for _ in range(_BOX_DOUBLINGS + 1):
        for c in cache.box_candidates(box):
            if len(chosen) == target:
                break
            if c in chosen:
                continue
            ok = True
            for prev in chosen:
                try:
                    if cache.crossings(c, prev) != 0:
                        ok = False
                        break
                except OverlappingSegments:
                    ok = False
                    break
            if ok and cache.rect(c) is not None:
                chosen.append(c)
        if len(chosen) == target:
            return Section(surface, chosen)
        box *= 2
    raise UnsupportedSurface(
        "no section completion within holonomy box %d; the surface may "
        "admit no veering triangulation in these coordinates" % (box // 2))


# ---------------------------------------------------------------------------
# flips

def _rotate_to(face, member):
    for i, sc in enumerate(face):
        if sc == member:
            return face[i:] + face[:i]
    raise InternalCheckError("edge missing from its own face")


def _apex_solve(H: Vec2, p: Vec2, q: Vec2, side: int) -> Vec2:
    """Apex of the triangle with one side 0->H and the other two sides
    carried by p and q up to sign (chart frames differ by +-1 only).
    side +1 picks the apex left of H, -1 right."""
    cands = []
    for first, second in ((p, q), (q, p)):
        for a in (first, -first):
            for b in (second, -second):
                if (a + b) == H:
                    if a not in cands:
                        cands.append(a)
    good = [a for a in cands if H.cross(a).sign() == side]
    if len(good) != 1:
        raise InternalCheckError(
            "apex recovery found %d candidates on the requested side"
            % len(good))
    return good[0]


def _flip_frame(section: Section, c: SaddleConnection):
    """Developed quadrilateral around a section edge, in the frame of
    its canonical orientation: returns (H, apex_left, apex_right,
    left face rotated to start at c, right face rotated to start at
    the reverse)."""
    cache = section.cache
    r = cache.reverse(c)
    fl = section.face_of(c)
    fr = section.face_of(r)
    if fl is fr:
        raise InternalCheckError("edge is self-adjacent across one face")
    fl_rot = _rotate_to(fl, c)
    fr_rot = _rotate_to(fr, r)
    H = c.hol
    apex_l = _apex_solve(H, fl_rot[1].hol, fl_rot[2].hol, 1)
    apex_r = _apex_solve(H, fr_rot[1].hol, fr_rot[2].hol, -1)
    return H, apex_l, apex_r, fl_rot, fr_rot


def _flip(section: Section, edge: SaddleConnection, up: bool):
    """Shared flip core; returns (new section, new canonical edge, the
    walked oriented copy of the new edge based at the right apex)."""
    cache = section.cache
    c = cache.canonical(edge)
    if c not in section.edge_set:
        raise InputError("flip edge is not in the section")
    H, apex_l, apex_r, fl_rot, fr_rot = _flip_frame(section, c)
    mine = abs(H.x) if up else abs(H.y)
    for other in (fl_rot[1], fl_rot[2], fr_rot[1], fr_rot[2]):
        val = abs(other.hol.x) if up else abs(other.hol.y)
        if (mine - val).sign() <= 0:
            raise NotFlippable(
                "edge with holonomy (%s, %s) is not the strictly %s edge of "
                "both adjacent faces" % (H.x, H.y,
                                         "widest" if up else "tallest"))
    z = H.x.field.zero()
    try:
        ConvexPolygon([Vec2(z, z), apex_r, H, apex_l])
    except NonConvexPolygon:
        raise NotFlippable(
            "the two faces around the edge do not form a strictly convex "
            "quadrilateral") from None
    d = apex_l - apex_r
    if d.x.is_zero() or d.y.is_zero():
        raise NotFlippable("replacement diagonal is axis parallel")
    s = _slope_abs_less(d, H)
    if up and s <= 0:
        raise NotFlippable("replacement diagonal is not strictly steeper")
    if not up and s >= 0:
        raise NotFlippable("replacement diagonal is not strictly shallower")
    # the right apex is where fr's second companion side starts
    chart_v, vidx_v = fr_rot[2].start_corner
    walked = None
    for dd in (d, -d):
        corner, ray = section.surface.owning_corner(chart_v, vidx_v, dd)
        cand = SaddleConnection.walk(section.surface, corner, ray)
        if cand is None:
            continue
        if cand.length_sq() != d.dot(d):
            continue
        try:
            if cache.crossings(cand, c) != 1:
                continue
        except OverlappingSegments:
            continue
        walked = cand
        break
    if walked is None:
        raise InternalCheckError("no diagonal replaces the flipped edge")
    new_c = cache.canonical(walked)
    if cache.rect(new_c) is None:
        raise NotFlippable(
            "replacement diagonal spans a rectangle containing a singularity")
    new_edges = [e for e in section.edges if e != c]
    new_edges.append(new_c)
    return Section(section.surface, new_edges), new_c, walked


def flip_up(section: Section, edge: SaddleConnection) -> Section:
    """Replace the strictly widest edge of two adjacent faces by the
    steeper diagonal of their union quadrilateral."""
    return _flip(section, edge, True)[0]


def flip_down(section: Section, edge: SaddleConnection) -> Section:
    """Replace the strictly tallest edge of two adjacent faces by the
    shallower diagonal of their union quadrilateral."""
    return _flip(section, edge, False)[0]


# ---------------------------------------------------------------------------
# the section order

def _all_below(cache: EdgeCache, lows, highs) -> bool:
    """True when every crossing pair (a, b), a in lows and b in highs,
    has a below b; pairs are tried in lows-major order."""
    for a in lows:
        for b in highs:
            if cache.crossings(a, b) == 0:
                continue
            if edge_order(a, b) != "below":
                return False
    return True


def section_leq(lower: Section, upper: Section) -> bool:
    """True when every crossing pair has the lower section's edge below
    the upper section's edge."""
    return _all_below(lower.cache, lower.edges, upper.edges)


# ---------------------------------------------------------------------------
# automorphism action

def apply_to_edge(f, sc: SaddleConnection) -> SaddleConnection:
    """Image of a saddle connection under an affine automorphism (or
    its inverse), as an oriented saddle connection: the walk from the
    image of its start germ, f.carry(start corner, holonomy)."""
    surface = sc.surface
    if f.surface is not surface:
        raise InputError("automorphism and edge live on different surfaces")
    out = SaddleConnection.walk(surface, *f.carry(sc.start_corner, sc.hol))
    if out is None:
        raise InternalCheckError("edge image failed to develop")
    return out


def apply_to_section(f, section: Section) -> Section:
    """Image section; validation re-checks that the automorphism sent
    veering edges to veering edges."""
    images = [section.cache.image(f, e) for e in section.edges]
    return Section(section.surface, images)


def _sweep(cur: Section, offenders, accept, up: bool, what: str,
           stuck: str) -> Section:
    """The one flip loop of the section sweeps.  Up to _SWEEP_CAP times,
    flip the first of offenders(cur) that _flip accepts and that
    accept(cur, edge, (next section, new edge, walked copy)) keeps;
    return cur once offenders(cur) is empty, and raise stuck when no
    offender moves."""
    for _ in range(_SWEEP_CAP):
        todo = offenders(cur)
        if not todo:
            return cur
        for e in todo:
            try:
                flipped = _flip(cur, e, up)
            except NotFlippable:
                continue
            if accept(cur, e, flipped):
                cur = flipped[0]
                break
        else:
            raise InternalCheckError(stuck)
    raise InternalCheckError(
        "%s exceeded _SWEEP_CAP = %d flips" % (what, _SWEEP_CAP))


def f_section(f, start: Optional[Section] = None) -> Section:
    """A section T with f(T) <= T: the maximum of the translate family
    over the start section, reached by flipping up exactly the edges
    that sit below some image edge."""
    horiz = f.derivative.a
    if (horiz - 1).sign() <= 0:
        raise LambdaNotExpanding(
            "sections track horizontally expanding maps; this map has "
            "horizontal derivative %s (apply to the inverse instead)" % horiz)
    if start is None:
        start = complete_to_section(f.surface)
    cache = start.cache

    def below_an_image(cur):
        lows = [cache.canonical(cache.image(f, e)) for e in cur.edges]
        # crossing edges are ordered, so an image not below e is above it
        return [e for e in cur.edges if not _all_below(cache, lows, (e,))]

    return _sweep(start, below_an_image, lambda *_: True, True,
                  "f-section sweep",
                  "no edge below the image section is up-flippable")


def annular_avoiding_f_section(f) -> Section:
    """An f-section avoiding deep annular pockets: flip down any edge
    whose spanning rectangle has degree >= _DEGREE_THRESHOLD, keeping
    the f-section property at every step.

    The result is kept on the map (f._section), so repeated calls
    return the same Section; its cache is the surface's edge_cache.  A
    power (f.base set) takes its base's section, kept on both, so every
    power of one base shares one section; the PowerAutomorphism docstring
    says why it serves the power.  Edge images stay per map, in
    f._images.  The section is shared: callers must not mutate it or its
    cache's entries."""
    if f._section is not None:
        return f._section
    if f.base is not None:
        f._section = annular_avoiding_f_section(f.base)
        return f._section

    def deep(cur):
        return [e for e in cur.edges
                if cur.cache.rect(e).degree >= _DEGREE_THRESHOLD]

    def still_f_section(cur, e, flipped):
        return section_leq(apply_to_section(f, flipped[0]), flipped[0])

    f._section = _sweep(f_section(f), deep, still_f_section, False,
                        "annular-avoiding sweep",
                        "cannot reduce rectangle degrees and keep an "
                        "f-section")
    return f._section


# ---------------------------------------------------------------------------
# flip paths

class FlipStep:
    """One upward diagonal exchange inside a flip path."""

    __slots__ = ("before", "edge", "after", "new_edge", "walked")

    def __init__(self, before, edge, after, new_edge, walked):
        self.before = before      # section before the flip
        self.edge = edge          # canonical edge removed
        self.after = after        # section after the flip
        self.new_edge = new_edge  # canonical edge inserted
        self.walked = walked      # oriented copy based at the right apex

    def __repr__(self):
        return "FlipStep((%s, %s) -> (%s, %s))" % (
            self.edge.hol.x, self.edge.hol.y,
            self.new_edge.hol.x, self.new_edge.hol.y)


def flip_path(lower: Section, upper: Section) -> List[FlipStep]:
    """Monotone upward flip sequence from one section to a higher one.

    Greedy: flip any edge outside the target whose replacement is not
    above the target; the covering structure of the section order
    guarantees progress when lower <= upper."""
    if lower.surface is not upper.surface:
        raise InputError("sections live on different surfaces")
    cache = lower.cache
    if not section_leq(lower, upper):
        raise WrongOrder("start section is not below the target section")
    steps: List[FlipStep] = []

    def outside(cur):
        return [e for e in cur.edges if e not in upper.edge_set]

    def not_above(cur, e, flipped):
        new_c = flipped[1]
        if (new_c in upper.edge_set
                or _all_below(cache, (new_c,), upper.edges)):
            steps.append(FlipStep(cur, e, *flipped))
            return True
        return False

    _sweep(lower, outside, not_above, True, "flip path",
           "flip path is stuck below the target")
    return steps


# ---------------------------------------------------------------------------
# mapping torus layering

class Tetrahedron:
    """Ideal tetrahedron of one diagonal exchange: the maximal
    rectangle's inscribed quadrilateral with the flipped edge as bottom
    diagonal and its replacement as top diagonal.

    corners maps the tetrahedron's vertex labels 0..3 to positions in
    the bottom diagonal's frame: 0 its start, 1 its end, 2 the right
    apex, 3 the left apex."""

    __slots__ = ("index", "bottom", "top", "sides", "corners",
                 "rect_width", "rect_height")

    def __init__(self, index, bottom, top, sides, corners):
        self.index = index
        self.bottom = bottom
        self.top = top
        self.sides = sides
        self.corners = corners
        xs = [v.x for v in corners.values()]
        ys = [v.y for v in corners.values()]
        self.rect_width = max(xs) - min(xs)
        self.rect_height = max(ys) - min(ys)

    def __repr__(self):
        return "Tetrahedron(%d, bottom=(%s, %s), top=(%s, %s))" % (
            self.index, self.bottom.hol.x, self.bottom.hol.y,
            self.top.hol.x, self.top.hol.y)


class MappingTorus:
    """Layered ideal triangulation of an automorphism's mapping torus:
    one tetrahedron per flip between the image section and the
    section, glued face to face, closed up through the automorphism.

    gluings lists each face pairing once as (tet, face, other tet,
    other face, vertex permutation), the permutation given as the
    4-tuple of images of 0..3.  Face slots: 0 bottom-left, 1
    bottom-right, 2 top-left, 3 top-right of the flip quadrilateral."""

    __slots__ = ("tetrahedra", "gluings", "section", "bottom_section")

    def __init__(self, tetrahedra, gluings, section, bottom_section):
        self.tetrahedra = tuple(tetrahedra)
        self.gluings = tuple(gluings)
        self.section = section
        self.bottom_section = bottom_section
        slots = {}
        for (t, fc, t2, fc2, perm) in self.gluings:
            for side in ((t, fc), (t2, fc2)):
                if side in slots:
                    raise InternalCheckError(
                        "tetrahedron face glued twice: %r" % (side,))
                slots[side] = True
            if sorted(perm) != [0, 1, 2, 3]:
                raise InternalCheckError("gluing permutation is not a "
                                         "bijection on vertex labels")
        expect = {(t.index, fc) for t in self.tetrahedra for fc in range(4)}
        if set(slots) != expect:
            raise InternalCheckError("gluing table is not closed")

    def format_text(self) -> str:
        lines = ["tetrahedra %d" % len(self.tetrahedra)]
        partner = {}
        for (t, fc, t2, fc2, perm) in self.gluings:
            partner[(t, fc)] = (t2, fc2, perm)
            partner[(t2, fc2)] = (t, fc, _invert_perm(perm))
        for tet in self.tetrahedra:
            cells = []
            for fc in range(4):
                t2, fc2, perm = partner[(tet.index, fc)]
                cells.append("%d->%d.%d %s" % (fc, t2, fc2,
                                               _perm_cycles(perm)))
            lines.append("tet %d bottom=(%s,%s) top=(%s,%s) | %s" % (
                tet.index, tet.bottom.hol.x, tet.bottom.hol.y,
                tet.top.hol.x, tet.top.hol.y, "  ".join(cells)))
        return "\n".join(lines)

    def __repr__(self):
        return "MappingTorus(%d tetrahedra)" % len(self.tetrahedra)


def _invert_perm(perm):
    out = [0] * 4
    for i, v in enumerate(perm):
        out[v] = i
    return tuple(out)


def _perm_cycles(perm) -> str:
    seen = set()
    parts = []
    for start in range(4):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = perm[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = perm[cur]
        if len(cyc) > 1:
            parts.append("(" + " ".join(str(v) for v in cyc) + ")")
    return "".join(parts) if parts else "()"


def _face_key(cycle):
    """The least rotation of a face cycle, edges compared by sort_key."""
    return min((cycle[i:] + cycle[:i] for i in range(len(cycle))),
               key=lambda rot: [sc.sort_key() for sc in rot])


def _perm_from_alignment(labels_a, off_a, labels_b, off_b, pos_map):
    perm = [None] * 4
    for p in range(3):
        perm[labels_a[p]] = labels_b[pos_map[p]]
    perm[off_a] = off_b
    return tuple(perm)


def mapping_torus_layering(f, section: Optional[Section] = None) -> MappingTorus:
    """Layer the mapping torus of an expanding automorphism: flip from
    the image section up to the section, one ideal tetrahedron per
    flip, then identify the leftover top faces with bottom faces
    through the automorphism."""
    if section is None:
        section = f_section(f)
    cache = section.cache
    bottom = apply_to_section(f, section)
    if not section_leq(bottom, section):
        raise InputError("the supplied section is not an f-section")
    steps = flip_path(bottom, section)
    if not steps:
        raise InternalCheckError(
            "the image section equals the section; nothing to layer")

    open_faces = {}
    face_meta = {}      # (tet, slot) -> (rotation, labels, off-label)
    base_consumer = {}  # base face key -> (tet, slot)
    base_keys = set()
    for fc in bottom.triangles:
        key = _face_key(fc)
        open_faces[key] = ("base", key)
        base_keys.add(key)
    gluings = []
    tets = []
    zero = section.surface.field.zero()

    for i, st in enumerate(steps):
        H, apex_l, apex_r, fl_rot, fr_rot = _flip_frame(st.before, st.edge)
        rev_walked = cache.reverse(st.walked)
        g1 = st.after.face_of(st.walked)
        g2 = st.after.face_of(rev_walked)
        g1_rot = _rotate_to(g1, st.walked)
        g2_rot = _rotate_to(g2, rev_walked)
        d = apex_l - apex_r
        third_left = 0 if d.cross(-apex_r).sign() > 0 else 1
        labels = {
            0: {fl_rot[0]: 0, fl_rot[1]: 1, fl_rot[2]: 3},
            1: {fr_rot[0]: 1, fr_rot[1]: 0, fr_rot[2]: 2},
            2: {g1_rot[0]: 2, g1_rot[1]: 3, g1_rot[2]: third_left},
            3: {g2_rot[0]: 3, g2_rot[1]: 2, g2_rot[2]: 1 - third_left},
        }
        faces = {0: fl_rot, 1: fr_rot, 2: g1_rot, 3: g2_rot}
        sides = []
        for sc in (fl_rot[1], fl_rot[2], fr_rot[1], fr_rot[2]):
            sides.append(cache.canonical(sc))
        corners = {0: Vec2(zero, zero), 1: H, 2: apex_r, 3: apex_l}
        tets.append(Tetrahedron(i, st.edge, st.new_edge, tuple(sides),
                                corners))
        for slot in range(4):
            rot = _face_key(faces[slot])
            lab = tuple(labels[slot][sc] for sc in rot)
            off = 6 - sum(lab)
            face_meta[(i, slot)] = (rot, lab, off)
        for slot in (0, 1):
            rot, lab, off = face_meta[(i, slot)]
            handle = open_faces.pop(rot, None)
            if handle is None:
                raise InternalCheckError(
                    "flip consumed a face that is not open")
            if handle[0] == "base":
                base_consumer[handle[1]] = (i, slot)
            else:
                _, j, jslot = handle
                rot_j, lab_j, off_j = face_meta[(j, jslot)]
                perm = _perm_from_alignment(lab_j, off_j, lab, off,
                                            (0, 1, 2))
                gluings.append((j, jslot, i, slot, perm))
        for slot in (2, 3):
            rot, lab, off = face_meta[(i, slot)]
            if rot in open_faces:
                raise InternalCheckError("flip produced a duplicate face")
            open_faces[rot] = ("top", i, slot)

    top_keys = {_face_key(fc) for fc in section.triangles}
    if set(open_faces) != top_keys:
        raise InternalCheckError(
            "faces left open do not match the section's faces")

    for key, handle in sorted(open_faces.items(),
                              key=lambda kv: (kv[1][1], kv[1][2])
                              if kv[1][0] == "top" else (-1, -1)):
        if handle[0] != "top":
            continue
        _, i, slot = handle
        rot_i, lab_i, off_i = face_meta[(i, slot)]
        cur = rot_i
        pos_map = (0, 1, 2)
        for _ in range(len(top_keys) + 1):
            img = tuple(cache.image(f, sc) for sc in cur)
            img_rot = _face_key(img)
            offset = None
            for o in range(3):
                if img[o] == img_rot[0]:
                    offset = o
                    break
            if offset is None:
                raise InternalCheckError("image face rotation mismatch")
            pos_map = tuple((pos_map[p] + 3 - offset) % 3 for p in range(3))
            if img_rot in base_consumer:
                j, jslot = base_consumer[img_rot]
                rot_j, lab_j, off_j = face_meta[(j, jslot)]
                perm = _perm_from_alignment(lab_i, off_i, lab_j, off_j,
                                            pos_map)
                gluings.append((i, slot, j, jslot, perm))
                break
            if img_rot not in base_keys or img_rot not in top_keys:
                raise InternalCheckError(
                    "monodromy image is not a bottom face")
            cur = img_rot
        else:
            raise InternalCheckError(
                "monodromy face orbit never reaches a tetrahedron")

    return MappingTorus(tets, gluings, section, bottom)
