"""Line-oriented text format for fields, surfaces, and maps.

    # comment lines and trailing comments start with '#'
    [FIELD]
    minpoly = x^2 - 3*x + 1
    root = (2, 3)
    [SURFACE]
    polygon A = (0,0) (1,0) (1,1) (0,1)
    glue A.0 A.2 translation
    glue A.1 A.3 translation
    mark A.0
    [MAP]
    lambda = g
    piece A : ((0,0) (1,0) (1,1) (0,1)) -> A + (0,0)
    derivative = [[g, 0], [0, 3 - g]]

Coordinates are exact field elements in the `g` syntax; no floating-point
literals exist in the grammar.  A `derivative` line modifies the piece on
the preceding `piece` line; without one the derivative is the implied
diag(lambda, 1/lambda).  A map is an affine automorphism, so every
derivative is diag(lambda, 1/lambda) or its negative.  Parsing reports the
offending line number on error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .affine import AffineAutomorphism, Piece, PiecewiseAffineMap
from .errors import InputError, ParseError
from .exactnum import (
    FieldElement,
    RealNumberField,
    format_element,
    format_poly,
    parse_element,
    parse_poly,
)
from .flatsurf import FlatSurface
from .geom import AffineMap, ConvexPolygon, Mat2, Vec2


def _fail(lineno: int, msg: str):
    raise ParseError("line %d: %s" % (lineno, msg))


def _split_top_groups(text: str, lineno: int) -> List[str]:
    """Split '(a) (b) (c)' into inner strings, honoring nesting."""
    out = []
    depth = 0
    start = None
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = i + 1
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                _fail(lineno, "unbalanced parentheses")
            if depth == 0:
                out.append(text[start:i])
        elif depth == 0 and not ch.isspace():
            _fail(lineno, "unexpected %r outside parentheses" % ch)
    if depth != 0:
        _fail(lineno, "unbalanced parentheses")
    return out


def _split_commas(text: str, lineno: int) -> List[str]:
    parts = [p.strip() for p in text.split(",")]
    if any(not p for p in parts):
        _fail(lineno, "empty component in tuple (%s)" % text)
    return parts


def _parse_vec(field: RealNumberField, text: str, lineno: int) -> Vec2:
    parts = _split_commas(text, lineno)
    if len(parts) != 2:
        _fail(lineno, "expected a coordinate pair, got (%s)" % text)
    try:
        return Vec2(parse_element(field, parts[0]), parse_element(field, parts[1]))
    except ParseError as exc:
        _fail(lineno, str(exc))


def _parse_edge_ref(token: str, names: List[str], lineno: int,
                    sizes: Optional[List[int]] = None) -> Tuple[int, int]:
    if "." not in token:
        _fail(lineno, "edge reference %r must look like NAME.INDEX" % token)
    name, _, idx = token.rpartition(".")
    if name not in names:
        _fail(lineno, "unknown polygon %r" % name)
    if not idx.isdigit():
        _fail(lineno, "edge index %r is not a nonnegative integer" % idx)
    p = names.index(name)
    if sizes is not None and int(idx) >= sizes[p]:
        _fail(lineno, "polygon %s has %d edges, no edge %s" % (name, sizes[p], idx))
    return p, int(idx)


def _parse_rational(text: str, lineno: int) -> Fraction:
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        _fail(lineno, "not a rational number: %r" % text)


def loads(text: str) -> Tuple[FlatSurface, Optional[AffineAutomorphism]]:
    """Parse a full file; returns the surface and the map (or None).

    The map is a validated AffineAutomorphism; a piece derivative other
    than +-diag(lambda, 1/lambda) raises NotConstantDerivative."""
    field: Optional[RealNumberField] = None
    minpoly = None
    root = None
    section = None
    polygons: List[List[Vec2]] = []
    names: List[str] = []
    glue_lines = []
    mark_lines = []
    lambda_el: Optional[FieldElement] = None
    map_line = None  # line number of the [MAP] header
    piece_data = []  # [chart, vertex list, target, shift, derivative or None]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line == "[FIELD]":
                section = "field"
            elif line == "[SURFACE]":
                section = "surface"
            elif line == "[MAP]":
                section = "map"
                map_line = lineno
            else:
                _fail(lineno, "unknown section %r" % line)
            continue
        if section == "field":
            key, eq, value = line.partition("=")
            if not eq:
                _fail(lineno, "expected key = value")
            key, value = key.strip(), value.strip()
            if key == "minpoly":
                try:
                    minpoly = parse_poly(value, "x")
                except ParseError as exc:
                    _fail(lineno, str(exc))
            elif key == "root":
                groups = _split_top_groups(value, lineno)
                if len(groups) != 1:
                    _fail(lineno, "root expects one interval (lo, hi)")
                parts = _split_commas(groups[0], lineno)
                if len(parts) != 2:
                    _fail(lineno, "root interval needs two endpoints")
                root = (_parse_rational(parts[0], lineno),
                        _parse_rational(parts[1], lineno))
            else:
                _fail(lineno, "unknown field key %r" % key)
            if minpoly is not None and root is not None and field is None:
                field = RealNumberField.create(minpoly, root[0], root[1])
        elif section == "surface":
            if field is None:
                _fail(lineno, "[SURFACE] before a complete [FIELD] block")
            if line.startswith("polygon"):
                rest = line[len("polygon"):].strip()
                name, eq, coords = rest.partition("=")
                if not eq:
                    _fail(lineno, "polygon line needs NAME = vertices")
                name = name.strip()
                if not name or name in names:
                    _fail(lineno, "missing or duplicate polygon name %r" % name)
                groups = _split_top_groups(coords.strip(), lineno)
                if len(groups) < 3:
                    _fail(lineno, "polygon needs at least 3 vertices")
                names.append(name)
                polygons.append([_parse_vec(field, g, lineno) for g in groups])
            elif line.startswith("glue"):
                parts = line.split()
                if len(parts) != 4:
                    _fail(lineno, "glue line needs: glue A.i B.j KIND")
                glue_lines.append((parts[1], parts[2], parts[3], lineno))
            elif line.startswith("mark"):
                parts = line.split()
                if len(parts) != 2:
                    _fail(lineno, "mark line needs one vertex reference")
                mark_lines.append((parts[1], lineno))
            else:
                _fail(lineno, "unknown surface line %r" % line)
        elif section == "map":
            if field is None:
                _fail(lineno, "[MAP] before a complete [FIELD] block")
            if line.startswith("lambda"):
                _, eq, value = line.partition("=")
                if not eq:
                    _fail(lineno, "lambda line needs = value")
                try:
                    lambda_el = parse_element(field, value.strip())
                except ParseError as exc:
                    _fail(lineno, str(exc))
            elif line.startswith("piece"):
                rest = line[len("piece"):].strip()
                left, arrow, right = rest.partition("->")
                if not arrow:
                    _fail(lineno, "piece line needs '->'")
                src_name, colon, region_txt = left.partition(":")
                if not colon:
                    _fail(lineno, "piece line needs ':' after the source name")
                src_name = src_name.strip()
                if src_name not in names:
                    _fail(lineno, "unknown polygon %r" % src_name)
                outer = _split_top_groups(region_txt.strip(), lineno)
                if len(outer) != 1:
                    _fail(lineno, "piece region must be one parenthesized list")
                vert_groups = _split_top_groups(outer[0], lineno)
                if len(vert_groups) < 3:
                    _fail(lineno, "piece region needs at least 3 vertices")
                verts = [_parse_vec(field, g, lineno) for g in vert_groups]
                tgt_name, plus, shift_txt = right.partition("+")
                if not plus:
                    _fail(lineno, "piece target needs '+ (tx, ty)'")
                tgt_name = tgt_name.strip()
                if tgt_name not in names:
                    _fail(lineno, "unknown polygon %r" % tgt_name)
                shift_groups = _split_top_groups(shift_txt.strip(), lineno)
                if len(shift_groups) != 1:
                    _fail(lineno, "piece shift must be one tuple")
                shift = _parse_vec(field, shift_groups[0], lineno)
                piece_data.append([names.index(src_name), verts,
                                   names.index(tgt_name), shift, None, lineno])
            elif line.startswith("derivative"):
                if not piece_data:
                    _fail(lineno, "derivative line before any piece line")
                _, eq, value = line.partition("=")
                if not eq:
                    _fail(lineno, "derivative line needs = [[a,b],[c,d]]")
                value = value.strip()
                if not (value.startswith("[[") and value.endswith("]]")):
                    _fail(lineno, "derivative must look like [[a,b],[c,d]]")
                inner = value[2:-2]
                rows = inner.split("],")
                if len(rows) != 2:
                    _fail(lineno, "derivative needs two rows")
                row0 = _split_commas(rows[0], lineno)
                row1 = _split_commas(rows[1].lstrip().lstrip("["), lineno)
                if len(row0) != 2 or len(row1) != 2:
                    _fail(lineno, "derivative rows need two entries each")
                try:
                    entries = [parse_element(field, t) for t in row0 + row1]
                except ParseError as exc:
                    _fail(lineno, str(exc))
                piece_data[-1][4] = Mat2(*entries)
            else:
                _fail(lineno, "unknown map line %r" % line)
        else:
            _fail(lineno, "content before any section header")

    if field is None:
        raise ParseError("file has no complete [FIELD] block")
    if not polygons:
        raise ParseError("file has no [SURFACE] polygons")

    sizes = [len(vs) for vs in polygons]
    gluings = {}
    for (ref1, ref2, kind, lineno) in glue_lines:
        e1 = _parse_edge_ref(ref1, names, lineno, sizes)
        e2 = _parse_edge_ref(ref2, names, lineno, sizes)
        if kind not in ("translation", "halfturn"):
            _fail(lineno, "gluing kind must be translation or halfturn")
        for e, other in ((e1, e2), (e2, e1)):
            if e in gluings and gluings[e] != (other, kind):
                _fail(lineno, "edge %s glued twice" % (e,))
            gluings[e] = (other, kind)
    marked = []
    for (ref, lineno) in mark_lines:
        marked.append(_parse_edge_ref(ref, names, lineno, sizes))

    poly_objs = [ConvexPolygon(vs) for vs in polygons]
    surface = FlatSurface(field, poly_objs, gluings, marked, names)

    if map_line is None:
        return surface, None
    if not piece_data:
        _fail(map_line, "[MAP] section has no piece lines")
    if lambda_el is None:
        raise ParseError("[MAP] has pieces but no lambda line")

    implied = None if lambda_el.is_zero() else Mat2.diagonal(
        lambda_el, lambda_el.inverse())
    pieces = []
    for chart, verts, target, shift, deriv, lineno in piece_data:
        mat = deriv if deriv is not None else implied
        if mat is None:
            _fail(lineno, "piece has no derivative (lambda = 0?)")
        try:
            region = ConvexPolygon(verts)
        except InputError as exc:
            _fail(lineno, str(exc))
        pieces.append(Piece(chart, region, AffineMap(mat, shift), target))
    return surface, AffineAutomorphism(surface, pieces, lambda_el)


def load_path(path) -> Tuple[FlatSurface, Optional[AffineAutomorphism]]:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# writing


def _format_vec(v: Vec2) -> str:
    return "(%s, %s)" % (format_element(v.x), format_element(v.y))


def dumps(surface: FlatSurface, fmap: Optional[PiecewiseAffineMap] = None,
          header: str = "") -> str:
    """The file text of the surface and, if given, the map.  The format
    holds affine automorphisms only, so any other map (an inverse, a
    composition) raises InputError rather than writing a file that loads
    rejects."""
    if fmap is not None and not isinstance(fmap, AffineAutomorphism):
        raise InputError("a %s cannot be written: the [MAP] section holds "
                         "affine automorphisms only" % type(fmap).__name__)
    out = []
    if header:
        for line in header.splitlines():
            out.append(("# " + line).rstrip())
    field = surface.field
    lo, hi = field.declared_interval
    out.append("[FIELD]")
    out.append("minpoly = %s" % format_poly(field.minpoly, "x"))
    out.append("root = (%s, %s)" % (lo, hi))
    out.append("")
    out.append("[SURFACE]")
    for name, poly in zip(surface.names, surface.polygons):
        out.append("polygon %s = %s" %
                   (name, " ".join(_format_vec(v) for v in poly.vertices)))
    done = set()
    for edge, (partner, kind) in sorted(surface.gluings.items()):
        if edge in done:
            continue
        done.add(edge)
        done.add(partner)
        out.append("glue %s.%d %s.%d %s" % (
            surface.names[edge[0]], edge[1],
            surface.names[partner[0]], partner[1], kind))
    for cp in surface.cone_points:
        if cp.is_marked:
            p, v = sorted(cp.corners)[0]
            out.append("mark %s.%d" % (surface.names[p], v))
    if fmap is not None:
        out.append("")
        out.append("[MAP]")
        out.append("lambda = %s" % format_element(fmap.lambda_))
        implied = fmap.derivative
        for piece in fmap.pieces:
            region = " ".join(_format_vec(v) for v in piece.region.vertices)
            out.append("piece %s : (%s) -> %s + %s" % (
                surface.names[piece.chart], region,
                surface.names[piece.target], _format_vec(piece.map.shift)))
            if piece.map.mat != implied:
                m = piece.map.mat
                out.append("derivative = [[%s, %s], [%s, %s]]" % (
                    format_element(m.a), format_element(m.b),
                    format_element(m.c), format_element(m.d)))
    return "\n".join(out) + "\n"


def dump_path(path, surface: FlatSurface,
              fmap: Optional[PiecewiseAffineMap] = None, header: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(surface, fmap, header))
