"""Exact linear algebra over the rationals, for small systems.

A matrix is a list of rows and a vector a list of entries; entries are
ints or Fractions and results are Fractions.  The user is the
homological Lefschetz number (a map's trace on the few polygon edges of
a surface, modulo the polygon boundaries), and the tests find a field
element's minimal polynomial over the power basis of a field of small
degree, so plain Gauss-Jordan elimination is fast enough and needs no
external package.

    >>> from pafix.linalg import nullspace, quotient_trace
    >>> [[str(x) for x in v] for v in nullspace([[1, 2, 3], [2, 4, 6]], 3)]
    [['-2', '1', '0'], ['-3', '0', '1']]

On the plane modulo the y-axis, (1, 0) and (1, 1) are one class, and
the map sending them to (2, 1) and (2, 5) doubles it:

    >>> quotient_trace([[0, 1]], [[1, 0], [1, 1]], [[2, 1], [2, 5]])
    Fraction(2, 1)
"""

from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import InternalCheckError

__all__ = ["nullspace", "quotient_trace", "rref"]


def rref(rows: Sequence[Sequence]) -> Tuple[List[List[Fraction]], List[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: List[int] = []
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i, row in enumerate(m):
            if i != r and row[c]:
                k = row[c]
                m[i] = [x - k * y for x, y in zip(row, m[r])]
        pivots.append(c)
    return m, pivots


def nullspace(rows: Sequence[Sequence], ncols: int) -> List[list]:
    """A basis of {v : rows v = 0}, one vector per free column in
    column order: the vector of free column c has entry 1 at c, 0 at the
    other free columns, and so expresses column c through the pivot
    columns before it."""
    m, pivots = rref(rows)
    out = []
    for c in range(ncols):
        if c in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -m[r][c]
        out.append(v)
    return out


def quotient_trace(sub: Sequence[Sequence], gens: Sequence[Sequence],
                   images: Sequence[Sequence]) -> Fraction:
    """Trace of the linear map gens[j] -> images[j] on the quotient of
    the ambient space by the span of sub.

    The generators that are pivots modulo sub form a basis of the
    quotient, and every image is solved in it.  Raises
    InternalCheckError when the generators do not span the quotient, or
    when the images break a relation that the generators satisfy modulo
    sub, so that no such linear map exists."""
    s, k = len(sub), len(gens)
    cols = [*sub, *gens, *images]
    m, pivots = rref([[c[r] for c in cols] for r in range(len(cols[0]))])
    if sum(p < s + k for p in pivots) != len(m):
        raise InternalCheckError("generators do not span the quotient")
    rows = [r for r, p in enumerate(pivots) if p >= s]

    def coords(c):
        return [m[r][c] for r in rows]

    # a[i]: the image of the i-th basis generator, in that basis
    a = [coords(k + pivots[r]) for r in rows]
    for j in range(k):
        g = coords(s + j)
        if [sum(x * y for x, y in zip(g, col)) for col in zip(*a)] \
                != coords(s + k + j):
            raise InternalCheckError(
                "images break a relation among the generators")
    return sum((a[i][i] for i in range(len(rows))), Fraction(0))
