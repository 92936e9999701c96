"""Exact linear algebra over the rationals, for small systems.

A matrix is a list of rows and a vector a list of entries; entries are
ints or Fractions and results are Fractions.  The users are the
homological Lefschetz number (boundary and chain maps on the few edges
of a section) and the minimal polynomial of a field element (the power
basis of a field of small degree), so plain Gauss-Jordan elimination is
fast enough and needs no external package.

    >>> from pafix.linalg import nullspace, restricted_trace
    >>> [[str(x) for x in v] for v in nullspace([[1, 2, 3], [2, 4, 6]], 3)]
    [['-2', '1', '0'], ['-3', '0', '1']]
    >>> restricted_trace([[2, 1], [0, 3]], [[1, 0]])
    Fraction(2, 1)
"""

from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import InternalCheckError

__all__ = ["apply", "columnspace", "nullspace", "restricted_trace", "rref"]


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


def columnspace(rows: Sequence[Sequence]) -> List[list]:
    """A basis of the column space: the pivot columns of the matrix."""
    _, pivots = rref(rows)
    return [[Fraction(row[c]) for row in rows] for c in pivots]


def apply(rows: Sequence[Sequence], v: Sequence) -> List:
    """The matrix-vector product rows v."""
    return [sum(a * b for a, b in zip(row, v)) for row in rows]


def restricted_trace(phi: Sequence[Sequence], basis: Sequence[Sequence]):
    """Trace of phi on the span of the independent vectors in basis.

    Solves basis * a = phi * basis by elimination, then checks the
    solution by substituting it back, so a span that phi does not map
    into itself raises InternalCheckError instead of returning a
    trace."""
    k = len(basis)
    if not k:
        return Fraction(0)
    images = [apply(phi, w) for w in basis]
    n = len(basis[0])
    m, pivots = rref([[w[r] for w in basis] + [im[r] for im in images]
                      for r in range(n)])
    if pivots[:k] != list(range(k)):
        raise InternalCheckError("subspace basis is not independent")
    a = [row[k:] for row in m[:k]]
    for j, im in enumerate(images):
        back = [sum(a[i][j] * basis[i][r] for i in range(k)) for r in range(n)]
        if back != im:
            raise InternalCheckError(
                "subspace is not invariant under the chain map")
    return sum(a[i][i] for i in range(k))
