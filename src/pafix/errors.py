"""Exception taxonomy for the whole package.

Two top-level families matter to callers:

* ``InputError`` -- the caller handed us something malformed or outside the
  domain of the operation (bad file, reducible polynomial, map that is not
  affine, ...).  The CLI reports these on stderr and exits with status 2.
* ``InternalCheckError`` -- an internal invariant failed.  These indicate a
  bug in this package, never bad input, and map to exit status 3.

Everything else subclasses one of the two.
"""


class PafixError(Exception):
    """Base class for every error raised deliberately by this package."""


class InputError(PafixError):
    """Invalid or out-of-domain input.  CLI exit status 2."""


class InternalCheckError(PafixError):
    """An internal consistency check failed; indicates a bug.  Exit status 3."""


# ---------------------------------------------------------------------------
# number fields

class NotIrreducible(InputError):
    """Defining polynomial factors over the rationals."""


class NoRootInInterval(InputError):
    """Defining polynomial has no root in the stated interval."""


class MultipleRootsInInterval(InputError):
    """Stated interval brackets more than one root, so it names no element."""


class DivisionByZero(InputError):
    """Division by the zero element of a field."""


class FieldMismatch(InputError):
    """Arithmetic attempted between elements of different fields."""


class ParseError(InputError):
    """Malformed textual representation of a number, polynomial, or file."""


# ---------------------------------------------------------------------------
# surfaces and maps

class UnmatchedEdge(InputError):
    """Edge gluing is not a perfect matching of the polygon edges."""


class LengthMismatch(InputError):
    """Glued edges do not have compatible edge vectors."""


class NonConvexPolygon(InputError):
    """Polygon is not strictly convex and counterclockwise."""


class GaussBonnetViolation(InputError):
    """Total cone angle excess disagrees with the Euler characteristic."""


class UnmarkedConePoint(InputError):
    """A vertex class of angle 2*pi exists but is not marked."""


class NotConstantDerivative(InputError):
    """Map pieces do not share the expected linear derivative up to sign."""


class NotBijective(InputError):
    """Map pieces fail to tile the source or target surface exactly once."""


class Discontinuous(InputError):
    """Map pieces disagree along a shared boundary."""


class LambdaNotExpanding(InputError):
    """Claimed stretch factor is not a real number greater than 1."""


class NotHyperbolic(InputError):
    """Integer matrix has |trace| <= 2 or negative trace, so no positive
    hyperbolic normal form exists."""


class HorizontalOrVertical(InputError):
    """Saddle connection or curve runs horizontally or vertically where
    that is forbidden."""


class OverlappingSegments(InputError):
    """Two segments overlap along a subsegment, so their crossings cannot
    be counted transversally."""


class NotNoncrossing(InputError):
    """Collection of arcs has interior crossings where a disjoint system is
    required."""


class NotVeering(InputError):
    """Triangulation or operation violates the veering constraint."""


class NotFlippable(InputError):
    """Edge does not admit the requested diagonal flip."""


class WrongOrder(InputError):
    """Flip sequence applied in an order that violates the requested sweep."""


class NotFixed(InputError):
    """Point claimed fixed is not actually fixed by the map."""


class NotFilling(InputError):
    """Configuration does not fill the surface."""


class UnsupportedSurface(InputError):
    """Operation is restricted to a subclass of surfaces (for example cone
    angles at least 2*pi) and the input falls outside it."""
