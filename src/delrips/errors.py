"""Exception taxonomy.

ValidationError covers bad arguments and broken structural invariants, a
cloud with no points among them (CLI exit code 2), GeometryError failures of
geometric computations on otherwise well-formed input (exit code 3), and
InputFormatError files that do not parse (exit code 4).
"""


class DelripsError(Exception):
    """Base class for all package errors."""


class ValidationError(DelripsError):
    """Invalid argument or violated structural invariant."""


class GeometryError(DelripsError):
    """Geometric computation failed on degenerate input."""


class TooFewPoints(GeometryError):
    """Fewer points than a Delaunay triangulation requires (n < D+1)."""


class AffinelyDegenerateInput(GeometryError):
    """All points lie on a common hyperplane."""


class DuplicatePoints(GeometryError):
    """Two input points coincide exactly."""


class DimensionMismatch(ValidationError):
    """Operands live in different ambient dimensions."""


class EpsilonTooLarge(ValidationError):
    """Perturbation radius at or above half the minimum pairwise distance."""


class UnknownShape(ValidationError):
    """Shape kind is not one of the supported sampler classes."""


class SeriesTooShort(ValidationError):
    """Time series too short for the requested delay embedding."""


class AllEmpty(ValidationError):
    """No finite persistence pairs anywhere in a diagram collection."""


class InvalidFiltration(ValidationError):
    """Filtration violates closure or monotonicity."""


class UnsortedFiltration(ValidationError):
    """Filtration is not in canonical (scale, dim, lexicographic) order."""


class InfiniteDistance(DelripsError):
    """Bottleneck distance is infinite (essential-class counts differ)."""


class CertificateError(RuntimeError):
    """A computed triangulation failed its Delaunay certificate: an internal
    error, not an input error, so it is not a DelripsError."""


class InputFormatError(DelripsError):
    """Point/diagram file could not be parsed."""
