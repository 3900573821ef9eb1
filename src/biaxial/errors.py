"""Exception types raised by input admission and construction routines."""


class BiaxialError(ValueError):
    """Base class for all library-specific errors."""


class InvalidAxisError(BiaxialError):
    """Axis vector is not unit length within tolerance."""


class InvalidRotationError(BiaxialError):
    """Target is not finite with norm 1, or a 3x3 matrix is not orthogonal
    with determinant one, within tolerance."""


class AxesParallelError(BiaxialError):
    """The two rotation axes are parallel or anti-parallel within tolerance."""


class InfeasibleSlabError(BiaxialError):
    """Slab lies outside ``[0, 2*delta]``, or the gap outside ``(0, pi/2]``,
    so no one m-n-m triple realises it."""
