"""Exception types raised by input admission and construction routines."""


class BiaxialError(ValueError):
    """Base class for all library-specific errors."""


class InvalidAxisError(BiaxialError):
    """Axis vector is not unit length within tolerance."""


class InvalidRotationError(BiaxialError):
    """Target is not finite, or a 3x3 matrix is not orthogonal with
    determinant one within tolerance."""


class InvalidFrameError(BiaxialError):
    """Frame axes are not orthonormal within tolerance."""


class AxesParallelError(BiaxialError):
    """The two rotation axes are parallel or anti-parallel within tolerance."""


class InvalidSlabError(BiaxialError):
    """Middle-angle slab lies outside the admissible range."""


class InfeasibleSlabError(BiaxialError):
    """Slab exceeds twice the axis gap and cannot be realised by one m-n-m triple."""


class PatternError(BiaxialError):
    """Factor sequence does not strictly alternate between the two axes."""
