"""Exception taxonomy shared across the package."""


class RatboundError(Exception):
    """Base class for every error raised by this package."""


class NearPole(RatboundError):
    """Evaluation point is too close to a pole for a stable quotient."""


class OffCircle(RatboundError):
    """A point that must lie on the unit circle does not."""


class PoleOnCircle(RatboundError):
    """A pole sits on (or numerically on) the scan circle."""


class ZeroOnContour(RatboundError):
    """Winding-number phases stay too coarse after maximal grid doubling."""


class NonConvergence(RatboundError):
    """A computed polynomial root fails the residual certificate."""


class NearZeroOfR(RatboundError):
    """Logarithmic derivative requested where r(z) = 0 or z r'(z)/r(z) is not finite."""


class HypothesisViolated(RatboundError):
    """The instance does not satisfy the inequality's hypotheses."""


class HypothesisMismatch(RatboundError):
    """Generator configuration does not match the inequality's hypotheses."""


class DegenerateBound(RatboundError):
    """Bound expression is ill-posed for this instance (norm == min modulus)."""


class ParameterOutOfRange(RatboundError):
    """A numeric parameter violates its documented range."""


class SpecInvalid(RatboundError):
    """Generator specification fails validation."""


class Reducible(RatboundError):
    """Numerator root coincides with a pole; the quotient is reducible."""


class ParseError(RatboundError):
    """Instance or report text cannot be parsed."""
