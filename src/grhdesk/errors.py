"""Exception types raised by the numerical kernels.

Every failure mode that a caller can act on gets its own class; anything else
is a plain ValueError/TypeError from argument validation.  Each class below
is raised somewhere in the package; a new failure mode adds its class
together with the code that raises it.
"""


class GrhdeskError(Exception):
    """Base class for all domain errors raised by this package."""


class DivisorContainsZero(GrhdeskError):
    """Interval division where the divisor interval straddles or touches 0."""


class NegativeSqrtDomain(GrhdeskError):
    """sqrt of an interval whose lower endpoint is negative."""


class LogDomain(GrhdeskError):
    """log of an interval that is not strictly positive."""


class NonPositiveRealPart(GrhdeskError):
    """Complex log / log-gamma argument left of the imaginary axis."""


class DomainError(GrhdeskError):
    """Argument outside the domain an operation is specified for."""


class QTooSmall(GrhdeskError):
    """Modulus below 3; there are no primitive characters to work with."""


class NotPrimitive(GrhdeskError):
    """Operation requires a primitive character."""


class PoleProximity(GrhdeskError):
    """Hurwitz zeta evaluated on an s-interval that contains the pole s=1."""


class RadiusViolation(GrhdeskError):
    """Taylor shift |delta| too large for the requested lattice row."""


class TailDivergence(GrhdeskError):
    """A geometric tail bound failed to certify a ratio < 1."""


class XConditionViolated(GrhdeskError):
    """Alias bound requested outside its X(x) > 1 region of validity."""


class BetaConditionViolated(GrhdeskError):
    """Grid-error bound requested where the beta exponent is not positive."""


class HypothesisViolated(GrhdeskError):
    """A fact the character tables rest on failed its check: factor orders
    that do not multiply to phi(q), a chi(-1) phase other than 0 or 1/2,
    or a root number whose |.|^2 box misses 1."""


class RealnessViolation(GrhdeskError):
    """A provably-real quantity came out with an imaginary part excluding 0."""
