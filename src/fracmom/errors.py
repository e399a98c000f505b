"""Exception taxonomy shared across the package.

Everything raised on purpose derives from :class:`FracmomError` so callers
can catch one base class.  The split below mirrors how failures actually
surface: bad arguments, orders outside a validity region, poles of the
gamma factors, quadrature that could not reach its error target, and
degenerate sample sets.
"""

from __future__ import annotations


class FracmomError(Exception):
    """Base class for every deliberate failure in this package."""


class ArgumentError(FracmomError):
    """An argument is malformed or inconsistent (wrong kind, bad shape,
    unknown key, missing companion value)."""


class DomainError(FracmomError):
    """An evaluation point or order lies outside the domain where the
    requested quantity is defined (e.g. the origin of a signed power,
    or a fractional order outside the admissible real-part interval)."""


class PoleError(DomainError):
    """The requested point sits on (or numerically too close to) a pole
    of a gamma factor or a zero of a cosine normaliser."""


class StripError(DomainError):
    """A real part falls outside the open strip where an operation is
    admissible: a distribution's moment strip, a grid line's usable
    strip, the identity suite's, or an operator's.  All of them come
    from :meth:`fracmom.distributions.FundamentalStrip.require`."""


class UnsupportedError(FracmomError):
    """The operation is well-posed in general but not for this
    distribution (e.g. an integer-moment expansion of a law with no
    finite integer moments)."""


class AllSamplesDegenerateError(FracmomError):
    """Every sample was discarded (all zeros), leaving nothing to
    average."""


class QuadratureError(FracmomError):
    """Adaptive quadrature finished but its error estimate exceeds the
    requested tolerance.

    The achieved estimate is kept on the exception so callers can report
    how far off the integration ended up.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved
