"""Exception hierarchy shared by all denshoe modules."""


class DenshoeError(Exception):
    """Base class for all library errors."""


class InvalidArgument(DenshoeError, ValueError):
    """An argument is outside the domain of the function it was passed to."""


class OutOfRange(DenshoeError, IndexError):
    """An index lies outside the range that an object holds."""


# --- symbolic words / rotation recovery ---

class WindowTooShort(DenshoeError):
    """Requested factor length exceeds the window length 2N+1."""


class NotSturmian(DenshoeError):
    """Observed factors violate Sturmian complexity or balance."""


# --- circle dynamics / WDS family ---

class RationalAlpha(DenshoeError):
    """An exactly rational rotation angle was supplied where an irrational
    one is required (the coding would be periodic)."""


class DegenerateArc(DenshoeError):
    """A cylinder claimed admissible has an empty coding arc."""


class DepthMismatch(DenshoeError):
    """Two order graphs of different depths were compared."""


class NotInMinimalSet(DenshoeError):
    """The point lies in a gap interior, so it has no itinerary."""


# --- variational engine ---

class NoConvergence(DenshoeError):
    """The optimizer failed to reach the gradient tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class TailNotSettled(DenshoeError):
    """Heteroclinic segment endpoints have not converged to the periodic
    orbits within tolerance at the window edges."""


class NotSaddle(DenshoeError):
    """The periodic orbit is not a positive-eigenvalue saddle."""
