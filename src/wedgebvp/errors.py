"""Exception taxonomy for the wedge solver.

Every failure mode of the numerical construction gets its own class so
callers (and the CLI exit-code mapping) can react without string matching.
All of them derive from :class:`WedgeError`.
"""


class WedgeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(WedgeError):
    """A parameter or evaluation point violates a documented invariant."""


class BranchError(WedgeError):
    """No candidate branch of an inverse function lies on the required curve."""


class PoleError(WedgeError):
    """Evaluation requested too close to a pole of a kernel component."""

    def __init__(self, message, nearest=None, distance=None):
        super().__init__(message)
        self.nearest = nearest
        self.distance = distance


class GeometryError(WedgeError):
    """A contour fails its decay or clearance certification."""


class QuadratureError(WedgeError):
    """Node-doubling disagreement exceeded the requested tolerance."""


class ConvergenceError(WedgeError):
    """A refinement ladder failed to settle (residues by node doubling)."""


class RayError(WedgeError):
    """Decomposed evaluation on the ray theta = 3*pi/2 without PV mode."""


class FitError(WedgeError):
    """A least-squares fit (origin probe) had an unacceptable residual."""


class ParseError(WedgeError):
    """Malformed configuration text."""

    def __init__(self, message, line=None, key=None):
        super().__init__(message)
        self.line = line
        self.key = key
