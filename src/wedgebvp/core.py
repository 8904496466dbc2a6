"""Problem parameters, coordinate conventions and branch-resolved base data.

Geometry
--------
The domain is the exterior angle Q of opening Phi in (pi, 2*pi), described in
polar coordinates by rho > 0, theta in [2*pi - Phi, 2*pi].  The frequency
omega lies in the upper half plane (Im omega > 0, Re omega >= 0) and the two
wavenumbers k1, k2 are positive.

All complex-plane geometry of the construction lives on the w-plane of the
substitution z1 = -i*omega*sinh(w).  The curve

    Gamma_alpha(omega) = { w1 + i*(arctan((Re omega / Im omega)*tanh w1)
                                   + alpha) : w1 real }

is the locus where z1 runs along a rotated real line; Gamma_0 carries the
branch point

    p1 = arcsinh(i*k/omega),      z1(p1) = k,

which is the fundamental pole parameter of the integrand kernel.  The two
residue constants attached to p1 are

    r1 = -sinh(p1 + i*Phi)/cosh(p1),      r2 = sinh(p1 - i*Phi)/cosh(p1).

The reflection theta -> theta1 = -theta + 4*pi - Phi swaps the two boundary
rays of the wedge and converts the second boundary condition into the first.

All quantities are dimensionless.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import BranchError, DomainError

PI = math.pi
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Tolerances:
    """Shared numerical policy.

    quad_rel       relative quadrature tolerance for field integrals
    id_tol         tolerance for identity checks (difference equation, BCs)
    pole_clearance minimal allowed distance from evaluation points/contours
                   to kernel poles
    """

    quad_rel: float = 1e-10
    id_tol: float = 1e-6
    pole_clearance: float = 1e-3

    def __post_init__(self):
        if self.quad_rel <= 0 or self.id_tol <= 0 or self.pole_clearance <= 0:
            raise DomainError("tolerances must be strictly positive")
        if self.pole_clearance < 10.0 * self.id_tol:
            raise DomainError("pole_clearance must be >= 10*id_tol")


@dataclass(frozen=True)
class ProblemParams:
    """Frequency, opening angle and boundary wavenumbers."""

    omega: complex
    phi: float
    k1: float = 1.0
    k2: float = 1.0
    tol: Tolerances = Tolerances()

    @property
    def theta_min(self) -> float:
        return TWO_PI - self.phi

    @property
    def theta_max(self) -> float:
        return TWO_PI


def validate_params(p: ProblemParams) -> ProblemParams:
    """Check every invariant of ProblemParams; return p unchanged if valid."""
    om = complex(p.omega)
    if not om.imag > 0.0:
        raise DomainError(f"Im omega must be > 0, got {om.imag}")
    if om.real < 0.0:
        raise DomainError(f"Re omega must be >= 0, got {om.real}")
    if not (PI < p.phi < TWO_PI):
        raise DomainError(f"phi must lie in (pi, 2*pi) exclusive, got {p.phi}")
    if not p.k1 > 0.0:
        raise DomainError(f"k1 must be > 0, got {p.k1}")
    if not p.k2 > 0.0:
        raise DomainError(f"k2 must be > 0, got {p.k2}")
    return p


@dataclass(frozen=True)
class PolarPoint:
    """A point of the closed wedge, rho > 0."""

    rho: float
    theta: float

    def __post_init__(self):
        if not self.rho > 0.0:
            raise DomainError(f"rho must be > 0, got {self.rho}")

    def require_in_wedge(self, p: ProblemParams) -> "PolarPoint":
        """Raise DomainError unless theta is in the wedge, to within 1e-12."""
        if not (p.theta_min - 1e-12 <= self.theta <= p.theta_max + 1e-12):
            raise DomainError(
                f"theta={self.theta} outside wedge [{p.theta_min}, {p.theta_max}]"
            )
        return self


@dataclass(frozen=True)
class BranchPoint:
    """The branch of arcsinh(i*k/omega) on Gamma_0 and its residue constants."""

    p1: complex
    r1: complex
    r2: complex
    k: float


def gamma_height(omega: complex, w1: float) -> float:
    """Height of Gamma_0(omega) above the real axis at abscissa w1."""
    om = complex(omega)
    return math.atan((om.real / om.imag) * math.tanh(w1))


def curve_offset(omega: complex, w: complex) -> float:
    """Signed vertical offset of w from Gamma_0(omega).

    Equals alpha when w lies on Gamma_alpha(omega); the strips V_alpha^beta of
    the construction are level sets  alpha < curve_offset(w) < beta.
    """
    w = complex(w)
    return w.imag - gamma_height(omega, w.real)


def branch_point(p: ProblemParams, k: float) -> BranchPoint:
    """Resolve p1 = arcsinh(i*k/omega) onto Gamma_0(omega).

    The inverse sinh has countably many branches; enumerate
    log(zeta + s*sqrt(zeta^2+1)) + 2*pi*i*n for both square-root signs s and
    small n, and keep the unique candidate sitting on Gamma_0.
    """
    validate_params(p)
    if not k > 0.0:
        raise DomainError(f"wavenumber must be > 0, got {k}")
    om = complex(p.omega)
    zeta = 1j * k / om
    root = cmath.sqrt(zeta * zeta + 1.0)
    best = None
    best_off = math.inf
    for s in (root, -root):
        base = zeta + s
        if base == 0:
            continue
        principal = cmath.log(base)
        for n in range(-2, 3):
            cand = principal + 2j * PI * n
            off = abs(curve_offset(om, cand))
            if off < best_off:
                best_off = off
                best = cand
    if best is None or best_off > 1e-8:
        raise BranchError(
            f"no branch of arcsinh(ik/omega) found on Gamma_0 "
            f"(best offset {best_off:.3e})"
        )
    if abs(cmath.sinh(best) - zeta) > 1e-10 * max(1.0, abs(zeta)):
        raise BranchError("selected branch fails sinh(p1) = ik/omega")
    r1 = -cmath.sinh(best + 1j * p.phi) / cmath.cosh(best)
    r2 = cmath.sinh(best - 1j * p.phi) / cmath.cosh(best)
    return BranchPoint(p1=best, r1=r1, r2=r2, k=k)


def theta_reflect(theta: float, phi: float) -> float:
    """Reflection theta1 = -theta + 4*pi - Phi swapping the wedge sides."""
    lo = TWO_PI - phi
    if not (lo - 1e-12 <= theta <= TWO_PI + 1e-12):
        raise DomainError(f"theta={theta} outside wedge [{lo}, {TWO_PI}]")
    return -theta + 4.0 * PI - phi
