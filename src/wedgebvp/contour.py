"""Curves and quadrature contours in the complex w-plane.

Curve family
------------
All contours are assembled from the one-parameter family

    Gamma_alpha(omega) = { w1 + i*(g(w1) + alpha) : w1 real },
    g(w1) = arctan((Re omega / Im omega) * tanh(w1)),

which degenerates to horizontal lines when Re omega = 0.  The integrand of
the field representation is e^{-omega*rho*sinh(w)} times a kernel of at most
linear growth, and on every curve used here the exponential obeys

    |e^{-omega*rho*sinh(w - i*tau)}| <= e^{-C*rho*cosh(Re w)},
    C = (Im omega)^2 * sin(tau0) / |omega|,

uniformly over the tau-window of half-width tau0 = pi/2 that every contour
here keeps, which is what certifies truncation of the infinite tails at a
computable abscissa Wmax.

Contours provided:

* the Sommerfeld double loop C(omega) = C1 u C2, where C2 descends the strip
  between Gamma_{-5pi/2} and Gamma_{-pi/2} on the left (tails at Re w <= -b,
  vertical link at Re w = -b) and C1 is its image under w -> -w - 3pi*i,
  the right-hand loop between the same two curves.  Quadrature is
  composite Gauss-Legendre per panel, tail panels uniform in sinh(Re w).
  The acceptance tests, the kernel-dump verb, the decompose verb's u1
  column and the reference sides of verify's decomposition and
  contour-independence checks integrate on it.
* the decomposition contour Gamma_{-5pi/2} (left to right) followed by
  Gamma_{-pi/2} (right to left), two trapezoid lines on which the solver
  corrects the moving kernel pole and adds the plane wave.  The field verb,
  the decompose verb's u_d column and verify's boundary and helmholtz
  checks and origin_probe integrate on it.

A whole Gamma_alpha line is laid out for the trapezoid rule in a parameter
u by _Line, and a simple pole near it is restored by _missed_pole.  The
kernel module sums its Cauchy-type integral along the carrier
Gamma_{pi/2-Phi} this way too.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Tuple

import numpy as np

from .core import PI, TWO_PI, ProblemParams, branch_point, gamma_height, validate_params
from .errors import DomainError, GeometryError, PoleError

_GAUSS_N = 16
_GX, _GW = np.polynomial.legendre.leggauss(_GAUSS_N)


def _gamma_points(omega: complex, alpha: float, w1: np.ndarray) -> np.ndarray:
    """Points of Gamma_alpha(omega) at the abscissas w1."""
    om = complex(omega)
    ratio = om.real / om.imag
    return w1 + 1j * (np.arctan(ratio * np.tanh(w1)) + alpha)


def _gamma_slope(omega: complex, w1: np.ndarray) -> np.ndarray:
    """d/dw1 of the height of Gamma_alpha (independent of alpha)."""
    om = complex(omega)
    ratio = om.real / om.imag
    th = np.tanh(w1)
    return ratio * (1.0 - th * th) / (1.0 + (ratio * th) ** 2)


def decay_rate(omega: complex) -> float:
    """The constant C in the tail bound exp(-C*rho*cosh(Re w)), at tau0 = pi/2."""
    om = complex(omega)
    return om.imag * om.imag / abs(om)


def truncation_cutoff(omega: complex, rho: float, tol: float) -> float:
    """Smallest Wmax with exp(-C(omega)*rho*cosh(Wmax)) <= tol."""
    if not rho > 0.0:
        raise DomainError(f"rho must be > 0, got {rho}")
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must be in (0,1), got {tol}")
    target = math.log(1.0 / tol) / (decay_rate(omega) * rho)
    return math.acosh(max(target, 1.0))


class ContourPolyline:
    """Discretized oriented contour with its quadrature data.

    nodes carry (w, dw): the integral of f along the contour is
    sum(f(w) * dw), with dw the tangent times the panel scale times the
    Gauss-Legendre weight, or, on trapezoid lines, the step times dw/du.

    Besides the nodes a contour keeps what the field integrand needs of them:

    * Wmax, the largest |Re w| of a node, fixed at construction;
    * mirror, the partner mirror[j] of each node j of the first half: the
      second half is the first moved by a period of sinh w (C1 = -C2 - 3pi*i,
      Gamma_{-pi/2} = Gamma_{-5pi/2} + 2pi*i), so partners share sinh w to
      rounding;
    * sinh(w) on all nodes (sinh_w), computed on first use;
    * the last exponential factor e^{-omega*rho*sinh w} that exp_factor
      produced on the first half, in a one-entry slot keyed on (omega, rho);
    * cache, one record per (engine, theta) that the solver fills: the
      folded kernel column and, on the Gamma lines, the moving pole's
      correction and the plane-wave share.

    The refined contour keeps its own.
    """

    def __init__(
        self,
        w: np.ndarray,
        dw: np.ndarray,
        label: str,
        mirror: np.ndarray,
        refiner: Optional[Callable[[], "ContourPolyline"]] = None,
    ):
        self.w = np.asarray(w, dtype=complex)
        self.dw = np.asarray(dw, dtype=complex)
        self.label = label
        self.mirror = np.asarray(mirror, dtype=np.intp)
        self._refiner = refiner
        self._refined: Optional[ContourPolyline] = None
        self.Wmax = float(np.max(np.abs(self.w.real)))
        self.cache: dict = {}
        # The upper line's trapezoid grid (_Line, h, u0) on a decomposition
        # contour, for the moving-pole correction.
        self.upper_grid: Optional[Tuple["_Line", float, float]] = None
        self._sinh_w: Optional[np.ndarray] = None
        self._exp_slot: Optional[Tuple[complex, float, np.ndarray]] = None

    def __len__(self) -> int:
        return self.w.size

    def integrate(self, fvals: np.ndarray) -> complex:
        return complex(np.sum(np.asarray(fvals) * self.dw))

    @property
    def sinh_w(self) -> np.ndarray:
        s = self._sinh_w
        if s is None:
            s = self._sinh_w = np.sinh(self.w)
        return s

    def exp_factor(self, omega: complex, rho: float) -> np.ndarray:
        """e^{-omega*rho*sinh w} on the first half of the nodes, whose
        partners share it; the last one made is kept.
        """
        slot = self._exp_slot
        if slot is not None and slot[0] == omega and slot[1] == rho:
            return slot[2]
        f = np.exp((-omega * rho) * self.sinh_w[:self.mirror.size])
        self._exp_slot = (omega, rho, f)
        return f

    def refined(self) -> "ContourPolyline":
        if self._refiner is None:
            raise GeometryError(f"contour {self.label!r} is not refinable")
        if self._refined is None:
            self._refined = self._refiner()
        return self._refined


def _panel_nodes(breaks: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss nodes and their weights (panel scale included) on the
    panels given by breaks."""
    a = np.asarray(breaks[:-1], dtype=float)
    b = np.asarray(breaks[1:], dtype=float)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    s = (mid[:, None] + half[:, None] * _GX[None, :]).ravel()
    scale = np.repeat(half, _GAUSS_N) * np.tile(_GW, a.size)
    return s, scale


def _tail_breaks(w1_from: float, w1_to: float, n_panels: int) -> np.ndarray:
    """Panel breaks between two abscissas, uniform in sinh(w1)."""
    s0, s1 = math.sinh(w1_from), math.sinh(w1_to)
    return np.arcsinh(np.linspace(s0, s1, n_panels + 1))


def _gamma_piece(
    omega: complex, alpha: float, breaks: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss panels on Gamma_alpha, traversed in the order of the breaks."""
    s, scale = _panel_nodes(breaks)
    w = _gamma_points(omega, alpha, s)
    dw = (1.0 + 1j * _gamma_slope(omega, s)) * scale
    return w, dw


def _vertical_piece(
    x: float, y_from: float, y_to: float, n_panels: int
) -> Tuple[np.ndarray, np.ndarray]:
    breaks = np.linspace(y_from, y_to, n_panels + 1)
    s, scale = _panel_nodes(breaks)
    w = x + 1j * s
    dw = 1j * scale
    return w, dw


def _missed_pole(res, u_star, u0: float, h: float, side):
    """What the trapezoid sum on u0 + j*h misses of res/(u - u_star).

    side is the sign of Im u_star; side 0 gives the principal value for a
    pole on the real u axis.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return PI * res * (1.0 / np.tan(PI * (u_star - u0) / h) + 1j * side)


class _Line:
    """Gamma_alpha(omega) parametrised for the trapezoid rule u_j = u0 + j*h.

    The abscissa is laid out through two real-analytic layers,

        x = S*sinh(y/S),      y = u - (1 - a)*3a*tanh(u/(3a))   (a < 1),

    where a = arctan(Im omega / Re omega) is the distance from the real x
    axis of the curve's nearest singularities x = +-i*a.  The sinh layer
    spaces the tails geometrically, so |x| ~ 70 costs about 25 units of u;
    the tanh layer shrinks the step by the factor a near x = 0, where a
    tilted curve bends.  Every layer is analytic in a strip about the real
    u axis, so a pole of an integrand near the line has a preimage u* there.
    """

    S = 8.0

    def __init__(self, omega: complex, alpha: float):
        om = self.omega = complex(omega)
        self.alpha = float(alpha)
        self.r = om.real / om.imag
        self.a = math.atan2(om.imag, om.real)
        self.b = (1.0 - self.a) * 3.0 * self.a if self.a < 1.0 else 0.0

    @property
    def step(self) -> float:
        """The trapezoid step in u that resolves the bend at x = +-i*a.

        Measured, not derived: the largest step that keeps the mean-value
        defect of the kernel's trapezoid sum near 1e-14 at a in {0.2, 0.29,
        0.46, 0.61, 0.79}; below a = 0.3 the tanh layer resolves the bend
        less well, hence the extra factor.
        """
        return min(0.2, 0.22 * self.a * min(1.0, self.a / 0.3))

    def reach(self, x: np.ndarray, du: float) -> np.ndarray:
        """Vertical offset below which a point over abscissa x may have its
        preimage within du of the real u axis.

        Im u* is about offset / ((1 + g'(x)^2) * dx/dy * dy/du), with g the
        height of the curve; dy/du <= 1 and dx/dy = sqrt(1 + (x/S)^2).
        """
        slope = _gamma_slope(self.omega, x)
        return du * (1.0 + slope * slope) * np.sqrt(1.0 + (x / self.S) ** 2)

    def _y(self, u):
        """y(u) and dy/du."""
        if not self.b:
            return u, np.ones_like(u)
        th = np.tanh(u / (3.0 * self.a))
        return u - self.b * th, 1.0 - (1.0 - self.a) * (1.0 - th * th)

    def _w(self, x):
        """The curve point over the (complex) abscissa x, and dw/dx."""
        return (_gamma_points(self.omega, self.alpha, x),
                1.0 + 1j * _gamma_slope(self.omega, x))

    def at(self, u):
        """w(u) and dw/du."""
        y, dy = self._y(u)
        x = self.S * np.sinh(y / self.S)
        w, dw = self._w(x)
        return w, dw * np.cosh(y / self.S) * dy

    def nodes(self, h: float, X: float, u0: float = 0.0):
        """Nodes u0 + j*h whose abscissa |x| <= X: (u, w, h*dw/du)."""
        y_end = self.S * math.asinh(X / self.S)
        u_end = y_end + self.b  # y(u) >= u - b for u > 0
        j = np.arange(math.ceil((-u_end - u0) / h), math.floor((u_end - u0) / h) + 1)
        u = u0 + h * j
        w, dw = self.at(u)
        keep = np.abs(w.real) <= X
        return u[keep], w[keep], h * dw[keep]

    def locate(self, z: np.ndarray):
        """Preimage u* of points z near the line, and a mask of the good ones.

        The x layer is inverted in closed form: with E = e^{2x} and
        Z = e^{2(z - i*alpha)}, w(x) = z is the quadratic
        (1 + ir)E^2 + (1 - ir)(1 - Z)E - (1 + ir)Z = 0.  Of its two roots,
        those that solve w(x) = z with the principal arctan, the one nearer
        the real axis is the preimage on the line's own sheet.  The sinh
        layer inverts in closed form, the tanh layer by Newton from the real
        axis.  A root is good when it reproduces z below the poles of tanh,
        |Im x*| < pi/2: off Re x = 0 the vertical path to it crosses no cut
        of the arctan.  A last Newton step on the whole map polishes it, and
        a root that failed the test before that step is judged after it.
        """
        # A Newton that diverges overflows; the mask below rejects its root.
        with np.errstate(all="ignore"):
            ir = 1j * self.r
            Z = np.exp(2.0 * (z - 1j * self.alpha))
            B = (1.0 - ir) * (1.0 - Z)
            root = np.sqrt(B * B + 4.0 * (1.0 + ir) ** 2 * Z)
            root = np.where((np.conj(B) * root).real >= 0.0, root, -root)
            q = -0.5 * (B + root)
            x1 = 0.5 * np.log(q / (1.0 + ir))
            x2 = 0.5 * np.log(-(1.0 + ir) * Z / q)
            tol = 1e-9 * (1.0 + np.abs(z))
            good1 = np.abs(_gamma_points(self.omega, self.alpha, x1) - z) < tol
            good2 = np.abs(_gamma_points(self.omega, self.alpha, x2) - z) < tol
            x = np.where(good2 & ~(good1 & (np.abs(x1.imag) <= np.abs(x2.imag))), x2, x1)
            y = self.S * np.arcsinh(x / self.S)
            u = y
            if self.b:
                u = y.real + 0j
                for _ in range(6):
                    yy, dy = self._y(u)
                    u = u - (yy - y) / dy
            w, dw = self.at(u)
            ok = (np.abs(x.imag) < 0.5 * math.pi) & (np.abs(w - z) < tol)
            u = u - (w - z) / dw
            # In the bend at small tilt the y layer's Newton converges slowly:
            # test a rejected root again after the polish, and only those.
            redo = np.flatnonzero(~ok)
            if redo.size:
                x = self.S * np.sinh(self._y(u[redo])[0] / self.S)
                ok[redo] = ((np.abs(x.imag) < 0.5 * math.pi)
                            & (np.abs(self._w(x)[0] - z[redo]) < tol[redo]))
            return u, ok


def default_b(p: ProblemParams) -> float:
    """Vertical-link abscissa: the loops need b >= 2|Re p1|; add margin.

    The margin is kept small on purpose: the exponential factor reaches
    magnitude e^{rho*cosh(b)} on parts of the vertical links, so every bit
    of b costs accuracy at large rho through cancellation.
    """
    b1 = abs(branch_point(p, p.k1).p1.real)
    b2 = abs(branch_point(p, p.k2).p1.real)
    return max(2.0 * b1, 2.0 * b2, 0.25) + 0.25


def _tail_bound(omega: complex, phi: float, Wmax: float, rho: float) -> float:
    """Bound on the integrand beyond |Re w| = Wmax: the decay of the
    exponential factor times the linear growth of the kernel."""
    kernel_growth = abs(math.sin(phi)) / phi * (Wmax + TWO_PI) + 3.0
    return math.exp(-decay_rate(omega) * rho * math.cosh(Wmax)) * kernel_growth


def _certify_tail(
    p: ProblemParams, Wmax: float, rho_min: float, tol: float
) -> None:
    """Check the truncation bound (kernel growth included) at the cut point."""
    bound = _tail_bound(p.omega, p.phi, Wmax, rho_min)
    if bound > tol:
        raise GeometryError(
            f"tail bound {bound:.3e} exceeds tol {tol:.3e} at Wmax={Wmax:.3f} "
            f"(rho_min={rho_min:g})"
        )


def _check_pole_distance(p: ProblemParams, w: np.ndarray, k: float) -> None:
    """Distance from nodes to the moving kernel pole -p1+pi*i-i*theta.

    As theta sweeps the wedge the pole traces a vertical segment; every
    contour node must clear it by pole_clearance.
    """
    bp = branch_point(p, k)
    x = -bp.p1.real
    y_hi = -bp.p1.imag + PI - p.theta_min
    y_lo = -bp.p1.imag + PI - p.theta_max
    dx = np.abs(w.real - x)
    dy = np.maximum(np.maximum(y_lo - w.imag, w.imag - y_hi), 0.0)
    dist = np.hypot(dx, dy)
    dmin = float(np.min(dist))
    if dmin < p.tol.pole_clearance:
        j = int(np.argmin(dist))
        raise PoleError(
            f"contour node {w[j]:.6g} within {dmin:.3e} of the moving pole "
            f"segment at Re w = {x:.6g}",
            nearest=complex(x, np.clip(w[j].imag, y_lo, y_hi)),
            distance=dmin,
        )


def sommerfeld_double_loop(p: ProblemParams, rho_min: float = 0.25) -> ContourPolyline:
    """The double-loop contour C(omega) = C1 u C2.

    C2: along Gamma_{-5pi/2} from -Wmax to -b, up the vertical Re w = -b,
    back along Gamma_{-pi/2} to -Wmax, with b = default_b(p).  C1 is the
    pointwise image -C2 - 3pi*i, i.e. the mirror loop at Re w >= b between
    the same two curve levels, traversed so that both far tails decay.
    """
    validate_params(p)
    tol = p.tol.quad_rel
    b = default_b(p)
    Wmax = max(truncation_cutoff(p.omega, rho_min, tol * 1e-2), b + 1.0)
    _certify_tail(p, Wmax, rho_min, tol)

    def build(n_tail, n_vert, label, refiner=None):
        a_lo, a_hi = -5.0 * PI / 2.0, -PI / 2.0
        y_b = gamma_height(p.omega, -b)
        tail = _tail_breaks(-Wmax, -b, n_tail)
        # Lower tail, vertical link, upper tail.
        w2, dw2 = (np.concatenate(parts) for parts in zip(
            _gamma_piece(p.omega, a_lo, tail),
            _vertical_piece(-b, y_b + a_lo, y_b + a_hi, n_vert),
            _gamma_piece(p.omega, a_hi, tail[::-1]),
        ))
        # C1 = -C2 - 3pi*i, same node order (tangents flip sign with the map).
        return ContourPolyline(
            np.concatenate([w2, -w2 - 3j * PI]), np.concatenate([dw2, -dw2]),
            label, np.arange(w2.size, 2 * w2.size), refiner=refiner)

    cont = build(16, 8, "sommerfeld", lambda: build(32, 16, "sommerfeld_fine"))
    _check_pole_distance(p, cont.w, p.k1)
    _check_pole_distance(p, cont.w, p.k2)
    return cont


def decomposition_contour(p: ProblemParams, rho_min: float = 0.25) -> ContourPolyline:
    """Gamma_{-5pi/2} traversed left-to-right then Gamma_{-pi/2} right-to-left.

    Both lines carry the trapezoid nodes u0 + j*h of _Line, h = _Line.step,
    laid to one step in u past the certified cutoff Wmax, so that the last
    node on either side reaches it; refined() halves h.  The moving kernel
    pole -p1 + pi*i - i*theta crosses the upper line at -p1 - pi*i/2 when theta =
    3pi/2.  u0 keeps that crossing, for k1 and for k2, at least h/8 in u
    from every node of both grids, and upper_grid hands (line, h, u0) to
    the pole correction of solver.u1_field.
    """
    validate_params(p)
    tol = p.tol.quad_rel
    Wmax = max(truncation_cutoff(p.omega, rho_min, tol * 1e-2), 3.0)
    _certify_tail(p, Wmax, rho_min, tol)
    upper = _Line(p.omega, -PI / 2.0)
    h = upper.step
    # Preimages of the crossings -p1 - pi*i/2 in units of h/2; u0 is the
    # residue mod h/2 farthest from both, at least h/8 from each.
    crossings = np.array([-branch_point(p, k).p1 - 0.5j * PI for k in (p.k1, p.k2)])
    t = (upper.locate(crossings)[0].real / (0.5 * h)).tolist()
    d = (t[1] - t[0]) % 1.0
    u0 = 0.5 * h * ((t[0] + 0.5 * d + (0.0 if d > 0.5 else 0.5)) % 1.0)

    # y(u) = S*asinh(x/S) grows by at most h per step in u, so a cut at
    # this abscissa keeps a node at |x| >= Wmax on either side.
    X = _Line.S * math.sinh(math.asinh(Wmax / _Line.S) + h / _Line.S)

    def build(step, label, refiner=None):
        _, w, dw = upper.nodes(step, X, u0)
        n = w.size
        # Gamma_{-5pi/2} is Gamma_{-pi/2} moved down by 2pi*i.
        cont = ContourPolyline(np.concatenate([w - 2j * PI, w[::-1]]),
                               np.concatenate([dw, -dw[::-1]]), label,
                               np.arange(2 * n - 1, n - 1, -1), refiner=refiner)
        cont.upper_grid = (upper, step, u0)
        return cont

    return build(h, "decomposition", lambda: build(0.5 * h, "decomposition_fine"))
