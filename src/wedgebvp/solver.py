"""Field evaluation via the Sommerfeld integral.

The solution of the Dirichlet problem in the wedge is

    u1(rho, theta) = (1/(4*pi*sin Phi)) Int_C e^{-omega*rho*sinh w}
                     v1(w + i*theta) dw

with the kernel v1 built by the kernel module.  The second field u2 is the
same integral at the reflected angle theta1 = -theta + 4*pi - Phi with the
engine built for k2, and the total field is U = u1 + u2.

u1_field integrates on either contour of the contour module (which lists
their users) and checks the value by node doubling.  On the double loop C
its vertical links' e^{rho*cosh b} cancellation caps rho.  The two Gamma
lines of decomposition_contour have no links: opening C up onto them picks
up the residue of the moving kernel pole -p1 + pi*i - i*theta, which
crosses the upper line at theta = 3*pi/2, so u1 = u_d + share * u_p with
the plane wave u_p = e^{-omega*rho*sinh(p1 + i*theta)}.  On the ray u_d is
a principal value whose one-sided limits differ by -+ u_p/2
(Sokhotski-Plemelj), so u1 stays continuous.  What the trapezoid sum misses
of the pole, on either side of the upper line or on it, is added in closed
form (contour._missed_pole).  u1_decomposed is the unchecked sum there.

Truncation of every contour tail is certified through the bound
|e^{-omega*rho*sinh w}| <= e^{-C*rho*cosh(Re w)} times the linear growth of
the kernel, never assumed.

On a fixed contour the factor e^{-omega*rho*sinh w} depends on omega and rho
only, the kernel on (engine, theta) only.  The second half of each contour
is the first moved by a period of sinh w (ContourPolyline.mirror), so
_column keeps one record per (engine, theta): v1*dw folded onto the first
half, with the moving-pole and plane-wave terms (none on the double loop),
and the factor is taken on that half only: the contour's exp_factor slot
keeps the last one, which u1 and u2 of one point share.  A value is one dot
product over the half.  grid_eval evaluates
u1_field or U_total at each of its points with rho outer, so the slot serves
every theta of a radius: a grid takes the factor once per (contour, rho).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .contour import ContourPolyline, _missed_pole, _tail_bound, decomposition_contour
from .core import PI, TWO_PI, PolarPoint, ProblemParams, theta_reflect
from .errors import GeometryError, QuadratureError, RayError, FitError, WedgeError
from .kernel import _NEAR_STEPS, KernelEngine


@dataclass(frozen=True)
class FieldSample:
    point: PolarPoint
    value: complex
    method: str  # "FullContour" | "Decomposed" | "error:<class>"
    est_quad_error: float
    message: str = ""  # the exception message of an "error:<class>" sample


@dataclass(frozen=True)
class GridSpec:
    rho_min: float
    rho_max: float
    n_rho: int
    theta_min: float
    theta_max: float
    n_theta: int

    def rho_values(self) -> np.ndarray:
        return np.linspace(self.rho_min, self.rho_max, self.n_rho)

    def theta_values(self) -> np.ndarray:
        return np.linspace(self.theta_min, self.theta_max, self.n_theta)


def _column(contour: ContourPolyline, engine: KernelEngine, theta: float) -> tuple:
    """The record (K, pole, share) of (engine, theta), cached on the contour.

    K is v1*dw on the theta-shifted nodes, folded onto the first half of the
    nodes (ContourPolyline.mirror).  On the Gamma lines pole is (w*, u*, u0,
    h, side) of the moving pole w* for _missed_pole, or () where the kernel's
    near test (_Line.reach, _NEAR_STEPS) or sheet test (side, the sign of
    Im u*; 0 on the ray) rejects it, and share is plane_share(theta).  On the
    double loop they are () and 0.

    The key holds the engine itself, not its id(): an id can be reused by a
    later engine once this one is freed.  The cache thus keeps each engine
    alive for as long as the contour.
    """
    key = (engine, round(float(theta), 15))
    rec = contour.cache.get(key)
    if rec is None:
        f = engine.v1_hat(contour.w + 1j * theta) * contour.dw
        pole, share = (), 0.0
        if contour.upper_grid is not None:
            line, h, u0 = contour.upper_grid
            w_s = _moving_pole(engine, theta)
            offset = 1.5 * PI - theta
            share = plane_share(theta)
            if (abs(w_s.real) < contour.Wmax
                    and abs(offset) < line.reach(w_s.real, _NEAR_STEPS * h)):
                side = 0.0 if share == 0.5 else math.copysign(1.0, offset)
                u_s, ok = line.locate(np.array([w_s]))
                # A root on the wrong side of the real u axis lies on another sheet.
                if ok[0] and side * u_s[0].imag > -1e-12:
                    pole = (w_s, complex(u_s[0]), u0, h, side)
        rec = contour.cache[key] = (f[:contour.mirror.size] + f[contour.mirror], pole, share)
    return rec


def _certify_rho(engine: KernelEngine, contour: ContourPolyline, rho: float) -> None:
    Wmax = contour.Wmax
    bound = _tail_bound(engine.omega, engine.phi, Wmax, rho)
    if bound > 100.0 * engine.tol.quad_rel:
        raise GeometryError(
            f"contour {contour.label!r} truncated at Wmax={Wmax:.3f} does not "
            f"certify rho={rho:g} (tail bound {bound:.3e}); rebuild with a "
            "smaller rho_min"
        )


def _moving_pole(engine: KernelEngine, theta: float) -> complex:
    """The unique kernel pole in w-space for the shift theta."""
    return -engine.branch.p1 + 1j * PI - 1j * theta


def plane_share(theta: float) -> float:
    """Share of the plane wave u_p in u1 = u_d + share * u_p.

    0 before the ray theta = 3*pi/2, 1 beyond it, and 1/2 on the ray itself,
    where the diffracted part is a principal value.
    """
    if abs(theta - 1.5 * PI) < 1e-12:
        return 0.5
    return 1.0 if theta > 1.5 * PI else 0.0


def u_plane(pt: PolarPoint, engine: KernelEngine) -> complex:
    """The plane wave e^{-omega*rho*sinh(p1 + i*theta)}."""
    return cmath.exp(-engine.omega * pt.rho * cmath.sinh(engine.branch.p1 + 1j * pt.theta))


def _integrate(engine: KernelEngine, contour: ContourPolyline, pt: PolarPoint) -> complex:
    """u1 by the folded quadrature sum on one contour, plus what the sum
    misses of the moving pole w* and plane_share(theta) * u_p (_column)."""
    K, pole, share = _column(contour, engine, pt.theta)
    total = complex(np.dot(contour.exp_factor(engine.omega, pt.rho), K))
    if pole:
        w_s, *grid = pole
        res = cmath.exp(-engine.omega * pt.rho * cmath.sinh(w_s)) * 2j * math.sin(engine.phi)
        # The upper line runs right to left, against u.
        total -= _missed_pole(res, *grid)
    total /= 4.0 * PI * math.sin(engine.phi)
    return total + share * u_plane(pt, engine) if share else total


def u1_field(
    pt: PolarPoint,
    engine: KernelEngine,
    contour: ContourPolyline,
    check: bool = True,
) -> FieldSample:
    """u1 on the double loop or the two Gamma lines, with error estimate by
    refinement.  On the double loop a moving pole within pole_clearance of a
    node raises PoleError from the kernel sweep; on the lines _integrate
    corrects for it."""
    pt.require_in_wedge(engine.params)
    _certify_rho(engine, contour, pt.rho)
    val = _integrate(engine, contour, pt)
    est = 0.0
    if check:
        fine = _integrate(engine, contour.refined(), pt)
        est = abs(val - fine)
        val = fine
        # Written so that a NaN estimate fails too.
        if not est <= engine.tol.id_tol:
            raise QuadratureError(
                f"node-doubling disagreement {est:.3e} exceeds id_tol at "
                f"(rho={pt.rho:g}, theta={pt.theta:g})"
            )
    if not cmath.isfinite(val):
        raise QuadratureError(
            f"non-finite field value {val} at (rho={pt.rho:g}, "
            f"theta={pt.theta:g}) on contour {contour.label!r}"
        )
    return FieldSample(pt, val, "FullContour", est)


def u1_decomposed(
    pt: PolarPoint,
    engine: KernelEngine,
    dec_contour: ContourPolyline,
    pv: bool = False,
) -> FieldSample:
    """u1_field's unchecked coarse sum on the decomposition contour, u_d plus
    the plane-wave share; on the ray u_d is a principal value, taken only
    with pv=True."""
    if plane_share(pt.theta) == 0.5 and not pv:
        raise RayError("theta = 3*pi/2 needs pv=True (or use the checked u1_field)")
    sample = u1_field(pt, engine, dec_contour, check=False)
    return FieldSample(pt, sample.value, "Decomposed", float("nan"))


def u2_field(
    pt: PolarPoint,
    engine2: KernelEngine,
    contour: ContourPolyline,
    check: bool = True,
) -> FieldSample:
    """u2: the u1 integral at the reflected angle, with the k2 engine."""
    theta1 = theta_reflect(pt.theta, engine2.phi)
    mirrored = PolarPoint(pt.rho, theta1)
    sample = u1_field(mirrored, engine2, contour, check=check)
    return FieldSample(pt, sample.value, sample.method, sample.est_quad_error)


def U_total(
    pt: PolarPoint,
    engine1: KernelEngine,
    engine2: KernelEngine,
    contour: ContourPolyline,
    check: bool = True,
) -> FieldSample:
    s1 = u1_field(pt, engine1, contour, check=check)
    s2 = u2_field(pt, engine2, contour, check=check)
    return FieldSample(
        pt, s1.value + s2.value, "FullContour",
        s1.est_quad_error + s2.est_quad_error,
    )


def grid_eval(
    spec: GridSpec,
    engine1: KernelEngine,
    contour: ContourPolyline,
    engine2: Optional[KernelEngine] = None,
    check: bool = True,
) -> List[FieldSample]:
    """Evaluate u1 (or U when engine2 is given) on the grid.

    Samples are returned row-major: one row per theta, rho varying fastest.
    A point that raises a WedgeError becomes an "error:<class>" sample that
    keeps the exception message; any other exception propagates.
    Every sample is u1_field or U_total at its point.  The loop runs rho
    outer, so the contour's exp_factor slot serves all thetas of a radius,
    and the kernel columns come from the contour cache.
    """
    thetas = spec.theta_values()
    rows: List[List[FieldSample]] = [[] for _ in thetas]
    for rho in spec.rho_values():
        for row, theta in zip(rows, thetas):
            pt = PolarPoint(float(rho), float(theta))
            try:
                if engine2 is None:
                    row.append(u1_field(pt, engine1, contour, check=check))
                else:
                    row.append(U_total(pt, engine1, engine2, contour, check=check))
            except WedgeError as exc:  # aggregate, do not abort the batch
                row.append(FieldSample(
                    pt, complex("nan"), f"error:{exc.__class__.__name__}",
                    float("inf"), str(exc),
                ))
    return [s for row in rows for s in row]


def field_csv(samples: Sequence[FieldSample], path, params: ProblemParams, timestamp: str = "") -> None:
    """CSV export with a JSON-ish metadata header line."""
    import json

    meta = {
        "omega": [params.omega.real, params.omega.imag],
        "phi": params.phi,
        "k1": params.k1,
        "k2": params.k2,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# timestamp: {timestamp}\n")
        fh.write(f"# params: {json.dumps(meta, sort_keys=True)}\n")
        fh.write("rho,theta,re_u,im_u,abs_u,method,est_err\n")
        for s in samples:
            fh.write(
                f"{s.point.rho:.17g},{s.point.theta:.17g},{s.value.real:.17g},"
                f"{s.value.imag:.17g},{abs(s.value):.17g},{s.method},"
                f"{s.est_quad_error:.17g}\n"
            )


def origin_probe(engine: KernelEngine, theta: float):
    """Near-origin behavior: u -> C(theta), |grad u| ~ |C1(theta)|/rho.

    Returns (C_theta, grad_scaling, detail) where grad_scaling is the fitted
    log-log slope of |grad u1| against rho = 1e-2, 1e-3, 1e-4 (expected -1)
    and detail carries the ladder values, unchecked u1 on the Gamma lines.
    """
    ladder = [1e-2, 1e-3, 1e-4]
    p = engine.params
    cont = decomposition_contour(p, rho_min=0.5 * ladder[-1])

    def at(xx, yy):
        rr = math.hypot(xx, yy)
        tt = math.atan2(yy, xx) % TWO_PI
        if tt < p.theta_min:
            tt += TWO_PI
        return u1_field(PolarPoint(rr, tt), engine, cont, check=False).value

    vals = []
    grads = []
    for rho in ladder:
        vals.append(u1_field(PolarPoint(rho, theta), engine, cont, check=False).value)
        h = min(1e-4 * max(rho, 1.0), 0.3 * rho)
        x = rho * math.cos(theta)
        y = rho * math.sin(theta)
        ux = (at(x + h, y) - at(x - h, y)) / (2.0 * h)
        uy = (at(x, y + h) - at(x, y - h)) / (2.0 * h)
        grads.append(math.hypot(abs(ux), abs(uy)))
    logs_r = np.log(np.asarray(ladder))
    logs_g = np.log(np.asarray(grads))
    coef, res = np.polyfit(logs_r, logs_g, 1, full=True)[:2]
    slope = float(coef[0])
    rms = math.sqrt(float(res[0]) / len(ladder)) if len(res) else 0.0
    if rms > 0.2:
        raise FitError(f"log-log gradient fit residual {rms:.3f} > 0.2")
    detail = {"u_values": vals, "grad_values": grads, "ladder": ladder}
    return vals[-1], slope, detail
