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

The exponential factor e^{-omega*rho*sinh w} depends on the contour node,
omega and rho only: not on theta, and not on k.  u2 integrates it against
the k2 kernel at the reflected angle, so u1 and u2 at one point share it,
and each contour keeps the factor it made last (ContourPolyline.exp_factor).
Sharing is exact: the factor is the same array of bits, built by the same
expression from the same sinh(w), whichever field asks for it first.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .contour import ContourPolyline, _missed_pole, _tail_bound, sommerfeld_double_loop
from .core import PI, TWO_PI, PolarPoint, ProblemParams, theta_reflect
from .errors import DomainError, GeometryError, PoleError, QuadratureError, RayError, FitError, WedgeError
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
    log_rho: bool = False

    def rho_values(self) -> np.ndarray:
        if self.log_rho:
            return np.geomspace(self.rho_min, self.rho_max, self.n_rho)
        return np.linspace(self.rho_min, self.rho_max, self.n_rho)

    def theta_values(self) -> np.ndarray:
        return np.linspace(self.theta_min, self.theta_max, self.n_theta)


def _kernel_on(contour: ContourPolyline, engine: KernelEngine, theta: float) -> np.ndarray:
    """v1 along the theta-shifted contour, cached per (engine, theta).

    The key holds the engine itself, not its id(): an id can be reused by a
    later engine once this one is freed.  The cache thus keeps each engine
    alive for as long as the contour.
    """
    key = (engine, round(float(theta), 15))
    vals = contour.cache.get(key)
    if vals is None:
        vals = engine.v1_hat(contour.w + 1j * theta)
        contour.cache[key] = vals
    return vals


def _pole_distance(contour: ContourPolyline, engine: KernelEngine, theta: float) -> float:
    """Distance from the contour to the moving pole, cached beside the kernel.

    It depends on (engine, theta) only, so the field at every rho of a
    theta row reuses it.
    """
    key = ("pole_distance", engine, round(float(theta), 15))
    dist = contour.cache.get(key)
    if dist is None:
        dist = float(np.min(np.abs(contour.w - _moving_pole(engine, theta))))
        contour.cache[key] = dist
    return dist


def _pole_preimage(contour: ContourPolyline, engine: KernelEngine, theta: float) -> tuple:
    """(w*, u*, side) of the moving pole w*, 3pi/2 - theta above the upper
    line, cached; () if the kernel's near test (_Line.reach, _NEAR_STEPS) or
    sheet test (side, the sign of Im u*; 0 on the ray) rejects it."""
    key = ("pole_preimage", engine, round(float(theta), 15))
    found = contour.cache.get(key)
    if found is None:
        found = ()
        line, h, _ = contour.upper_grid
        pole = _moving_pole(engine, theta)
        offset = 1.5 * PI - theta
        if (abs(pole.real) < contour.Wmax
                and abs(offset) < line.reach(pole.real, _NEAR_STEPS * h)):
            side = 0.0 if plane_share(theta) == 0.5 else math.copysign(1.0, offset)
            u_s, ok = line.locate(np.array([pole]))
            # A root on the wrong side of the real u axis lies on another sheet.
            if ok[0] and side * u_s[0].imag > -1e-12:
                found = (pole, complex(u_s[0]), side)
        contour.cache[key] = found
    return found


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
    """u1 by the quadrature sum on one contour; on the Gamma lines plus the
    missed part of the moving pole w* and plane_share(theta) * u_p."""
    kern = _kernel_on(contour, engine, pt.theta)
    expf = contour.exp_factor(engine.omega, pt.rho)
    total = contour.integrate(expf * kern)
    scale = 4.0 * PI * math.sin(engine.phi)
    if contour.upper_grid is None:
        return total / scale
    found = _pole_preimage(contour, engine, pt.theta)
    if found:
        (pole, u_s, side), (_, h, u0) = found, contour.upper_grid
        res = cmath.exp(-engine.omega * pt.rho * cmath.sinh(pole)) * 2j * math.sin(engine.phi)
        # The upper line runs right to left, against u.
        total -= _missed_pole(res, u_s, u0, h, side)
    share = plane_share(pt.theta)
    return total / scale + share * u_plane(pt, engine) if share else total / scale


def u1_field(
    pt: PolarPoint,
    engine: KernelEngine,
    contour: ContourPolyline,
    check: bool = True,
) -> FieldSample:
    """u1 on the double loop or the two Gamma lines, with error estimate by
    refinement.  On the double loop a moving pole within pole_clearance of a
    node raises PoleError; on the lines _integrate corrects for it."""
    pt.require_in_wedge(engine.params)
    _certify_rho(engine, contour, pt.rho)
    if contour.upper_grid is None:
        dist = _pole_distance(contour, engine, pt.theta)
        if dist < engine.tol.pole_clearance:
            pole = _moving_pole(engine, pt.theta)
            raise PoleError(
                f"moving pole {pole:.6g} within {dist:.3e} of contour",
                nearest=pole, distance=dist,
            )
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
    Rows are independent (kernel values are shared through the contour cache)
    and may be computed in parallel; WEDGE_THREADS caps the worker count.
    The assembly order is deterministic either way.
    """
    thetas = spec.theta_values()
    rhos = spec.rho_values()

    def row(theta: float) -> List[FieldSample]:
        out = []
        for rho in rhos:
            pt = PolarPoint(float(rho), float(theta))
            try:
                if engine2 is None:
                    out.append(u1_field(pt, engine1, contour, check=check))
                else:
                    out.append(U_total(pt, engine1, engine2, contour, check=check))
            except WedgeError as exc:  # aggregate, do not abort the batch
                out.append(FieldSample(
                    pt, complex("nan"), f"error:{exc.__class__.__name__}",
                    float("inf"), str(exc),
                ))
        return out

    n_threads = int(os.environ.get("WEDGE_THREADS", "1") or "1")
    if n_threads > 1:
        # Nothing is warmed beforehand: rows run concurrently and fill the
        # contour's caches (kernel sweeps, the refined contour) on first
        # use.  Two threads that race on one entry both compute it, with
        # identical results, and the last write wins.
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            rows = list(pool.map(row, thetas))
    else:
        rows = [row(th) for th in thetas]
    return [s for r in rows for s in r]


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


def origin_probe(
    engine: KernelEngine,
    theta: float,
    rho_ladder: Sequence[float] = (1e-2, 1e-3, 1e-4),
    check: bool = False,
):
    """Near-origin behavior: u -> C(theta), |grad u| ~ |C1(theta)|/rho.

    Returns (C_theta, grad_scaling, detail) where grad_scaling is the fitted
    log-log slope of |grad u1| against rho (expected -1) and detail carries
    the ladder values.
    """
    ladder = list(rho_ladder)
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise DomainError("rho_ladder must be strictly decreasing")
    p = engine.params
    vals = []
    grads = []
    for rho in ladder:
        cont = sommerfeld_double_loop(p, rho_min=rho * 0.5)
        pt = PolarPoint(rho, theta)
        vals.append(u1_field(pt, engine, cont, check=check).value)
        h = min(1e-4 * max(rho, 1.0), 0.3 * rho)
        x = rho * math.cos(theta)
        y = rho * math.sin(theta)

        def at(xx, yy):
            rr = math.hypot(xx, yy)
            tt = math.atan2(yy, xx) % TWO_PI
            if tt < p.theta_min:
                tt += TWO_PI
            return u1_field(PolarPoint(rr, tt), engine, cont, check=check).value

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
