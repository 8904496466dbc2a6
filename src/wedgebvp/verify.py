"""Numerical certification of the kernel and field identities.

Every structural fact used by the construction is re-checked numerically and
emitted as a machine-readable report: residues of the kernel at its
prescribed poles, the difference equation, h1 automorphy, boundary values of
the field, the Helmholtz residual, asymptotic behavior of the kernel at
infinity, the plane/diffracted decomposition and its continuity across
theta = 3*pi/2, and independence of the field from admissible contour
deformations.

Sample points are drawn from a seeded generator over a stated rectangle with
pole neighborhoods removed, so every report is reproducible bit-exactly for
a fixed seed.

The asymptotics check certifies that the remainder of v11 after removing its
linear growth decays at least as fast as e^{-0.9*pi*|Re w|/(2*Phi)}, a
deliberately weak one-sided bound; the fitted rate is recorded in the
context for inspection.  The exact rate is -pi/Phi, twice as fast, as the
difference equation forces (docs/decay_exponent.md).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Sequence

import numpy as np

from .contour import decomposition_contour, sommerfeld_double_loop
from .core import PI, TWO_PI, PolarPoint, ProblemParams
from .errors import ConvergenceError
from .kernel import KernelEngine, _lattice_distance, build_engine
from . import solver

DEFAULT_SEED = 20260825


@dataclass
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    context: Dict[str, object] = field(default_factory=dict)

    @staticmethod
    def make(name: str, measured: float, tolerance: float, context=None) -> "CheckResult":
        return CheckResult(
            name, float(measured), float(tolerance),
            bool(measured <= tolerance), context or {},
        )


@dataclass
class VerificationReport:
    params: Dict[str, object]
    checks: List[CheckResult]
    overall: bool
    kernel: Dict[str, object] = field(default_factory=dict)  # engine1.branch_json()

    def as_dict(self) -> Dict[str, object]:
        return {
            "params": self.params,
            "kernel": self.kernel,
            "checks": [
                {
                    "name": c.name,
                    "measured": c.measured,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "context": _jsonable(c.context),
                }
                for c in self.checks
            ],
            "overall": self.overall,
        }

    def to_json(self, timestamp: str = "") -> str:
        payload = dict(self.as_dict())
        payload["timestamp"] = timestamp
        # indent=1 keeps the timestamp isolated to a single line of output.
        return json.dumps(payload, indent=1, sort_keys=True)

    def table(self) -> str:
        lines = [f"{'check':40s} {'measured':>12s} {'tolerance':>12s}  status"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(
                f"{c.name:40s} {c.measured:12.3e} {c.tolerance:12.3e}  {status}"
            )
        lines.append(f"overall: {'pass' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def _jsonable(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def residue_at(f: Callable, w0: complex, r: float = 0.1) -> complex:
    """Residue of f at w0 by the trapezoidal contour integral.

    The trapezoid rule converges geometrically on the circle; the result with
    N=256 nodes is accepted only if doubling N moves it by less than 1e-10.
    """
    def ring(n):
        th = TWO_PI * np.arange(n) / n
        z = w0 + r * np.exp(1j * th)
        return complex(np.mean(np.asarray(f(z)) * (z - w0)))

    a = ring(256)
    b = ring(512)
    if abs(a - b) > 1e-10:
        raise ConvergenceError(
            f"residue at {w0:.6g} not converged: N doubling moved it by "
            f"{abs(a - b):.3e}"
        )
    return b


def _safe_radius(w0: complex, others: Sequence[complex], r: float = 0.1) -> float:
    """Halve the circle radius until every other singularity is beyond 2r."""
    for o in others:
        d = abs(o - w0)
        if d == 0.0:
            continue
        while d < 2.0 * r:
            r *= 0.5
    return r


def _sample_points(
    engine: KernelEngine, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Seeded sample points in the rectangle |Re w|<=3, |Im w|<=1.5*Phi.

    Points within the clearance of any kernel pole (of v11 and v1, and of
    the whole 2*pi*i lattice of G2 poles, on either side of the automorphy
    and of the 2i*Phi shift used by the difference equation) are rejected
    and redrawn.
    """
    phi = engine.phi
    clearance = max(engine.tol.pole_clearance, 0.05)
    poles = np.asarray(list(engine.pole_list().values()), dtype=complex)
    g2_anchors = engine._g2_anchors()
    shifts = np.array([0.0, 2j * phi, -2j * phi, 1j * PI])
    out = np.empty(n, dtype=complex)
    have = 0
    while have < n:
        # Im w on the grid 2^-40 keeps w + 2i*Phi, and so the difference
        # equation's shifted point, free of rounding; the move is <= 5e-13.
        re = rng.uniform(-3.0, 3.0, n)
        im = np.ldexp(np.round(np.ldexp(rng.uniform(-1.5 * phi, 1.5 * phi, n), 40)), -40)
        cand = re + 1j * im
        images = np.concatenate([cand[:, None] + shifts,
                                 -cand[:, None] + 1j * PI + shifts[:3]], axis=1)
        d_g2, _ = _lattice_distance(images, g2_anchors, 2j * PI)
        d = np.minimum(np.abs(images[:, :, None] - poles).min(axis=(1, 2)),
                       d_g2.min(axis=1))
        kept = cand[d > clearance][:n - have]
        out[have:have + kept.size] = kept
        have += kept.size
    return out


def check_difference_equation(
    engine: KernelEngine, n_samples: int = 100, seed: int = DEFAULT_SEED
) -> CheckResult:
    rng = np.random.default_rng(seed)
    w = _sample_points(engine, n_samples, rng)
    res = engine.v11_hat(w) - engine.v11_hat(w + 2j * engine.phi) - engine.g2_hat(w)
    tol = 1e-12 if engine.kind == "Elementary" else engine.tol.id_tol
    measured = float(np.max(np.abs(res)))
    return CheckResult.make(
        "difference_equation", measured, tol,
        {"n_samples": n_samples, "seed": seed, "kind": engine.kind},
    )


def check_automorphy(
    engine: KernelEngine, n_samples: int = 100, seed: int = DEFAULT_SEED
) -> CheckResult:
    rng = np.random.default_rng(seed)
    w = _sample_points(engine, n_samples, rng)
    w = np.concatenate([w, [1j * PI / 2.0]])  # include the fixed point
    res = engine.v11_hat(-w + 1j * PI) - engine.v11_hat(w)
    tol = 1e-12 if engine.kind == "Elementary" else engine.tol.id_tol
    measured = float(np.max(np.abs(res)))
    return CheckResult.make(
        "automorphy", measured, tol,
        {"n_samples": n_samples, "seed": seed,
         "fixed_point_residual": float(np.abs(res[-1]))},
    )


def check_pole_portrait(engine: KernelEngine) -> CheckResult:
    """Residues of v11 and v1 at every prescribed pole and removable point."""
    p1 = engine.branch.p1
    r1 = engine.branch.r1
    r2 = engine.branch.r2
    phi = engine.phi
    q1 = engine.q1
    known = list(engine.pole_list().values()) + [
        p1, -p1, p1 + 1j * PI, p1 - 1j * PI, -p1 + 1j * PI, -p1 - 1j * PI,
        p1 + 2j * PI, p1 - 2j * PI, q1, -q1 + 1j * PI,
    ]
    cases = [
        ("v11@p1", engine.v11_hat, p1, r2),
        ("v11@-p1-pi*i", engine.v11_hat, -p1 - 1j * PI, r1),
        ("v11@-p1+pi*i", engine.v11_hat, -p1 + 1j * PI, -r2),
        ("v11@-p1", engine.v11_hat, -p1, 0.0),
        ("v1@-p1+pi*i", engine.v1_hat, -p1 + 1j * PI, 2j * math.sin(phi)),
        ("v1@p1", engine.v1_hat, p1, 0.0),
        ("v1@-p1-pi*i", engine.v1_hat, -p1 - 1j * PI, 0.0),
    ]
    if engine.kind == "Elementary":
        cases.append(("v11@p1-2pi*i", engine.v11_hat, p1 - 2j * PI, r2))
    elif phi > 1.5 * PI:
        cases.append(("v11@q1", engine.v11_hat, q1, 0.0))
        cases.append(("v11@-q1+pi*i", engine.v11_hat, -q1 + 1j * PI, 0.0))
    worst = 0.0
    ctx: Dict[str, object] = {"p1": p1, "r1": r1, "r2": r2}
    for name, f, w0, want in cases:
        r = _safe_radius(w0, known)
        got = residue_at(f, w0, r)
        err = abs(got - want)
        ctx[name] = got
        ctx[name + "_radius"] = r
        worst = max(worst, err)
    return CheckResult.make("pole_portrait", worst, engine.tol.id_tol, ctx)


def check_boundary(
    engine1: KernelEngine,
    engine2: KernelEngine,
    contour,
    rho_samples: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 4.0),
) -> CheckResult:
    """Boundary values of u1 and of the total field on both wedge sides."""
    p = engine1.params
    worst = 0.0
    ctx: Dict[str, object] = {"rho_samples": list(rho_samples)}
    for rho in rho_samples:
        top = PolarPoint(rho, p.theta_max)
        bot = PolarPoint(rho, p.theta_min)
        u1t = solver.u1_field(top, engine1, contour).value
        u1b = solver.u1_field(bot, engine1, contour).value
        Ut = solver.U_total(top, engine1, engine2, contour).value
        Ub = solver.U_total(bot, engine1, engine2, contour).value
        f1 = cmath.exp(-1j * p.k1 * rho)
        f2 = cmath.exp(-1j * p.k2 * rho)
        worst = max(
            worst,
            abs(u1t - f1), abs(u1b),
            abs(Ut - f1), abs(Ub - f2),
        )
    return CheckResult.make("boundary", worst, engine1.tol.id_tol, ctx)


def check_helmholtz(
    engine: KernelEngine,
    contour,
    points: Sequence[PolarPoint] = (),
    h: float = 3e-3,
) -> CheckResult:
    """Relative residual of (Laplacian + omega^2) u, polar 5-point stencil,
    with u the refined contour's quadrature sum (on the Gamma lines: without
    plane wave and pole correction).

    The angular neighbors at theta +- h/rho shift the nodes by -+ i*h/rho,
    so all five stencil values reuse the kernel samples of theta.  Every
    mode e^{-omega*rho*sinh w} solves the equation exactly, so the residual
    measures the stencil truncation alone.
    """
    p = engine.params
    if not points:
        thetas = np.linspace(p.theta_min + 0.3, p.theta_max - 0.3, 5)
        points = [PolarPoint(rho, float(th)) for rho in (0.8, 1.6) for th in thetas]
    om2 = engine.omega ** 2
    prefac = 1.0 / (4.0 * PI * math.sin(engine.phi))
    fine = contour.refined()
    worst = 0.0
    for pt in points:
        rho, th = pt.rho, pt.theta
        ht = h / rho
        if solver._pole_distance(fine, engine, th) < 2.0 * ht:
            continue  # deformation corridor too narrow at this point
        kern = solver._kernel_on(fine, engine, th)

        def u(rr, delta=0.0):
            # w - 0j is w itself, so the unshifted values use the cached sinh.
            s = np.sinh(fine.w - 1j * delta) if delta else fine.sinh_w
            return prefac * fine.integrate(np.exp(-engine.omega * rr * s) * kern)

        u0, up, um = u(rho), u(rho + h), u(rho - h)
        urr = (up - 2.0 * u0 + um) / h ** 2
        ur = (up - um) / (2.0 * h)
        utt = (u(rho, ht) - 2.0 * u0 + u(rho, -ht)) / ht ** 2
        lap = urr + ur / rho + utt / rho ** 2
        rel = abs(lap + om2 * u0) / max(abs(om2 * u0), 1e-30)
        worst = max(worst, rel)
    return CheckResult.make(
        "helmholtz", worst, 1e-4, {"h": h, "n_points": len(points)}
    )


def check_asymptotics(engine: KernelEngine) -> CheckResult:
    """Linear growth, remainder decay rate and G2 tail limits of the kernel.

    Certifies decay at least e^{-0.9*pi*|Re w|/(2*Phi)} of the remainder
    after the linear term is removed; the fitted rate itself is recorded
    (the exact rate is -pi/Phi, see docs/decay_exponent.md).
    """
    phi = engine.phi
    W = np.linspace(6.0, 12.0, 13)
    slopes = {}
    worst = -np.inf
    for s in (1.0, -1.0):
        w = s * W + 0.3j
        lin = s * (math.sin(phi) / phi) * (w - 1j * PI / 2.0)
        resid = np.abs(engine.v11_hat(w) - lin)
        slope = float(np.polyfit(W, np.log(resid), 1)[0])
        slopes[f"slope_{'plus' if s > 0 else 'minus'}"] = slope
        worst = max(worst, slope + 0.9 * PI / (2.0 * phi))
    ctx: Dict[str, object] = dict(slopes)
    ctx["bound_rate"] = -0.9 * PI / (2.0 * phi)
    tail_dev = 0.0
    for s in (1.0, -1.0):
        got = engine.g2_hat(s * 12.0 + 0.4j)
        want = -s * 2j * math.sin(phi)
        tail_dev = max(tail_dev, abs(got - want))
        ctx[f"g2_tail_{'plus' if s > 0 else 'minus'}"] = got
    measured = max(worst, tail_dev - 1e-4)
    return CheckResult.make("asymptotics", measured, 0.0, ctx)


def check_decomposition(
    engine: KernelEngine,
    contour,
    dec_contour,
    rho: float = 1.0,
    delta: float = 1e-3,
) -> CheckResult:
    """Decomposed vs double-loop field, and continuity across theta=3pi/2.

    Continuity is taken on dec_contour, where the plane-wave share and the
    side of the pole correction switch.  For a jump J, D(d) = u1(3pi/2 + d)
    - u1(3pi/2 - d) = J + 2d*u1' + O(d^3): 2*D(delta/2) - D(delta) = J + O(d^3).
    """
    thetas = [1.5 * PI + d for d in (0.4, 0.05, -0.05, -0.4)]
    worst = 0.0
    for th in thetas:
        a = solver.u1_field(PolarPoint(rho, th), engine, contour).value
        b = solver.u1_decomposed(PolarPoint(rho, th), engine, dec_contour).value
        worst = max(worst, abs(a - b))
    u = [solver.u1_field(PolarPoint(rho, 1.5 * PI + d), engine, dec_contour).value
         for d in (delta, -delta, 0.5 * delta, -0.5 * delta)]
    jump = abs(2.0 * (u[2] - u[3]) - (u[0] - u[1]))
    ctx = {"continuity_jump": jump, "delta": delta}
    return CheckResult.make("decomposition", max(worst, jump), engine.tol.id_tol, ctx)


def check_contour_independence(
    engine: KernelEngine, n_points: int = 10, seed: int = DEFAULT_SEED
) -> CheckResult:
    """Field over the double loop vs the two Gamma lines, both built for the
    engine's own wavenumber (another would only widen the double loop)."""
    p = replace(engine.params, k1=engine.k, k2=engine.k)
    rng = np.random.default_rng(seed + 1)
    curved = sommerfeld_double_loop(p, rho_min=0.4)
    lines = decomposition_contour(p, rho_min=0.4)
    rhos = rng.uniform(0.5, 2.0, n_points)
    thetas = rng.uniform(p.theta_min + 0.05, p.theta_max - 0.05, n_points)
    worst = 0.0
    for rho, th in zip(rhos, thetas):
        pt = PolarPoint(float(rho), float(th))
        a = solver.u1_field(pt, engine, curved).value
        b = solver.u1_field(pt, engine, lines).value
        worst = max(worst, abs(a - b))
    return CheckResult.make(
        "contour_independence", worst, engine.tol.id_tol,
        {"n_points": n_points, "seed": seed + 1},
    )


def run_full_suite(
    params: ProblemParams, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """Build engines and contours and run every check; never raises."""
    checks: List[CheckResult] = []

    def guarded(fn, name):
        try:
            checks.append(fn())
        except Exception as exc:
            checks.append(CheckResult(
                name, float("inf"), 0.0, False,
                {"error": f"{exc.__class__.__name__}: {exc}"},
            ))

    try:
        engine1 = build_engine(params, params.k1)
        engine2 = build_engine(params, params.k2)
        contour = sommerfeld_double_loop(params, rho_min=0.2)
        dec = decomposition_contour(params, rho_min=0.2)
    except Exception as exc:
        checks.append(CheckResult(
            "setup", float("inf"), 0.0, False,
            {"error": f"{exc.__class__.__name__}: {exc}"},
        ))
        return VerificationReport(_params_echo(params, seed), checks, False)

    guarded(lambda: check_difference_equation(engine1, 100, seed), "difference_equation")
    guarded(lambda: check_automorphy(engine1, 100, seed), "automorphy")
    guarded(lambda: check_pole_portrait(engine1), "pole_portrait")
    guarded(lambda: check_boundary(engine1, engine2, dec), "boundary")
    guarded(lambda: check_helmholtz(engine1, dec), "helmholtz")
    guarded(lambda: check_asymptotics(engine1), "asymptotics")
    guarded(lambda: check_decomposition(engine1, contour, dec), "decomposition")
    guarded(lambda: check_contour_independence(engine1, 10, seed), "contour_independence")
    checks.sort(key=lambda c: c.name)
    overall = all(c.passed for c in checks)
    return VerificationReport(_params_echo(params, seed), checks, overall,
                              engine1.branch_json())


def _params_echo(params: ProblemParams, seed: int) -> Dict[str, object]:
    return {
        "omega": [params.omega.real, params.omega.imag],
        "phi": params.phi,
        "k1": params.k1,
        "k2": params.k2,
        "seed": seed,
        "quad_rel": params.tol.quad_rel,
        "id_tol": params.tol.id_tol,
        "pole_clearance": params.tol.pole_clearance,
    }
