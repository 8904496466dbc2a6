"""Acceptance gate: one test per shipped claim, tolerances pinned.

Each test asserts the stated tolerance literally; nothing here is loosened
to fit the implementation.  test_criterion_06 pins the far-field decay of
the kernel remainder v11 - sign(Re w)*(sin Phi/Phi)*(w - pi*i/2) at the
exponent -pi/Phi, within 10 percent: the difference equation with step
2i*Phi admits no slower mode, and the coth-based construction produces
exactly this one.  The derivation is in docs/decay_exponent.md.
"""

import cmath
import math
import time

import numpy as np
import pytest

from wedgebvp.core import PI, PolarPoint, ProblemParams
from wedgebvp.contour import decomposition_contour, sommerfeld_double_loop
from wedgebvp.kernel import build_engine
from wedgebvp.solver import GridSpec, grid_eval, origin_probe, u1_decomposed, u1_field
from wedgebvp.verify import (
    DEFAULT_SEED,
    check_contour_independence,
    check_automorphy,
    check_difference_equation,
    check_helmholtz,
    check_pole_portrait,
    run_full_suite,
)

ANGLES = (4 * PI / 3, 1.5 * PI, 7 * PI / 4)
OMEGAS = (1j, 0.5 + 1j)
RHO_SWEEP = (0.25, 0.5, 1.0, 2.0, 4.0)


@pytest.fixture(scope="module")
def configs():
    out = []
    for phi in ANGLES:
        for omega in OMEGAS:
            p = ProblemParams(omega=omega, phi=phi, k1=1.0, k2=1.0)
            engine = build_engine(p, k=1.0)
            contour = sommerfeld_double_loop(p, rho_min=0.2)
            out.append((p, engine, contour))
    return out


def test_criterion_01_dirichlet_side_fidelity(configs):
    for p, engine, contour in configs:
        for rho in RHO_SWEEP:
            got = u1_field(PolarPoint(rho, 2.0 * PI), engine, contour).value
            assert abs(got - cmath.exp(-1j * p.k1 * rho)) <= 1e-5, \
                f"phi={p.phi:.4f} omega={p.omega} rho={rho}"


def test_criterion_02_homogeneous_side_fidelity(configs):
    for p, engine, contour in configs:
        for rho in RHO_SWEEP:
            got = u1_field(PolarPoint(rho, 2.0 * PI - p.phi), engine, contour).value
            assert abs(got) <= 1e-5, f"phi={p.phi:.4f} omega={p.omega} rho={rho}"


def test_criterion_03_pde_residual(configs):
    for p, engine, contour in configs:
        coarse = check_helmholtz(engine, contour, h=1e-2).measured
        fine = check_helmholtz(engine, contour, h=5e-3).measured
        assert fine <= 1e-4, f"phi={p.phi:.4f} omega={p.omega}"
        assert coarse / fine >= 3.0, \
            f"phi={p.phi:.4f} omega={p.omega}: halving gain {coarse / fine:.2f}"


def test_criterion_04_residue_portrait(configs):
    for p, engine, _ in configs:
        result = check_pole_portrait(engine)
        assert result.measured <= 1e-6, \
            f"phi={p.phi:.4f} omega={p.omega}: {result.context}"


def test_criterion_05_difference_equation_and_automorphy(configs):
    for p, engine, _ in configs:
        tol = 1e-12 if engine.kind == "Elementary" else 1e-6
        de = check_difference_equation(engine, 100, DEFAULT_SEED)
        au = check_automorphy(engine, 100, DEFAULT_SEED)
        assert de.measured <= tol, f"phi={p.phi:.4f} omega={p.omega}"
        assert au.measured <= tol, f"phi={p.phi:.4f} omega={p.omega}"


def test_criterion_06_asymptotic_slopes(configs):
    # Claim: remainder decay exponent -pi/Phi within 10 percent.  Slower
    # modes such as e^{-pi*|Re w|/(2*Phi)} change sign under the 2i*Phi shift
    # and are excluded by the difference equation; see docs/decay_exponent.md.
    for p, engine, _ in configs:
        if engine.kind == "Elementary":
            continue
        if abs(p.phi - 1.5 * PI) < 1e-9:
            continue
        W = np.linspace(6.0, 12.0, 13)
        for s in (1.0, -1.0):
            w = s * W + 0.3j
            lin = s * (math.sin(p.phi) / p.phi) * (w - 1j * PI / 2.0)
            resid = np.abs(engine.v11_hat(w) - lin)
            slope = float(np.polyfit(W, np.log(resid), 1)[0])
            target = -PI / p.phi
            assert abs(slope - target) <= 0.1 * abs(target), \
                f"phi={p.phi:.4f} omega={p.omega}: slope {slope:.4f}, " \
                f"target {target:.4f}"
        for s in (1.0, -1.0):
            got = engine.g2_hat(s * 12.0 + 0.4j)
            assert abs(got + s * 2j * math.sin(p.phi)) <= 1e-4


def test_criterion_07_decomposition_and_continuity(configs):
    for p, engine, contour in configs:
        dec = decomposition_contour(p, rho_min=0.2)
        for theta in (1.5 * PI - 0.3, 1.5 * PI + 0.3,
                      p.theta_min + 0.1, p.theta_max - 0.1):
            pt = PolarPoint(1.0, theta)
            a = u1_field(pt, engine, contour).value
            b = u1_decomposed(pt, engine, dec).value
            assert abs(a - b) <= 1e-6, f"phi={p.phi:.4f} theta={theta:.4f}"
        d = 1e-3
        for rho in (0.5, 1.0):
            hi = u1_field(PolarPoint(rho, 1.5 * PI + d), engine, contour).value
            lo = u1_field(PolarPoint(rho, 1.5 * PI - d), engine, contour).value
            assert abs(hi - lo) <= 1e-3, f"phi={p.phi:.4f} rho={rho}"


def test_decomposed_field_on_the_ray_and_the_walls(configs):
    # On the ray the moving pole lies on the upper line: the principal value
    # plus half the plane wave is u1.  On the walls u1 is 0 and e^{-i*k1*rho}.
    for p, engine, contour in configs:
        dec = decomposition_contour(p, rho_min=0.2)
        for rho in RHO_SWEEP:
            ray = PolarPoint(rho, 1.5 * PI)
            a = u1_field(ray, engine, contour).value
            b = u1_decomposed(ray, engine, dec, pv=True).value
            assert abs(a - b) <= 1e-9, f"phi={p.phi:.4f} omega={p.omega} rho={rho}"
            dark = u1_decomposed(PolarPoint(rho, p.theta_min), engine, dec).value
            lit = u1_decomposed(PolarPoint(rho, p.theta_max), engine, dec).value
            assert abs(dark) <= 1e-12, f"phi={p.phi:.4f} omega={p.omega} rho={rho}"
            assert abs(lit - cmath.exp(-1j * p.k1 * rho)) <= 1e-12, \
                f"phi={p.phi:.4f} omega={p.omega} rho={rho}"


def test_criterion_08_branch_cross_validation():
    rng = np.random.default_rng(DEFAULT_SEED)
    pts = rng.uniform(-2.5, 2.5, 10) + 1j * rng.uniform(0.5, 2.2, 10)
    ref = build_engine(ProblemParams(omega=1j, phi=1.5 * PI))
    base = ref.v11_hat(pts)
    devs = []
    for eps in (0.1, 0.05, 0.025):
        d = 0.0
        for sign in (1.0, -1.0):
            e = build_engine(ProblemParams(omega=1j, phi=1.5 * PI + sign * eps))
            d = max(d, float(np.max(np.abs(e.v11_hat(pts) - base))))
        devs.append(d)
    assert devs[0] > devs[1] > devs[2], f"not monotone: {devs}"
    extrapolated = abs(2.0 * devs[2] - devs[1])
    assert extrapolated <= 1e-3, f"extrapolated gap {extrapolated:.3e}"


def test_criterion_09_contour_independence(configs):
    for p, engine, _ in configs:
        result = check_contour_independence(engine, 10, DEFAULT_SEED)
        assert result.measured <= 1e-6, f"phi={p.phi:.4f} omega={p.omega}"


def test_criterion_10_origin_behavior(configs):
    for p, engine, _ in configs[:2]:
        theta = 0.5 * (p.theta_min + p.theta_max)
        val, slope, detail = origin_probe(engine, theta)
        assert np.isfinite(abs(val))
        u = detail["u_values"]
        assert abs(u[-1] - u[-2]) < 0.1 * max(1e-12, abs(u[-1]))
        assert abs(slope - (-1.0)) <= 0.2, f"phi={p.phi:.4f}: slope {slope:.3f}"


def test_criterion_11_performance_floor():
    p = ProblemParams(omega=0.5 + 1j, phi=7 * PI / 4)
    t0 = time.perf_counter()
    engine = build_engine(p)
    build_time = time.perf_counter() - t0
    assert build_time <= 2.0, f"engine build {build_time:.2f} s"

    contour = sommerfeld_double_loop(p, rho_min=0.2)
    u1_field(PolarPoint(1.0, 1.7 * PI), engine, contour)  # warm the caches
    t0 = time.perf_counter()
    u1_field(PolarPoint(0.9, 1.7001 * PI), engine, contour)  # cold theta
    point_time = time.perf_counter() - t0
    assert point_time <= 0.05, f"single field point {point_time * 1e3:.1f} ms"

    spec = GridSpec(0.3, 2.0, 100, p.theta_min + 0.05, p.theta_max - 0.05, 100)
    t0 = time.perf_counter()
    samples = grid_eval(spec, engine, contour, check=False)
    grid_time = time.perf_counter() - t0
    assert not any(s.method.startswith("error") for s in samples)
    assert grid_time <= 60.0, f"100x100 grid {grid_time:.1f} s"


def test_criterion_12_determinism():
    p = ProblemParams(omega=1j, phi=1.5 * PI)
    a = run_full_suite(p, seed=DEFAULT_SEED).to_json(timestamp="")
    b = run_full_suite(p, seed=DEFAULT_SEED).to_json(timestamp="")
    assert a == b
