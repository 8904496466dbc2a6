"""Tests for field evaluation over the Sommerfeld contours.

The strongest oracles are the boundary values: the integral representation
must reproduce e^{-i*k1*rho} on theta = 2*pi and vanish on the other wall,
with the total field matching e^{-i*k2*rho} there instead.  These are exact
consequences of the kernel residue structure and hold to quadrature
precision.
"""

import cmath
import math
import os
import sys

import numpy as np
import pytest

from wedgebvp.core import PI, PolarPoint, ProblemParams, Tolerances
from wedgebvp.contour import decomposition_contour, sommerfeld_double_loop
from wedgebvp.errors import DomainError, GeometryError, PoleError, QuadratureError, RayError
from wedgebvp import solver
from wedgebvp.kernel import build_engine
from wedgebvp.verify import check_boundary, check_decomposition
from wedgebvp.solver import (
    FieldSample,
    GridSpec,
    U_total,
    field_csv,
    grid_eval,
    origin_probe,
    u1_decomposed,
    u1_field,
    u2_field,
    u_plane,
)

PARAMS = ProblemParams(omega=0.5 + 1j, phi=7 * PI / 4, k1=1.0, k2=2.0)


@pytest.fixture(scope="module")
def setup():
    e1 = build_engine(PARAMS, k=PARAMS.k1)
    e2 = build_engine(PARAMS, k=PARAMS.k2)
    cont = sommerfeld_double_loop(PARAMS, rho_min=0.25)
    dec = decomposition_contour(PARAMS, rho_min=0.25)
    return e1, e2, cont, dec


def test_u1_boundary_values(setup):
    e1, _, cont, _ = setup
    # The k2 = 2 branch point widens the loop, and the vertical links then
    # amplify roundoff like e^{rho*cosh(b)}; radii above about 1 lose the
    # certificate for this parameter set, so the sweep stays below that.
    for rho in (0.25, 0.7, 1.0):
        lit = u1_field(PolarPoint(rho, 2.0 * PI), e1, cont)
        assert abs(lit.value - cmath.exp(-1j * PARAMS.k1 * rho)) < 1e-9
        dark = u1_field(PolarPoint(rho, 2.0 * PI - PARAMS.phi), e1, cont)
        assert abs(dark.value) < 1e-9


def test_total_field_boundary_values(setup):
    e1, e2, cont, _ = setup
    for rho in (0.5, 1.0):
        top = U_total(PolarPoint(rho, 2.0 * PI), e1, e2, cont)
        assert abs(top.value - cmath.exp(-1j * PARAMS.k1 * rho)) < 1e-9
        bot = U_total(PolarPoint(rho, 2.0 * PI - PARAMS.phi), e1, e2, cont)
        assert abs(bot.value - cmath.exp(-1j * PARAMS.k2 * rho)) < 1e-9


def test_u2_is_u1_at_reflected_angle(setup):
    _, e2, cont, _ = setup
    pt = PolarPoint(0.8, 1.9 * PI)
    mirrored = PolarPoint(0.8, -1.9 * PI + 4.0 * PI - PARAMS.phi)
    a = u2_field(pt, e2, cont)
    b = u1_field(mirrored, e2, cont)
    assert a.value == b.value
    assert a.point is pt


def test_u_plane_exact_values(setup):
    e1, _, _, _ = setup
    rho = 1.3
    # At theta = 2*pi the plane wave reduces to the incoming trace.
    assert abs(u_plane(PolarPoint(rho, 2.0 * PI), e1)
               - cmath.exp(-1j * PARAMS.k1 * rho)) < 1e-14
    # At theta = 3*pi/2 the phase is i*omega*cosh(p1).
    want = cmath.exp(1j * e1.omega * rho * cmath.cosh(e1.branch.p1))
    assert abs(u_plane(PolarPoint(rho, 1.5 * PI), e1) - want) < 1e-14


def test_decomposed_matches_full_contour(setup):
    e1, _, cont, dec = setup
    for theta in (1.9 * PI, 1.62 * PI, 1.48 * PI, 1.3 * PI):
        pt = PolarPoint(1.0, theta)
        a = u1_field(pt, e1, cont).value
        b = u1_decomposed(pt, e1, dec).value
        assert abs(a - b) < 1e-8


def test_decomposed_near_ray_pole_subtraction(setup):
    # Near the crossing angle the moving pole hugs the upper curve, and the
    # trapezoid sum misses a large part of it; the pole correction must
    # restore that on either side of the ray.
    e1, _, cont, dec = setup
    for theta in (1.5 * PI + 0.02, 1.5 * PI - 0.02):
        pt = PolarPoint(1.0, theta)
        a = u1_field(pt, e1, cont).value
        b = u1_decomposed(pt, e1, dec).value
        assert abs(a - b) < 1e-8


def test_decomposed_at_a_slowly_converging_config():
    # A tilted omega with the moving pole 0.98 below the ray: Gauss panels
    # refined at the pole's abscissa were off by 2.4e-6 here.
    p = ProblemParams(omega=0.845 + 0.622j, phi=1.716 * PI, k1=0.54, k2=0.54)
    e = build_engine(p)
    pt = PolarPoint(0.639, 1.5 * PI - 0.976)
    a = u1_field(pt, e, sommerfeld_double_loop(p)).value
    b = u1_decomposed(pt, e, decomposition_contour(p)).value
    assert abs(a - b) <= 1e-10


@pytest.mark.parametrize("phi", [4 * PI / 3, 1.5 * PI, 7 * PI / 4])
def test_check_decomposition_passes_at_tilted_omega(phi):
    # At omega = 1 + 0.3i the decomposed field was off by 1.3e-5 to 2.4e-5.
    p = ProblemParams(omega=1.0 + 0.3j, phi=phi)
    res = check_decomposition(build_engine(p), sommerfeld_double_loop(p, rho_min=0.2),
                              decomposition_contour(p, rho_min=0.2))
    assert res.passed, res


def test_decomposed_k2_engine_on_the_shared_contour():
    # The contour is laid out for both wavenumbers: the k2 engine's moving
    # pole crosses the upper line at -Re p1(k2), not at the k1 crossing.
    rng = np.random.default_rng(20261019)
    worst = 0.0
    for _ in range(40):
        phi = rng.uniform(1.05 * PI, 1.93 * PI)
        if phi >= 1.49 * PI:
            phi += 0.02 * PI
        k1, k2 = rng.uniform(0.5, 3.0, 2)
        p = ProblemParams(omega=complex(rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5)),
                          phi=float(phi), k1=float(k1), k2=float(k2))
        e2 = build_engine(p, k=p.k2)
        cont = sommerfeld_double_loop(p, rho_min=0.25)
        dec = decomposition_contour(p, rho_min=0.25)
        for d in (0.03, 0.12, 0.3, -0.03, -0.12, -0.3):
            pt = PolarPoint(0.5, 1.5 * PI + d)
            a = u1_field(pt, e2, cont).value
            b = u1_decomposed(pt, e2, dec).value
            worst = max(worst, abs(a - b))
    assert worst <= 1e-8


def test_diffracted_jump_bookkeeping(setup):
    # The diffracted part u_d jumps by exactly -u_p across theta = 3*pi/2,
    # which is what keeps u1 = u_d + u_p * 1{theta > 3*pi/2} continuous.
    e1, _, _, dec = setup
    rho = 1.0
    d = 1e-4
    hi = u1_decomposed(PolarPoint(rho, 1.5 * PI + d), e1, dec).value \
        - u_plane(PolarPoint(rho, 1.5 * PI + d), e1)
    lo = u1_decomposed(PolarPoint(rho, 1.5 * PI - d), e1, dec).value
    up = u_plane(PolarPoint(rho, 1.5 * PI), e1)
    assert abs((hi - lo) + up) < 1e-3 * abs(up)


def test_ray_requires_principal_value(setup):
    e1, _, cont, dec = setup
    pt = PolarPoint(1.0, 1.5 * PI)
    with pytest.raises(RayError):
        u1_decomposed(pt, e1, dec)
    pv = u1_decomposed(pt, e1, dec, pv=True).value
    full = u1_field(pt, e1, cont).value
    assert abs(pv - full) < 1e-4


def test_field_rejects_point_outside_wedge(setup):
    e1, _, cont, _ = setup
    with pytest.raises(DomainError):
        u1_field(PolarPoint(1.0, 0.1), e1, cont)


def test_truncation_certificate_blocks_tiny_rho(setup):
    e1, _, cont, _ = setup
    with pytest.raises(GeometryError):
        u1_field(PolarPoint(1e-6, 1.9 * PI), e1, cont)


def test_refinement_error_estimate_is_small(setup):
    e1, _, cont, _ = setup
    s = u1_field(PolarPoint(1.0, 1.8 * PI), e1, cont, check=True)
    assert s.est_quad_error <= e1.tol.id_tol
    s0 = u1_field(PolarPoint(1.0, 1.8 * PI), e1, cont, check=False)
    assert s0.est_quad_error == 0.0
    assert abs(s.value - s0.value) < 1e-10


def test_grid_spec_spacing():
    spec = GridSpec(0.1, 10.0, 5, 1.5 * PI, 2.0 * PI, 3, log_rho=True)
    r = spec.rho_values()
    assert r[0] == pytest.approx(0.1) and r[-1] == pytest.approx(10.0)
    assert np.allclose(np.diff(np.log(r)), np.diff(np.log(r))[0])
    lin = GridSpec(0.1, 10.0, 5, 1.5 * PI, 2.0 * PI, 3)
    assert np.allclose(np.diff(lin.rho_values()), np.diff(lin.rho_values())[0])


def test_grid_eval_order_and_consistency(setup):
    e1, _, cont, _ = setup
    spec = GridSpec(0.5, 1.5, 3, 1.6 * PI, 1.9 * PI, 2)
    samples = grid_eval(spec, e1, cont, check=False)
    assert len(samples) == 6
    # Row-major: theta outer, rho inner.
    assert [s.point.theta for s in samples[:3]] == [1.6 * PI] * 3
    assert samples[0].point.rho < samples[1].point.rho < samples[2].point.rho
    direct = u1_field(samples[4].point, e1, cont, check=False)
    assert samples[4].value == direct.value


def test_grid_eval_total_field_and_errors(setup):
    e1, e2, cont, _ = setup
    spec = GridSpec(1e-7, 1.0, 2, 1.7 * PI, 1.7 * PI, 1)
    samples = grid_eval(spec, e1, cont, engine2=e2, check=False)
    # The uncertified tiny radius is recorded as an error sample, not raised.
    assert samples[0].method == "error:GeometryError"
    assert math.isnan(samples[0].value.real)
    # The sample keeps why the point failed, not only the class name.
    assert samples[0].message and "tail bound" in samples[0].message
    assert samples[1].message == ""
    want = U_total(samples[1].point, e1, e2, cont, check=False).value
    assert samples[1].value == want


@pytest.mark.parametrize("threads", ["1", "2"])
def test_grid_eval_propagates_non_wedge_errors(setup, monkeypatch, threads):
    # Only WedgeError becomes an error sample; a bug elsewhere must surface.
    e1, _, cont, _ = setup

    def broken(*args, **kwargs):
        raise ValueError("not a numerical failure")

    monkeypatch.setattr(solver, "u1_field", broken)
    monkeypatch.setenv("WEDGE_THREADS", threads)
    spec = GridSpec(0.5, 1.0, 2, 1.6 * PI, 1.9 * PI, 3)
    with pytest.raises(ValueError):
        grid_eval(spec, e1, cont, check=False)


def test_kernel_cache_never_serves_a_freed_engine():
    # Engines built and freed one after another may reuse one address; the
    # shared contour's kernel cache must still give each its own values.
    p = ProblemParams(omega=1j, phi=1.5 * PI, k1=2.0, k2=2.0)
    cont = sommerfeld_double_loop(p, rho_min=0.5)
    theta = 1.8 * PI
    for k in np.linspace(0.5, 2.0, 20):
        engine = build_engine(p, k=float(k))
        got = solver._kernel_on(cont, engine, theta)
        assert np.array_equal(got, engine.v1_hat(cont.w + 1j * theta))
        del engine


def test_pole_guard_holds_on_a_warm_contour():
    # The moving-pole distance is kept per (engine, theta) on the contour;
    # once it is there, a point of the same theta at another rho must still
    # raise, with the message a cold contour gives.
    # The contour is laid out under the default clearance, the engine asks
    # for more: the pole then comes within it at some theta.
    p0 = ProblemParams(omega=1j, phi=1.5 * PI)
    p = ProblemParams(omega=1j, phi=1.5 * PI, tol=Tolerances(pole_clearance=1.5))
    e = build_engine(p)
    cont = sommerfeld_double_loop(p0, rho_min=0.5)
    for theta in np.linspace(p.theta_min, p.theta_max, 41):
        try:
            u1_field(PolarPoint(1.0, float(theta)), e, cont, check=False)
        except PoleError as exc:
            first = str(exc)
            break
    else:
        pytest.fail("no theta puts the moving pole within the clearance")
    with pytest.raises(PoleError) as warm:
        u1_field(PolarPoint(2.0, float(theta)), e, cont, check=False)
    with pytest.raises(PoleError) as cold:
        u1_field(PolarPoint(2.0, float(theta)), e,
                 sommerfeld_double_loop(p0, rho_min=0.5), check=False)
    assert str(warm.value) == first == str(cold.value)


def test_grid_eval_thread_determinism(setup, monkeypatch):
    e1, _, cont, _ = setup
    spec = GridSpec(0.5, 1.0, 2, 1.6 * PI, 1.9 * PI, 3)
    serial = grid_eval(spec, e1, cont, check=False)
    monkeypatch.setenv("WEDGE_THREADS", "4")
    threaded = grid_eval(spec, e1, cont, check=False)
    assert [s.value for s in serial] == [s.value for s in threaded]


def _bits(samples):
    values = np.array([s.value for s in samples])
    ests = np.array([s.est_quad_error for s in samples])
    return values.view(np.uint8).tobytes(), ests.view(np.uint8).tobytes()


@pytest.mark.parametrize("threads", ["2", "4"])
def test_grid_eval_threads_share_the_exponential_factor(setup, monkeypatch, threads):
    # Threaded rows race on each contour's sinh(w) and exponential slot
    # (u1 and u2, coarse and refined); every value and estimate must still
    # be the serial run's bits.  A short switch interval makes the threads
    # interleave inside the slot's lookups.
    e1, e2, _, _ = setup
    spec = GridSpec(0.3, 1.2, 4, PARAMS.theta_min, PARAMS.theta_max, 6)
    serial = grid_eval(spec, e1, sommerfeld_double_loop(PARAMS, rho_min=0.25),
                       engine2=e2, check=True)
    monkeypatch.setenv("WEDGE_THREADS", threads)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = grid_eval(spec, e1, sommerfeld_double_loop(PARAMS, rho_min=0.25),
                             engine2=e2, check=True)
    finally:
        sys.setswitchinterval(interval)
    assert [s.method for s in serial] == [s.method for s in threaded]
    assert _bits(serial) == _bits(threaded)


def test_exponential_factor_is_keyed_on_omega_and_rho():
    # One shared contour serves engines of two frequencies at alternating
    # radii; each call must match the same call on a fresh contour, whose
    # caches are empty.  A key without omega or without rho fails this.
    pa = ProblemParams(omega=0.5 + 1j, phi=1.5 * PI, k1=1.0, k2=0.5)
    pb = ProblemParams(omega=0.6 + 1.1j, phi=1.5 * PI, k1=1.0, k2=0.5)
    ea = (build_engine(pa, k=pa.k1), build_engine(pa, k=pa.k2))
    eb = (build_engine(pb, k=pb.k1), build_engine(pb, k=pb.k2))
    shared = sommerfeld_double_loop(pa, rho_min=0.25)
    theta = 1.8 * PI
    calls = [
        (u1_field, 0.5, ea[:1]),
        (u1_field, 0.5, eb[:1]),
        (U_total, 0.9, ea),
        (u1_field, 0.5, ea[:1]),
        (U_total, 0.9, eb),
        (u1_field, 0.7, eb[:1]),
        (U_total, 0.7, ea),
    ]
    for fn, rho, engines in calls:
        pt = PolarPoint(rho, theta)
        got = fn(pt, *engines, shared)
        want = fn(pt, *engines, sommerfeld_double_loop(pa, rho_min=0.25))
        assert got.value == want.value
        assert got.est_quad_error == want.est_quad_error


def test_checked_row_makes_one_exponential_per_contour_and_rho(monkeypatch):
    # u1 and u2 share e^{-omega*rho*sinh w}: a checked row of n radii makes
    # it once on the coarse and once on the refined contour per radius, 2n
    # in all (4n when each field made its own).
    p = ProblemParams(omega=0.5 + 1j, phi=1.5 * PI, k1=1.0, k2=0.5)
    e1, e2 = build_engine(p, k=p.k1), build_engine(p, k=p.k2)
    cont = sommerfeld_double_loop(p, rho_min=0.25)
    theta = 1.7 * PI
    # Fill the kernel cache first, so that only the field's own work counts.
    grid_eval(GridSpec(2.0, 2.0, 1, theta, theta, 1), e1, cont, engine2=e2)
    sizes = {len(cont), len(cont.refined())}
    counted = []
    real_exp = np.exp

    def counting_exp(x, *args, **kwargs):
        if np.size(x) in sizes:
            counted.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    n = 5
    samples = grid_eval(GridSpec(0.3, 1.5, n, theta, theta, 1), e1, cont, engine2=e2)
    assert all(s.method == "FullContour" for s in samples)
    assert len(counted) == 2 * n


def test_field_csv_roundtrip(tmp_path, setup):
    e1, _, cont, _ = setup
    spec = GridSpec(0.5, 1.0, 2, 1.7 * PI, 1.8 * PI, 2)
    samples = grid_eval(spec, e1, cont, check=False)
    path = tmp_path / "field.csv"
    field_csv(samples, path, PARAMS, timestamp="T0")
    lines = path.read_text().splitlines()
    assert lines[0] == "# timestamp: T0"
    assert lines[1].startswith("# params: {")
    assert lines[2] == "rho,theta,re_u,im_u,abs_u,method,est_err"
    assert len(lines) == 3 + len(samples)
    first = lines[3].split(",")
    assert float(first[0]) == samples[0].point.rho
    assert complex(float(first[2]), float(first[3])) == samples[0].value


def test_origin_probe_gradient_scaling(setup):
    e1, _, _, _ = setup
    val, slope, detail = origin_probe(e1, 1.8 * PI)
    assert -1.3 < slope < -0.7
    assert detail["ladder"] == [1e-2, 1e-3, 1e-4]
    # The field itself approaches a finite limit at the tip.
    u = detail["u_values"]
    assert abs(u[-1] - u[-2]) < 0.1 * max(1e-12, abs(u[-1]))


def test_origin_probe_rejects_bad_ladder(setup):
    e1, _, _, _ = setup
    with pytest.raises(DomainError):
        origin_probe(e1, 1.8 * PI, rho_ladder=(1e-3, 1e-2))


def test_field_sample_record(setup):
    e1, _, cont, _ = setup
    s = u1_field(PolarPoint(1.0, 1.8 * PI), e1, cont, check=False)
    assert isinstance(s, FieldSample)
    assert s.method == "FullContour"


def test_overflowing_sample_raises_instead_of_nan():
    # On the double loop's vertical links e^{-omega*rho*sinh w} overflows at
    # this radius; the sample must be refused, not returned as NaN.
    p = ProblemParams(omega=1j, phi=7 * PI / 4)
    e = build_engine(p)
    cont = sommerfeld_double_loop(p, rho_min=0.25)
    with np.errstate(all="ignore"):
        with pytest.raises(QuadratureError):
            u1_field(PolarPoint(300.0, 1.9 * PI), e, cont)
        with pytest.raises(QuadratureError):
            u1_field(PolarPoint(300.0, 1.9 * PI), e, cont, check=False)


@pytest.mark.parametrize("p", [
    *(ProblemParams(omega=omega, phi=phi)
      for phi in (4 * PI / 3, 1.5 * PI, 7 * PI / 4) for omega in (1j, 0.5 + 1j)),
    PARAMS,
])
def test_lines_give_boundary_values_far_out(p):
    # The double loop's vertical links cap rho: there the checked field
    # raised at 6 to 8 of these 12 wall points.
    e1, e2 = build_engine(p, p.k1), build_engine(p, p.k2)
    dec = decomposition_contour(p, rho_min=0.25)
    for rho in (0.25, 1.0, 4.0, 8.0, 16.0, 30.0):
        lit, dark = PolarPoint(rho, p.theta_max), PolarPoint(rho, p.theta_min)
        assert abs(U_total(lit, e1, e2, dec).value - cmath.exp(-1j * p.k1 * rho)) <= 1e-12
        assert abs(U_total(dark, e1, e2, dec).value - cmath.exp(-1j * p.k2 * rho)) <= 1e-12
        assert abs(u1_field(lit, e1, dec).value - cmath.exp(-1j * p.k1 * rho)) <= 1e-12
        assert abs(u1_field(dark, e1, dec).value) <= 1e-12


def test_lines_field_is_continuous_on_the_ray(setup):
    # On the lines the plane-wave share and the side of the pole correction
    # switch at theta = 3pi/2; the checked field does not jump there.
    e1, _, cont, dec = setup
    rho = 1.5
    ray = u1_field(PolarPoint(rho, 1.5 * PI), e1, dec)
    full = u1_field(PolarPoint(rho, 1.5 * PI), e1, cont)
    assert abs(ray.value - full.value) <= 2.0 * full.est_quad_error
    # |du1/dtheta| is 0.117 here.
    for d in (1e-9, 1e-6):
        hi = u1_field(PolarPoint(rho, 1.5 * PI + d), e1, dec).value
        lo = u1_field(PolarPoint(rho, 1.5 * PI - d), e1, dec).value
        assert abs(hi - ray.value) <= 0.2 * d + 1e-12
        assert abs(lo - ray.value) <= 0.2 * d + 1e-12
    assert u1_decomposed(PolarPoint(rho, 1.5 * PI), e1, dec, pv=True).method == "Decomposed"


def test_continuity_term_of_check_decomposition_measures_a_jump():
    # |u1(3pi/2 + d) - u1(3pi/2 - d)| is about 2d*|du1/dtheta|: 8.5e-4 here.
    p = ProblemParams(omega=1.0 + 0.3j, phi=7 * PI / 4)
    res = check_decomposition(build_engine(p), sommerfeld_double_loop(p, rho_min=0.2),
                              decomposition_contour(p, rho_min=0.2))
    assert res.context["continuity_jump"] <= 1e-8, res


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_boundary_check_on_tilted_lines_warns_of_nothing():
    # The kernel's near-pole path locates poles whose Newton may diverge;
    # the overflow it meets is expected, and its root is rejected.
    p = ProblemParams(omega=1.0 + 0.1j, phi=7 * PI / 4)
    res = check_boundary(build_engine(p), build_engine(p, p.k2),
                         decomposition_contour(p, rho_min=0.2))
    assert res.passed, res
