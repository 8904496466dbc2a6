"""Tests for the integrand kernel builder.

The engine assembles v1 = v11 - G where v11 solves the difference equation
v11(w) - v11(w + 2i*Phi) = G2(w) and is automorphic under w -> -w + pi*i.
Most oracles here are exact algebraic facts (tail limits, fixed points,
residues by contour integration); the rest are frozen from an independent
fine-quadrature run.
"""

import math

import numpy as np
import pytest

from wedgebvp.core import PI, ProblemParams
from wedgebvp.errors import DomainError, NearArcError, PoleError
from wedgebvp.kernel import PHI_SWITCH_EPS, KernelEngine, build_engine
from wedgebvp.verify import residue_at

CASES = [
    ProblemParams(omega=1j, phi=4 * PI / 3),
    ProblemParams(omega=1j, phi=1.5 * PI),
    ProblemParams(omega=0.5 + 1j, phi=7 * PI / 4),
]


@pytest.fixture(scope="module")
def engines():
    return {p.phi: build_engine(p) for p in CASES}


def _points(rng, n=40):
    return (rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(-6.0, 6.0, n))


def _keep_clear(engine, w, clearance=0.05):
    keep = np.ones(w.shape, dtype=bool)
    shifts = [0.0, 2j * engine.phi, -2j * engine.phi, 4j * engine.phi]
    for pole in engine.pole_list().values():
        for n in range(-3, 4):
            for s in shifts:
                img = pole + 2j * PI * n + s
                keep &= np.abs(w - img) > clearance
                keep &= np.abs(-w + 1j * PI - img) > clearance
    return w[keep]


def test_kind_switching_threshold():
    assert build_engine(
        ProblemParams(omega=1j, phi=1.5 * PI + 0.1 * PHI_SWITCH_EPS)
    ).kind == "Elementary"
    assert build_engine(
        ProblemParams(omega=1j, phi=1.5 * PI + 1e-2)
    ).kind == "CauchyBuilt"


def test_g_hat_periodicity(engines):
    rng = np.random.default_rng(5)
    for e in engines.values():
        w = _keep_clear(e, _points(rng))
        assert np.max(np.abs(e.g_hat(w + 2j * PI) - e.g_hat(w))) < 1e-13


def test_g_hat_residues(engines):
    for e in engines.values():
        p1 = e.branch.p1
        assert abs(residue_at(e.g_hat, p1) - e.branch.r2) < 1e-12
        assert abs(residue_at(e.g_hat, -p1 - 1j * PI) - e.branch.r1) < 1e-12


def test_g_hat_tail_limits(engines):
    for e in engines.values():
        for x in (20.0, -20.0):
            lim = np.exp(-1j * np.sign(x) * e.phi)
            assert abs(e.g_hat(x + 0.3j) - lim) < 1e-8


def test_g_hat_guard_raises_near_pole(engines):
    e = engines[1.5 * PI]
    with pytest.raises(PoleError):
        e.g_hat(e.branch.p1 + 1e-10)


def test_g2_fixed_point_zero(engines):
    # The reflection h2: w -> -w + pi*i - 2i*Phi fixes pi*i/2 - i*Phi, where
    # G2 = G - G o h2 must vanish identically.
    for e in engines.values():
        assert abs(e.g2_hat(1j * PI / 2.0 - 1j * e.phi)) < 1e-14


def test_g2_tail_limits(engines):
    for e in engines.values():
        for x in (20.0, -20.0):
            lim = -np.sign(x) * 2j * math.sin(e.phi)
            assert abs(e.g2_hat(x + 0.3j) - lim) < 1e-8


def test_g2_elementary_closed_form():
    # At Phi = 3*pi/2 the difference G - G o h2 collapses to the rational
    # expression i*omega^2*sinh(2w)/(omega^2*sinh(w)^2 + k^2).
    e = build_engine(ProblemParams(omega=1j, phi=1.5 * PI))
    rng = np.random.default_rng(7)
    w = _keep_clear(e, _points(rng))
    closed = (1j * e.omega ** 2 * np.sinh(2.0 * w)
              / (e.omega ** 2 * np.sinh(w) ** 2 + e.k ** 2))
    assert np.max(np.abs(e.g2_hat(w) - closed)) < 1e-12


def test_t_map_endpoints_and_limits(engines):
    for e in engines.values():
        assert abs(e.t_map(1j * (PI / 2.0 + e.phi))) < 1e-14
        assert abs(e.t_map(1j * (PI / 2.0 - e.phi))) < 1e-14
        # coth^2 - 1 decays like 4*e^{-pi*x/Phi} along the strip.
        assert abs(e.t_map(40.0 + 0.4j) - 1.0) < 40.0 * math.exp(-40.0 * PI / e.phi)


def test_t_map_even_under_automorphism(engines):
    rng = np.random.default_rng(9)
    for e in engines.values():
        w = _points(rng, 20)
        w = w[np.abs(w - 1j * PI / 2.0) > 0.3]
        assert np.max(np.abs(e.t_map(-w + 1j * PI) - e.t_map(w))) < 1e-11


def test_dt_map_matches_finite_difference(engines):
    e = engines[7 * PI / 4]
    h = 1e-6
    for w in (0.7 + 0.9j, -1.2 + 2.5j, 2.0 - 1.0j):
        fd = (e.t_map(w + h) - e.t_map(w - h)) / (2.0 * h)
        assert abs(e.dt_map(w) - fd) < 1e-6 * max(1.0, abs(fd))


def test_supplement_t2_structure(engines):
    for phi in (4 * PI / 3, 7 * PI / 4):
        e = engines[phi]
        rng = np.random.default_rng(13)
        w = _keep_clear(e, _points(rng))
        # 2i*Phi periodicity and h1 automorphy.
        assert np.max(np.abs(e.T2(w + 2j * e.phi) - e.T2(w))) < 1e-12
        assert np.max(np.abs(e.T2(-w + 1j * PI) - e.T2(w))) < 1e-12
        # Residues r2 at p1 and -r2 at the h1 image.
        p1 = e.branch.p1
        assert abs(residue_at(e.T2, p1) - e.branch.r2) < 1e-10
        assert abs(residue_at(e.T2, -p1 + 1j * PI) + e.branch.r2) < 1e-10


def test_supplement_t1_structure(engines):
    e = engines[7 * PI / 4]
    assert abs(residue_at(e.T1, e.q1) - e.branch.r1) < 1e-10
    assert abs(residue_at(e.T1, -e.q1 + 1j * PI) + e.branch.r1) < 1e-10
    with pytest.raises(DomainError):
        engines[4 * PI / 3].T1(0.5 + 0.5j)


def test_elementary_m_plus_q_difference_equation():
    e = build_engine(ProblemParams(omega=1j, phi=1.5 * PI))
    rng = np.random.default_rng(17)
    w = _keep_clear(e, _points(rng))

    def v11(z):
        return e.m_func(z) + e.Q_func(z)

    lhs = v11(w) - v11(w + 3j * PI)
    assert np.max(np.abs(lhs - e.g2_hat(w))) < 1e-12
    # Q alone is 3*pi*i periodic and h1 automorphic.
    assert np.max(np.abs(e.Q_func(w + 3j * PI) - e.Q_func(w))) < 1e-12
    assert np.max(np.abs(e.Q_func(-w + 1j * PI) - e.Q_func(w))) < 1e-12


def test_elementary_guards_other_branch():
    e = build_engine(ProblemParams(omega=1j, phi=7 * PI / 4))
    with pytest.raises(DomainError):
        e.m_func(0.5j)
    with pytest.raises(DomainError):
        e.Q_func(0.5j)
    with pytest.raises(DomainError):
        build_engine(ProblemParams(omega=1j, phi=1.5 * PI)).T2(0.5j)


def test_v11_difference_equation_all_cases(engines):
    rng = np.random.default_rng(19)
    for e in engines.values():
        w = _keep_clear(e, _points(rng))[:25]
        lhs = e.v11_hat(w) - e.v11_hat(w + 2j * e.phi)
        tol = 1e-12 if e.kind == "Elementary" else e.tol.id_tol
        assert np.max(np.abs(lhs - e.g2_hat(w))) < tol


def test_v11_automorphy_all_cases(engines):
    rng = np.random.default_rng(23)
    for e in engines.values():
        w = _keep_clear(e, _points(rng))[:25]
        tol = 1e-12 if e.kind == "Elementary" else e.tol.id_tol
        assert np.max(np.abs(e.v11_hat(-w + 1j * PI) - e.v11_hat(w))) < tol


def test_v1_residue_at_moving_pole_image(engines):
    # v1 = v11 - G keeps only the pole at -p1 + pi*i with residue 2i*sin Phi;
    # the residues at p1 and -p1 - pi*i cancel between v11 and G.
    for e in engines.values():
        p1 = e.branch.p1
        want = 2j * math.sin(e.phi)
        assert abs(residue_at(e.v1_hat, -p1 + 1j * PI) - want) < 1e-7
        assert abs(residue_at(e.v1_hat, p1)) < 1e-7
        assert abs(residue_at(e.v1_hat, -p1 - 1j * PI)) < 1e-7


def test_cauchy_a1_decays_at_infinity(engines):
    e = engines[7 * PI / 4]
    assert abs(e.cauchy_a1(1e6 + 0.0j)) < 1e-5
    assert abs(e.cauchy_a1(1e6 + 0.0j)) > 10.0 * abs(e.cauchy_a1(1e8 + 0.0j))


def test_cauchy_a1_plemelj_jump(engines):
    # The one-sided boundary values across the jump arc differ by exactly the
    # density, which is G2 transported to the t plane.
    e = engines[7 * PI / 4]
    tab = e._tables["base"]
    for j in (len(tab.t) // 4, len(tab.t) // 3, len(tab.t) // 2):
        t0 = tab.t[j]
        jump = e.cauchy_a1(t0, side="upper") - e.cauchy_a1(t0, side="lower")
        assert abs(jump - tab.g2[j]) < 1e-6


def test_cauchy_a1_near_arc_guard(engines):
    e = engines[7 * PI / 4]
    t0 = e._tables["base"].t[50]
    with pytest.raises(NearArcError):
        e.cauchy_a1(t0)
    with pytest.raises(DomainError):
        e.cauchy_a1(t0, side="sideways")
    with pytest.raises(DomainError):
        build_engine(ProblemParams(omega=1j, phi=1.5 * PI)).cauchy_a1(2.0 + 0j)


def test_constant_extraction_stable_under_resolution():
    p = ProblemParams(omega=0.5 + 1j, phi=7 * PI / 4)
    c_default = build_engine(p).const_C
    c_fine = build_engine(p, n_beta=1024).const_C
    assert abs(c_default - c_fine) < 1e-7


def test_v1_asymptotic_overlap(engines):
    # Far field: v1(w) ~ s*(sin Phi/Phi)*(w - pi*i/2) - e^{-s*i*Phi},
    # s = sign(Re w).
    for e in engines.values():
        for x in (24.0, -24.0):
            w = x + 0.7j
            s = math.copysign(1.0, x)
            far = (s * (math.sin(e.phi) / e.phi) * (w - 1j * PI / 2.0)
                   - np.exp(-1j * s * e.phi))
            assert abs(e.v1_hat(w) - far) < 2e-6


def test_branch_continuity_across_switch():
    # The CauchyBuilt construction must approach the Elementary one as the
    # angle approaches 3*pi/2; the gap scales linearly in the offset.
    ee = build_engine(ProblemParams(omega=1j, phi=1.5 * PI))
    pts = (0.4 + 1.1j, -1.0 + 2.0j, 2.0 - 0.5j)
    gaps = []
    for dphi in (1e-2, 3e-2):
        ec = build_engine(ProblemParams(omega=1j, phi=1.5 * PI + dphi))
        g = max(abs(ee.v11_hat(w) - ec.v11_hat(w)) for w in pts)
        assert g < 1.0 * dphi
        gaps.append(g)
    assert 2.0 < gaps[1] / gaps[0] < 4.5


def test_relaxed_guard_restores_clearance(engines):
    e = engines[1.5 * PI]
    before = e.pole_clearance
    with e.relaxed_guard():
        assert e.pole_clearance == 1e-12
        e.v1_hat(e.branch.p1 + 1e-7)
    assert e.pole_clearance == before
    with pytest.raises(PoleError):
        e.v1_hat(e.branch.p1 + 1e-7)


def test_pole_list_and_branch_json(engines):
    e = engines[7 * PI / 4]
    poles = e.pole_list()
    assert {"p1", "-p1-pi*i", "-p1+pi*i", "p1+2pi*i", "q1", "-q1+pi*i"} \
        <= set(poles)
    assert "q1" not in engines[4 * PI / 3].pole_list()
    info = e.branch_json()
    assert info["kind"] == "CauchyBuilt"
    assert info["p1"] == [e.branch.p1.real, e.branch.p1.imag]
    assert isinstance(info["poles"], dict)


def test_build_engine_second_wavenumber():
    p = ProblemParams(omega=1j, phi=1.5 * PI, k1=1.0, k2=2.0)
    e2 = build_engine(p, k=p.k2)
    assert isinstance(e2, KernelEngine)
    assert abs(np.sinh(e2.branch.p1) - 1j * p.k2 / p.omega) < 1e-10


def _reference_cauchy_eval(t, table):
    """The plain complex-arithmetic form of KernelEngine._cauchy_eval.

    Complex division on every (point, node) pair, and the polyline integral
    as a sum of complex segment logs; kept here as the oracle for the
    blocked real-arithmetic evaluator.
    """
    tpj = table.tpj
    dens = table.g2 * tpj
    gaps = np.abs(np.diff(table.t))
    sp = np.empty(table.t.size)
    sp[0] = gaps[0]
    sp[-1] = gaps[-1]
    sp[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
    diff = table.t[None, :] - t[:, None]
    absdiff = np.abs(diff)
    jstar = np.argmin(absdiff, axis=1)
    dmin = absdiff[np.arange(t.size), jstar]
    near = ((dmin < 10.0 * sp[jstar]) | (np.abs(t - 1.0) < 1e-2)
            | (np.abs(t) < 1e-2))
    vals = np.sum(dens[None, :] / diff, axis=1)
    g2s = table.g2[jstar[near]]
    ratio = (dens[None, :] - g2s[:, None] * tpj[None, :]) / diff[near]
    poly = table.t_poly
    logs = np.log((poly[None, 1:] - t[near, None])
                  / (poly[None, :-1] - t[near, None]))
    vals[near] = np.sum(ratio, axis=1) + g2s * np.sum(logs, axis=1)
    return vals / (2j * PI), near


@pytest.mark.parametrize("phi", [4 * PI / 3, 7 * PI / 4, 1.05 * PI])
def test_cauchy_eval_matches_complex_reference(phi):
    e = build_engine(ProblemParams(omega=0.5 + 1j, phi=phi))
    rng = np.random.default_rng(29)
    for key in ("base", "up", "down"):
        tab = e._tables[key]
        nodes = tab.t[rng.choice(tab.t.size, 40, replace=False)]
        rim = rng.uniform(1e-6, 1e-4, 40) * np.exp(2j * PI * rng.random(40))
        ends = rng.uniform(1e-4, 1e-2, 40) * np.exp(2j * PI * rng.random(40))
        far = 3.0 * (rng.standard_normal(60) + 1j * rng.standard_normal(60))
        t = np.concatenate([far, nodes + rim, ends, 1.0 + ends])
        want, near = _reference_cauchy_eval(t, tab)
        assert near.sum() >= 120 and (~near).sum() >= 20
        got = e._cauchy_eval(t, tab)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
