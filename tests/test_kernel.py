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
from wedgebvp.errors import DomainError, PoleError
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


def _strip_point(e, x, sigma):
    """The point at abscissa x and strip coordinate sigma above the carrier."""
    r = e.omega.real / e.omega.imag
    return x + 1j * (math.atan(r * math.tanh(x)) + PI / 2.0 - e.phi + sigma)


@pytest.mark.parametrize("omega, phi", [
    (1j, 4 * PI / 3), (0.5 + 1j, 7 * PI / 4), (1 + 0.3j, 7 * PI / 4),
])
def test_v11_continuous_across_strip_edges(omega, phi):
    # a1 in the strip is a Cauchy-type integral along L = Gamma_{pi/2-Phi}
    # whose jump across L is G2; the difference equation continues it past
    # both edges sigma = 0 and 2*Phi, so v11 has no jump there.
    e = build_engine(ProblemParams(omega=omega, phi=phi))
    for x in (-2.3, -0.7, 0.0, 0.4, 1.9):
        for edge in (0.0, 2.0 * phi):
            w = _strip_point(e, x, edge)
            # v11 at w +- eps*i, less the first-order part that the points
            # at +-2*eps*i carry as well.
            f = [e.v11_hat(w + 1j * s) for s in (1e-9, -1e-9, 2e-9, -2e-9)]
            jump = (f[0] - f[1]) - 0.5 * (f[2] - f[3])
            assert abs(jump) < 1e-10, (x, edge)


@pytest.mark.parametrize("omega", [1j, 0.5 + 1j])
@pytest.mark.parametrize("phi", [1.05 * PI, 4 * PI / 3, 7 * PI / 4, 1.95 * PI])
def test_v11_growth_has_no_constant_term(omega, phi):
    # The normalisation: v11(w) = sign(Re w)*(sin Phi/Phi)*(w - pi*i/2) + o(1),
    # the remainder being e^{-pi*|Re w|/Phi} (at most 1.7e-10 at |Re w| = 40).
    e = build_engine(ProblemParams(omega=omega, phi=phi))
    for x in (40.0, -40.0):
        for sigma in (0.5, phi, 2.0 * phi - 0.5):
            w = _strip_point(e, x, sigma)
            lin = math.copysign(1.0, x) * (math.sin(phi) / phi) * (w - 0.5j * PI)
            assert abs(e.v11_hat(w) - lin) <= 1e-9, (x, sigma)


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


@pytest.mark.parametrize("phi", [1.5 * PI, 7 * PI / 4])
def test_two_dimensional_input_returns_the_reshaped_flat_values(phi):
    # The pole guard took a flat argmin and indexed axis 0 with it, which
    # raised a bare IndexError (or ValueError) on a 2-D array.
    e = build_engine(ProblemParams(omega=0.5 + 1j, phi=phi))
    rng = np.random.default_rng(7)
    w = (rng.uniform(-2.0, 2.0, 12) + 1j * rng.uniform(-1.0, 1.0, 12)).reshape(3, 4)
    for f in (e.g_hat, e.g2_hat, e.v11_hat, e.v1_hat):
        got = f(w)
        assert got.shape == (3, 4)
        assert np.array_equal(got.ravel(), f(w.ravel()))
