"""Tests for the w-plane curves and integration contours."""

import math

import numpy as np
import pytest

from wedgebvp.core import PI, TWO_PI, ProblemParams
from wedgebvp.contour import (
    _certify_tail,
    decay_rate,
    decomposition_contour,
    gamma_point,
    sommerfeld_double_loop,
    truncation_cutoff,
)
from wedgebvp.errors import DomainError, GeometryError


def test_gamma_point_flat_for_imaginary_omega():
    assert gamma_point(1j, 0.0, 3.7) == pytest.approx(3.7)


def test_gamma_point_limit_angle():
    w = gamma_point(1.0 + 1.0j, 0.0, 40.0)
    assert w.imag == pytest.approx(math.atan(1.0), abs=1e-12)


def test_gamma_point_offset_at_zero():
    w = gamma_point(1.0 + 1.0j, PI, 0.0)
    assert w == pytest.approx(1j * PI)


def test_gamma_curve_keeps_z1_real():
    # z1 = -i*omega*sinh(w) must be real along the alpha=0 curve.
    rng = np.random.default_rng(11)
    for _ in range(100):
        om = complex(rng.uniform(0.0, 3.0), rng.uniform(0.2, 3.0))
        w1 = float(rng.uniform(-4.0, 4.0))
        w = gamma_point(om, 0.0, w1)
        assert abs((-1j * om * np.sinh(w)).imag) < 1e-12 * max(1.0, abs(om) * math.cosh(w1))


def test_truncation_cutoff_unit_frequency():
    # With omega=i the decay constant is 1: invert exp(-rho*cosh W) = tol.
    assert truncation_cutoff(1j, PI / 2, 1.0, math.exp(-10.0)) == pytest.approx(
        math.acosh(10.0), abs=1e-12
    )
    assert truncation_cutoff(1j, PI / 2, 0.01, math.exp(-10.0)) == pytest.approx(
        math.acosh(1000.0), abs=1e-12
    )


def test_truncation_cutoff_rejects_tol_ge_one():
    with pytest.raises(DomainError):
        truncation_cutoff(1j, PI / 2, 1.0, 1.0)


def test_truncation_bound_holds_at_cutoff():
    for om in (1j, 0.5 + 1.0j):
        W = truncation_cutoff(om, PI / 2, 0.5, 1e-12)
        C = decay_rate(om)
        assert math.exp(-C * 0.5 * math.cosh(W)) <= 1e-12 * (1.0 + 1e-12)


def test_polyline_integrates_exactly_on_analytic_function():
    # The double loop integral of an entire function vanishes (both loops
    # close at infinity where the nodes were truncated in the decay region).
    p = ProblemParams(omega=1j, phi=1.5 * PI)
    cont = sommerfeld_double_loop(p, rho_min=0.5)
    val = cont.integrate(np.exp(-1j * np.sinh(cont.w)))
    assert abs(val) < 1e-9


def test_double_loop_mirror_symmetry():
    p = ProblemParams(omega=1j, phi=7 * PI / 4)
    cont = sommerfeld_double_loop(p, rho_min=0.5)
    half = len(cont) // 2
    w2 = cont.w[:half]
    w1 = cont.w[half:]
    # The second loop is the pointwise image -w - 3*pi*i of the first.
    assert np.max(np.abs(w1 - (-w2 - 3j * PI))) < 1e-14


def test_double_loop_certifies_tail():
    p = ProblemParams(omega=1j, phi=1.5 * PI)
    with pytest.raises(GeometryError):
        _certify_tail(p, 1.8, 0.5, p.tol.quad_rel)


def test_contour_components_present():
    p = ProblemParams(omega=0.5 + 1j, phi=7 * PI / 4)
    cont = sommerfeld_double_loop(p, rho_min=0.5)
    names = [name for name, _ in cont.components]
    assert names == [
        "lower_left_tail", "left_vertical", "upper_left_tail",
        "mirror_lower_left_tail", "mirror_left_vertical", "mirror_upper_left_tail",
    ]


def test_refined_contour_doubles_resolution():
    p = ProblemParams(omega=1j, phi=1.5 * PI)
    cont = sommerfeld_double_loop(p, rho_min=0.5)
    fine = cont.refined()
    assert len(fine) == 2 * len(cont)
    assert fine is cont.refined()  # cached


def test_decomposition_contour_flat_lines_for_imaginary_omega():
    p = ProblemParams(omega=1j, phi=1.5 * PI)
    cont = decomposition_contour(p, rho_min=0.5)
    comps = dict(cont.components)
    lower = cont.w[comps["lower_line"]]
    upper = cont.w[comps["upper_line"]]
    assert np.max(np.abs(lower.imag + 2.5 * PI)) < 1e-14
    assert np.max(np.abs(upper.imag + 0.5 * PI)) < 1e-14
    # Orientation: the upper line is traversed right to left.
    du = cont.dw[comps["upper_line"]] * cont.weight[comps["upper_line"]]
    assert np.sum(du).real < 0.0


def test_decomposition_matches_residue_of_rational_function():
    # Closing the two lines at infinity encloses the strip between them
    # counterclockwise; 1/sinh(w - w0) has simple poles at w0 + n*pi*i with
    # residues (-1)^n, two of which lie inside the strip for this w0.  The
    # Gaussian damping decays along the whole strip, so the closure at
    # Re w = +-infinity is legitimate.
    p = ProblemParams(omega=1j, phi=1.5 * PI)
    cont = decomposition_contour(p, rho_min=0.5).refined()
    w0 = 0.4 - 1.3j * PI

    def g(w):
        return np.exp(-(w + 1.5j * PI) ** 2) / np.sinh(w - w0)

    expected = 2j * PI * (
        np.exp(-(w0 + 1.5j * PI) ** 2) - np.exp(-(w0 + 0.5j * PI) ** 2)
    )
    assert abs(cont.integrate(g(cont.w)) - expected) < 1e-9 * abs(expected)

