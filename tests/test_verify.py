"""Tests for the certification suite itself.

Besides running the full suite on known-good parameter sets, these tests
inject a deliberate kernel corruption and confirm that the suite detects it,
and that the report serialization is reproducible bit-for-bit under a fixed
seed.
"""

import json

import numpy as np
import pytest

from wedgebvp.core import PI, ProblemParams
from wedgebvp.kernel import _lattice_distance, build_engine
from wedgebvp.verify import (
    CheckResult,
    DEFAULT_SEED,
    check_asymptotics,
    check_automorphy,
    check_boundary,
    check_difference_equation,
    check_pole_portrait,
    residue_at,
    run_full_suite,
    _sample_points,
)
from wedgebvp.contour import sommerfeld_double_loop


def test_residue_at_simple_pole():
    w0 = 0.3 + 0.7j
    assert abs(residue_at(lambda z: 1.0 / (z - w0), w0) - 1.0) < 1e-13
    assert abs(residue_at(lambda z: (2.0 - 1j) / (z - w0) + np.cos(z), w0)
               - (2.0 - 1j)) < 1e-12


def test_residue_at_analytic_function_is_zero():
    assert abs(residue_at(np.exp, 0.1 + 0.2j)) < 1e-14


def test_residue_at_matches_branch_data():
    e = build_engine(ProblemParams(omega=0.5 + 1j, phi=7 * PI / 4))
    assert abs(residue_at(e.g_hat, e.branch.p1) - e.branch.r2) < 1e-12


def test_check_result_pass_logic():
    assert CheckResult.make("x", 1e-13, 1e-12).passed
    assert not CheckResult.make("x", 2e-12, 1e-12).passed
    assert CheckResult.make("x", 0.0, 0.0).passed


def test_elementary_identities_hit_machine_precision():
    e = build_engine(ProblemParams(omega=1j, phi=1.5 * PI))
    assert check_difference_equation(e).measured < 1e-12
    assert check_automorphy(e).measured < 1e-12
    assert check_pole_portrait(e).measured < 1e-7


def test_full_suite_passes_default_params():
    report = run_full_suite(ProblemParams(omega=1j, phi=1.5 * PI))
    assert report.overall, report.table()
    assert [c.name for c in report.checks] == sorted(c.name for c in report.checks)
    assert len(report.checks) == 8


def test_full_suite_passes_cauchy_params():
    report = run_full_suite(ProblemParams(omega=0.5 + 1j, phi=7 * PI / 4))
    assert report.overall, report.table()


def test_full_suite_never_raises_on_bad_params():
    report = run_full_suite(ProblemParams(omega=1.0 + 0.0j, phi=1.5 * PI))
    assert not report.overall
    assert report.checks[0].name == "setup"
    assert "error" in report.checks[0].context


def test_report_json_is_deterministic():
    p = ProblemParams(omega=1j, phi=1.5 * PI)
    a = run_full_suite(p, seed=DEFAULT_SEED).to_json(timestamp="T")
    b = run_full_suite(p, seed=DEFAULT_SEED).to_json(timestamp="T")
    assert a == b
    payload = json.loads(a)
    assert payload["timestamp"] == "T"
    assert payload["overall"] is True
    # The timestamp occupies exactly one line, so reports from different
    # moments differ in a single line only.
    stamped = [ln for ln in a.splitlines() if "timestamp" in ln]
    assert len(stamped) == 1


def test_report_table_format():
    report = run_full_suite(ProblemParams(omega=1j, phi=1.5 * PI))
    table = report.table()
    assert table.splitlines()[-1] == "overall: pass"
    assert "boundary" in table and "helmholtz" in table


def test_injected_constant_corruption_is_detected():
    # Adding a constant to the kernel leaves the difference equation, the
    # automorphy, the residue portrait and even the boundary values intact
    # (a constant integrates to zero against e^{-omega*rho*sinh w} over the
    # closed loops); only the far-field normalization check sees it, which
    # is exactly why that check exists.
    p = ProblemParams(omega=0.5 + 1j, phi=7 * PI / 4)
    e1 = build_engine(p)
    e1.const_C2 = e1.const_C2 + 0.01
    e2 = build_engine(p, k=p.k2)
    contour = sommerfeld_double_loop(p, rho_min=0.2)
    assert check_difference_equation(e1).passed
    assert check_automorphy(e1).passed
    assert check_pole_portrait(e1).passed
    assert check_boundary(e1, e2, contour).passed
    assert not check_asymptotics(e1).passed


def test_seed_changes_sampled_context():
    p = ProblemParams(omega=1j, phi=1.5 * PI)
    e = build_engine(p)
    a = check_difference_equation(e, seed=1)
    b = check_difference_equation(e, seed=2)
    assert a.passed and b.passed
    assert a.context != b.context


def test_sampled_images_clear_the_g2_pole_lattice():
    # Every image the difference-equation and automorphy checks form from a
    # sample must keep the clearance from all G2 poles, not only from the
    # few listed by pole_list().
    e = build_engine(ProblemParams(omega=1j, phi=4 * PI / 3))
    shifts = np.array([0.0, 2j * e.phi, -2j * e.phi, 1j * PI])
    for seed in range(200):
        w = _sample_points(e, 100, np.random.default_rng(seed))
        images = np.concatenate([w[:, None] + shifts,
                                 -w[:, None] + 1j * PI + shifts[:3]], axis=1)
        d, _ = _lattice_distance(images.ravel(), e._g2_anchors(), 2j * PI)
        assert d.min() > 0.05, seed


@pytest.mark.parametrize("params, seed", [
    # A sample 8.7e-4 from a G2 pole outside pole_list() (PoleError before).
    (ProblemParams(omega=1j, phi=4 * PI / 3), 1792600487),
    # The Elementary difference equation at 1.18e-12 before the periodic
    # reduction in m_func/Q_func; its exact floor is 6.46e-13.
    (ProblemParams(omega=0.5 + 1j, phi=1.5 * PI), 1033173053),
    # The difference equation at 1.0247e-12: the check's own rounding of
    # w + 2i*Phi, now exact for samples on the 2^-40 grid in Im w.
    (ProblemParams(omega=0.5 + 1j, phi=1.5 * PI), 187880360),
])
def test_full_suite_passes_former_failures(params, seed):
    report = run_full_suite(params, seed=seed)
    assert report.overall, report.table()


def test_asymptotics_checks_elementary_g2_tail():
    # G2 tends to -+2i*sin(Phi) as Re w -> +-infinity at Phi = 3*pi/2 too;
    # at W = 12 it is within 5e-10 of the limit.
    for omega in (1j, 0.5 + 1j):
        res = check_asymptotics(build_engine(ProblemParams(omega=omega, phi=1.5 * PI)))
        assert res.passed
        assert abs(res.context["g2_tail_plus"] - 2j) < 1e-9
        assert abs(res.context["g2_tail_minus"] + 2j) < 1e-9


@pytest.mark.parametrize("params", [
    ProblemParams(omega=1 + 0.3j, phi=1.5 * PI),
    ProblemParams(omega=1 + 0.3j, phi=7 * PI / 4),
    ProblemParams(omega=0.3 + 0.1j, phi=4 * PI / 3),
    ProblemParams(omega=0.5 + 1j, phi=7 * PI / 4, k2=2.0),
])
def test_full_suite_passes_where_the_double_loop_failed(params):
    # Each failed its boundary, helmholtz or contour_independence check on
    # the double loop or the rectilinear loop.
    report = run_full_suite(params)
    assert report.overall, report.table()
