"""Quick tests of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py        or        python3 -m pytest perfbench/selftest.py

Every workload runs at a tiny size, and every output check is shown to
reject an injected fault: a NaN sample counted as a success, a wrong
boundary value, a value off the decomposition contour and a failing
certification report.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from wedgebvp import PolarPoint, solver, verify  # noqa: E402

PI = math.pi


def tiny(name):
    return {
        "grid_cauchy": workloads.GridWorkload(7.0 * PI / 4.0, n_rho=2, n_cuts=3),
        "grid_elementary": workloads.GridWorkload(1.5 * PI, n_rho=4, n_cuts=3),
        "points_domain": workloads.PointsWorkload(n_sets=1, n_interior=2),
        "verify_suite": workloads.VerifyWorkload(workloads.VERIFY_CONFIGS[2:4]),
    }[name]


def measure(name, seed=0, tracer=None):
    return run.measure(tiny(name), np.random.default_rng(seed), 0.0, tracer)


def _nan_first(samples):
    s = samples[0]
    return [dataclasses.replace(s, value=complex("nan"))] + samples[1:]


def _offset_value(sample, delta=1e-3):
    return dataclasses.replace(sample, value=sample.value + delta)


class WorkloadsRunTiny(unittest.TestCase):
    def test_grid_workloads_pass_their_checks(self):
        for name in ("grid_cauchy", "grid_elementary"):
            res = measure(name)
            self.assertEqual((res.attempted, res.failed), (3 * res.rounds, 0), name)
            self.assertEqual(res.problems, [], name)

    def test_points_domain_fails_only_the_fixed_fault_points(self):
        res = measure("points_domain", seed=3)
        n_fault = sum(len(f[4]) for f in workloads.FAULT_SETS)
        self.assertEqual(res.attempted, res.rounds * (4 + n_fault))
        self.assertEqual(res.failed, res.rounds * n_fault)
        self.assertTrue(all(f.startswith("QuadratureError") for f in res.failures))
        self.assertEqual(res.problems, [])

    def test_verify_suite_reports_pass(self):
        res = measure("verify_suite")
        self.assertEqual((res.attempted, res.failed), (2 * res.rounds, 0))
        self.assertEqual(res.problems, [])

    def test_same_seed_same_inputs(self):
        for name in workloads.NAMES:
            a = tiny(name).draw(np.random.default_rng(7))
            b = tiny(name).draw(np.random.default_rng(7))
            self.assertEqual(repr(a), repr(b), name)


class ChecksRejectFaults(unittest.TestCase):
    def test_nan_grid_sample_is_rejected(self):
        real = solver.grid_eval
        with mock.patch.object(solver, "grid_eval", lambda *a, **k: _nan_first(real(*a, **k))):
            res = measure("grid_cauchy")
        self.assertEqual(res.failed, 0)
        self.assertTrue(any("non-finite" in p for p in res.problems), res.problems)

    def test_wrong_boundary_value_is_rejected(self):
        real = solver.grid_eval

        def shifted(spec, *a, **k):
            samples = real(spec, *a, **k)
            return [_offset_value(s) if s.point.theta == 2.0 * PI else s for s in samples]

        with mock.patch.object(solver, "grid_eval", shifted):
            res = measure("grid_elementary")
        self.assertEqual(len(res.problems), 4 * res.rounds, res.problems)
        self.assertTrue(all("boundary value" in p for p in res.problems))

    def test_wrong_boundary_point_in_sweep_is_rejected(self):
        real = solver.U_total

        def shifted(pt, e1, *a, **k):
            s = real(pt, e1, *a, **k)
            return _offset_value(s) if pt.theta == e1.params.theta_min else s

        with mock.patch.object(solver, "U_total", shifted):
            res = measure("points_domain", seed=3)
        self.assertEqual(len(res.problems), res.rounds)
        self.assertIn("boundary value", res.problems[0])

    def test_value_off_the_decomposition_contour_is_rejected(self):
        real = solver.U_total

        def shifted(pt, e1, *a, **k):
            s = real(pt, e1, *a, **k)
            inside = e1.params.theta_min < pt.theta < e1.params.theta_max
            return _offset_value(s, 1e-4) if inside else s

        with mock.patch.object(solver, "U_total", shifted):
            res = measure("points_domain", seed=3)
        self.assertEqual(len(res.problems), 2 * res.rounds)
        self.assertTrue(all("decomposition contour" in p for p in res.problems))

    def test_large_doubling_estimate_is_rejected(self):
        p = workloads.make("grid_cauchy").params
        s = solver.FieldSample(PolarPoint(1.0, 5.0), 0.1 + 0j, "FullContour", 2e-6)
        self.assertIn("est_quad_error", workloads.check_samples([s], p)[0])
        good = solver.FieldSample(
            PolarPoint(1.0, p.theta_min), cmath.exp(-1j * p.k2), "FullContour", 1e-9)
        self.assertEqual(workloads.check_samples([good], p), [])

    def test_failing_verify_report_is_rejected(self):
        real = verify.run_full_suite

        def failing(params, seed):
            report = real(params, seed=seed)
            report.checks[0].passed = False
            report.overall = False
            return report

        with mock.patch.object(verify, "run_full_suite", failing):
            res = measure("verify_suite")
        self.assertEqual(res.failed, 0)
        self.assertTrue(any("report overall is False" in p for p in res.problems))

    def test_report_missing_a_check_is_rejected(self):
        report = verify.run_full_suite(workloads.VERIFY_CONFIGS[2])
        self.assertEqual(workloads.check_report(report), [])
        report.checks = report.checks[1:]
        self.assertIn("not the eight expected", workloads.check_report(report)[0])


class TracerAndRunner(unittest.TestCase):
    def test_tracer_counts_kernel_sweeps_and_restores_originals(self):
        original = solver.u1_field
        tracer = Tracer().install()
        try:
            self.assertIsNot(solver.u1_field, original)
            res = measure("grid_cauchy", tracer=tracer)
        finally:
            tracer.uninstall()
        self.assertIs(solver.u1_field, original)
        m = tracer.layer_metrics(res.attempted)
        # Two engines, coarse and refined contour: four sweeps per cut, shared
        # by the 2 * n_rho calls of u1_field.
        self.assertEqual(m["kernel.v1_calls"][0], 4.0)
        self.assertEqual(m["solver.kernel_sweeps_per_u1"][0], 4.0 / (2 * 2))
        self.assertGreater(m["kernel.a1_s"][0], 0.0)
        self.assertEqual(m["contour.refined_nodes"][0], 2 * m["contour.nodes"][0])

    def test_tail_percentile_keeps_ten_samples_beyond_it(self):
        for name in workloads.NAMES:
            w = workloads.make(name)
            inputs = w.draw(np.random.default_rng(0))
            if name == "points_domain":
                inputs = [pt for s in inputs for pt in s.points]
            n_min = w.min_rounds * len(inputs)
            self.assertGreaterEqual(n_min * (1.0 - w.tail_pct / 100.0), 10.0, name)
            self.assertGreater(w.tail_pct, 50.0, name)

    def test_refuses_to_run_without_the_program(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "grid_cauchy",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        plain = measure("grid_elementary")
        tracer = Tracer().install()
        try:
            traced = measure("grid_elementary", tracer=tracer)
        finally:
            tracer.uninstall()
        for metrics, declared in (
            (run.end_to_end(plain, 95.0), spec["end_to_end"]),
            (run.per_layer(tracer, plain, traced), spec["per_layer"]),
        ):
            self.assertEqual({k: u for k, (v, u) in metrics.items()},
                             {m["name"]: m["unit"] for m in declared})
            self.assertTrue(all(math.isfinite(v) for v, u in metrics.values()))


if __name__ == "__main__":
    unittest.main()
