"""Tests for the configuration file format and the command line verbs."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import wedgebvp
from wedgebvp.cli import main, parse_config
from wedgebvp.core import PI
from wedgebvp.errors import DomainError, ParseError

BASE = """
# half-plane-with-slit benchmark
phi = {phi}
omega_re = 0.0
omega_im = 1.0
""".format(phi=1.5 * math.pi)


def test_parse_config_minimal_defaults():
    cfg = parse_config(f"phi = {1.5 * math.pi}\n")
    assert cfg.params.omega == 1j
    assert cfg.params.k1 == 1.0 and cfg.params.k2 == 1.0
    assert cfg.grid.n_rho == 10 and cfg.grid.n_theta == 10
    assert cfg.command == "verify"


def test_parse_config_full():
    text = (
        f"phi = {7 * math.pi / 4}\n"
        "omega_re = 0.5\nomega_im = 1.0\nk1 = 1.0\nk2 = 2.0\n"
        "rho_min = 0.3\nrho_max = 1.5\nn_rho = 4\n"
        f"theta_min = {1.6 * math.pi}\ntheta_max = {1.9 * math.pi}\nn_theta = 3\n"
        "seed = 7\nout_field = out.csv\n"
    )
    cfg = parse_config(text, command="field")
    assert cfg.params.omega == 0.5 + 1j
    assert cfg.params.k2 == 2.0
    assert cfg.seed == 7
    assert cfg.outputs == {"out_field": "out.csv"}
    assert np.allclose(cfg.grid.rho_values(), [0.3, 0.7, 1.1, 1.5])


def test_parse_config_comments_and_blank_lines():
    cfg = parse_config(BASE)
    assert cfg.params.phi == pytest.approx(1.5 * math.pi)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ParseError) as err:
        parse_config(BASE + "wavelength = 3\n")
    assert "wavelength" in str(err.value)


def test_parse_config_rejects_duplicate_and_garbage():
    with pytest.raises(ParseError):
        parse_config(BASE + f"phi = {1.5 * math.pi}\n")
    with pytest.raises(ParseError):
        parse_config(BASE + "n_rho = many\n")
    with pytest.raises(ParseError):
        parse_config(BASE + "just some words\n")
    with pytest.raises(ParseError):
        parse_config("omega_im = 1.0\n")  # phi missing


def test_parse_config_validates_angle():
    with pytest.raises(DomainError):
        parse_config("phi = 3.0\n")


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_main_config_error_exit_code(tmp_path):
    bad = _write(tmp_path, "bad.cfg", "phi = 3.0\n")
    assert main(["verify", "--config", bad]) == 1
    assert main(["verify", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert main(["verify"]) == 1  # argparse failure, not SystemExit


def test_module_entry_point_runs_main(tmp_path):
    src = os.path.dirname(os.path.dirname(wedgebvp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "wedgebvp.cli", "verify",
         "--config", str(tmp_path / "missing.cfg")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert "configuration error" in proc.stderr


def test_field_command_writes_grid(tmp_path):
    out = tmp_path / "field.csv"
    cfgp = _write(
        tmp_path, "f.cfg",
        f"phi = {1.5 * math.pi}\nrho_min = 0.5\nrho_max = 1.0\nn_rho = 10\n"
        f"theta_min = {1.55 * math.pi}\ntheta_max = {1.95 * math.pi}\n"
        f"n_theta = 10\nout_field = {out}\n",
    )
    assert main(["field", "--config", cfgp]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3 + 100
    data = np.loadtxt(out, delimiter=",", skiprows=3,
                      usecols=(0, 1, 2, 3, 4))
    assert data.shape == (100, 5)
    assert np.all(np.isfinite(data))
    # abs_u column consistent with re/im.
    assert np.allclose(np.hypot(data[:, 2], data[:, 3]), data[:, 4])


def test_field_command_reports_failures_on_stderr(tmp_path, capsys, monkeypatch):
    # One stderr line per failing class, with its count and first message;
    # stdout keeps its one summary line.
    from wedgebvp import solver
    from wedgebvp.errors import PoleError, QuadratureError

    real_total = solver.U_total

    def flaky(pt, *args, **kwargs):
        if pt.rho > 0.9:
            raise QuadratureError(f"too wide at rho={pt.rho:g}")
        if pt.rho < 0.6:
            raise PoleError("pole in the way")
        return real_total(pt, *args, **kwargs)

    monkeypatch.setattr(solver, "U_total", flaky)
    out = tmp_path / "field.csv"
    cfgp = _write(
        tmp_path, "f.cfg",
        f"phi = {1.5 * math.pi}\nrho_min = 0.5\nrho_max = 1.0\nn_rho = 3\n"
        f"n_theta = 2\nout_field = {out}\n",
    )
    assert main(["field", "--config", cfgp]) == 2
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out}: 6 samples, 4 failed\n"
    assert captured.err.splitlines() == [
        "2 points failed with PoleError; first: pole in the way",
        "2 points failed with QuadratureError; first: too wide at rho=1",
    ]


def test_verify_command_report_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    base = f"phi = {1.5 * math.pi}\n"
    c1 = _write(tmp_path, "v1.cfg", base + f"out_report = {out1}\n")
    c2 = _write(tmp_path, "v2.cfg", base + f"out_report = {out2}\n")
    assert main(["verify", "--config", c1]) == 0
    assert "overall: pass" in capsys.readouterr().out
    assert main(["verify", "--config", c2]) == 0
    a = [ln for ln in out1.read_text().splitlines() if "timestamp" not in ln]
    b = [ln for ln in out2.read_text().splitlines() if "timestamp" not in ln]
    assert a == b
    payload = json.loads(out1.read_text())
    assert payload["overall"] is True
    assert payload["params"]["seed"] == 20260825


def test_kernel_dump_columns(tmp_path):
    out = tmp_path / "kernel.csv"
    cfgp = _write(
        tmp_path, "k.cfg",
        f"phi = {1.5 * math.pi}\nrho_min = 0.5\nout_kernel = {out}\n",
    )
    assert main(["kernel-dump", "--config", cfgp]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "re_w,im_w,re_g,im_g,re_g2,im_g2,re_v11,im_v11,re_v1,im_v1"
    data = np.loadtxt(out, delimiter=",", skiprows=2)
    assert data.shape[1] == 10
    # v1 = v11 - g at every node.
    v1 = data[:, 8] + 1j * data[:, 9]
    v11 = data[:, 6] + 1j * data[:, 7]
    g = data[:, 2] + 1j * data[:, 3]
    assert np.max(np.abs(v1 - (v11 - g))) < 1e-12


def test_decompose_command_bookkeeping(tmp_path):
    out = tmp_path / "dec.csv"
    cfgp = _write(
        tmp_path, "d.cfg",
        f"phi = {1.5 * math.pi}\n"
        f"theta_min = {1.2 * math.pi}\ntheta_max = {1.9 * math.pi}\n"
        f"n_theta = 8\nout_decompose = {out}\n",
    )
    assert main(["decompose", "--config", cfgp, "--rho", "1.0"]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=3)
    assert data.shape == (8, 7)
    theta = data[:, 0]
    up = data[:, 1] + 1j * data[:, 2]
    ud = data[:, 3] + 1j * data[:, 4]
    u1 = data[:, 5] + 1j * data[:, 6]
    ray = np.abs(theta - 1.5 * math.pi) < 1e-12
    lit = (theta > 1.5 * math.pi) & ~ray
    dark = (theta < 1.5 * math.pi) & ~ray
    assert np.max(np.abs((ud + up)[lit] - u1[lit])) < 1e-6
    assert np.max(np.abs(ud[dark] - u1[dark])) < 1e-6
    assert np.all(up[dark] == 0.0)
    # On the crossing ray only half the plane wave contributes.
    assert np.count_nonzero(ray) == 1
    assert np.max(np.abs((ud + 0.5 * up)[ray] - u1[ray])) < 1e-4


def test_field_command_keeps_every_point_at_a_second_wavenumber(tmp_path):
    # omega = 0.5+i, Phi = 7pi/4, k2 = 2 over the whole wedge: on the double
    # loop 4653 of these 10000 points failed their doubling check.
    out = tmp_path / "field.csv"
    cfgp = _write(
        tmp_path, "f.cfg",
        f"phi = {7 * math.pi / 4}\nomega_re = 0.5\nk2 = 2.0\n"
        "rho_min = 0.3\nrho_max = 3.0\nn_rho = 100\n"
        f"theta_min = {math.pi / 4}\ntheta_max = {2 * math.pi}\nn_theta = 100\n"
        f"out_field = {out}\n",
    )
    assert main(["field", "--config", cfgp]) == 0
    data = np.loadtxt(out, delimiter=",", skiprows=3, usecols=(0, 1, 2, 3, 6))
    assert data.shape == (10000, 5)
    assert np.all(data[:, 4] <= 1e-12)
    u = data[:, 2] + 1j * data[:, 3]
    lit, dark = data[:, 1] == 2 * math.pi, data[:, 1] == math.pi / 4
    assert lit.sum() == dark.sum() == 100
    assert np.max(np.abs(u[lit] - np.exp(-1j * data[lit, 0]))) <= 1e-12
    assert np.max(np.abs(u[dark] - np.exp(-2j * data[dark, 0]))) <= 1e-12
