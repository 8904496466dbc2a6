"""Configuration-driven command line entry point.

Four verbs:

* ``field``        evaluate the total field on a polar grid, write CSV
* ``verify``       run the full certification suite, write a JSON report
* ``kernel-dump``  tabulate G, G2, v11, v1 along the integration contour
* ``decompose``    theta sweep at fixed rho of u_p, u_d and u1 side by side

Configuration is a flat key=value file (# comments allowed); unknown keys
are rejected.  All numeric output uses 17 significant digits so reruns with
the same config and seed reproduce artifacts byte-identically, except for
one timestamp header line.

Exit codes: 0 success, 1 configuration error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import datetime
import sys
from dataclasses import dataclass
from typing import Dict

import numpy as np

from .contour import decomposition_contour, sommerfeld_double_loop
from .core import PI, PolarPoint, ProblemParams, Tolerances, validate_params
from .errors import DomainError, ParseError, WedgeError
from .kernel import build_engine
from . import solver, verify
from .solver import GridSpec

_FLOAT_KEYS = {
    "omega_re", "omega_im", "phi", "k1", "k2",
    "rho_min", "rho_max", "theta_min", "theta_max",
    "quad_rel", "id_tol", "pole_clearance",
}
_INT_KEYS = {"n_rho", "n_theta", "seed"}
_PATH_KEYS = {"out_field", "out_report", "out_kernel", "out_decompose"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _PATH_KEYS


@dataclass
class RunConfig:
    params: ProblemParams
    grid: GridSpec
    outputs: Dict[str, str]
    seed: int = verify.DEFAULT_SEED


def parse_config(text: str) -> RunConfig:
    raw: Dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected key=value, got {line!r}",
                             line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}",
                             line=lineno, key=key)
        if key in raw:
            raise ParseError(f"line {lineno}: duplicate key {key!r}",
                             line=lineno, key=key)
        try:
            if key in _FLOAT_KEYS:
                raw[key] = float(value)
            elif key in _INT_KEYS:
                raw[key] = int(value)
            else:
                raw[key] = value
        except ValueError:
            raise ParseError(
                f"line {lineno}: cannot parse value {value!r} for key {key!r}",
                line=lineno, key=key,
            )
    if "phi" not in raw:
        raise ParseError("missing required key 'phi'", key="phi")
    tol = Tolerances(
        quad_rel=float(raw.get("quad_rel", 1e-10)),
        id_tol=float(raw.get("id_tol", 1e-6)),
        pole_clearance=float(raw.get("pole_clearance", 1e-3)),
    )
    omega = complex(float(raw.get("omega_re", 0.0)), float(raw.get("omega_im", 1.0)))
    params = ProblemParams(
        omega=omega,
        phi=float(raw["phi"]),
        k1=float(raw.get("k1", 1.0)),
        k2=float(raw.get("k2", 1.0)),
        tol=tol,
    )
    validate_params(params)
    grid = GridSpec(
        rho_min=float(raw.get("rho_min", 0.5)),
        rho_max=float(raw.get("rho_max", 2.0)),
        n_rho=int(raw.get("n_rho", 10)),
        theta_min=float(raw.get("theta_min", params.theta_min + 0.05)),
        theta_max=float(raw.get("theta_max", params.theta_max - 0.05)),
        n_theta=int(raw.get("n_theta", 10)),
    )
    outputs = {k: str(raw[k]) for k in _PATH_KEYS if k in raw}
    return RunConfig(
        params=params, grid=grid, outputs=outputs,
        seed=int(raw.get("seed", verify.DEFAULT_SEED)),
    )


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _cmd_field(cfg: RunConfig) -> int:
    e1 = build_engine(cfg.params, cfg.params.k1)
    e2 = build_engine(cfg.params, cfg.params.k2)
    cont = decomposition_contour(cfg.params, rho_min=min(0.25, cfg.grid.rho_min))
    samples = solver.grid_eval(cfg.grid, e1, cont, engine2=e2)
    out = cfg.outputs.get("out_field", "field.csv")
    solver.field_csv(samples, out, cfg.params, timestamp=_timestamp())
    failures: Dict[str, list] = {}  # class -> [count, first message]
    for s in samples:
        if s.method.startswith("error"):
            failures.setdefault(s.method, [0, s.message])[0] += 1
    for method, (count, message) in failures.items():
        print(f"{count} points failed with {method.split(':', 1)[1]}; first: {message}",
              file=sys.stderr)
    bad = sum(count for count, _ in failures.values())
    print(f"wrote {out}: {len(samples)} samples, {bad} failed")
    return 0 if bad == 0 else 2


def _cmd_verify(cfg: RunConfig) -> int:
    report = verify.run_full_suite(cfg.params, seed=cfg.seed)
    out = cfg.outputs.get("out_report", "report.json")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json(timestamp=_timestamp()))
        fh.write("\n")
    print(report.table())
    print(f"wrote {out}")
    return 0 if report.overall else 3


def _cmd_kernel_dump(cfg: RunConfig) -> int:
    engine = build_engine(cfg.params, cfg.params.k1)
    cont = sommerfeld_double_loop(cfg.params, rho_min=cfg.grid.rho_min)
    out = cfg.outputs.get("out_kernel", "kernel.csv")
    w = cont.w
    cols = {
        "g": engine.g_hat(w),
        "g2": engine.g2_hat(w),
        "v11": engine.v11_hat(w),
        "v1": engine.v1_hat(w),
    }
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"# timestamp: {_timestamp()}\n")
        names = ",".join(f"re_{n},im_{n}" for n in cols)
        fh.write(f"re_w,im_w,{names}\n")
        for i in range(w.size):
            row = [f"{w[i].real:.17g}", f"{w[i].imag:.17g}"]
            for vals in cols.values():
                row.append(f"{vals[i].real:.17g}")
                row.append(f"{vals[i].imag:.17g}")
            fh.write(",".join(row) + "\n")
    print(f"wrote {out}: {w.size} nodes")
    return 0


def _cmd_decompose(cfg: RunConfig, rho: float) -> int:
    p = cfg.params
    engine = build_engine(p, p.k1)
    cont = sommerfeld_double_loop(p, rho_min=min(0.25, rho))
    dec = decomposition_contour(p, rho_min=min(0.25, rho))
    thetas = np.linspace(cfg.grid.theta_min, cfg.grid.theta_max, cfg.grid.n_theta)
    out = cfg.outputs.get("out_decompose", "decompose.csv")
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(f"# timestamp: {_timestamp()}\n")
        fh.write(f"# rho: {rho:.17g}\n")
        fh.write("theta,re_u_p,im_u_p,re_u_d,im_u_d,re_u1,im_u1\n")
        for th in thetas:
            pt = PolarPoint(rho, float(th))
            share = solver.plane_share(pt.theta)
            full = solver.u1_field(pt, engine, cont).value
            # The principal value is needed exactly on the ray (share 1/2).
            dec_s = solver.u1_decomposed(pt, engine, dec, pv=share == 0.5)
            up = solver.u_plane(pt, engine) if th >= 1.5 * PI else 0.0 + 0.0j
            ud = dec_s.value - share * up
            fh.write(
                f"{th:.17g},{up.real:.17g},{up.imag:.17g},"
                f"{ud.real:.17g},{ud.imag:.17g},{full.real:.17g},{full.imag:.17g}\n"
            )
    print(f"wrote {out}: {thetas.size} rows")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="wedgebvp",
        description="Sommerfeld-integral solver for the Dirichlet problem "
                    "in a nonconvex plane angle",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for verb in ("field", "verify", "kernel-dump", "decompose"):
        sp = sub.add_parser(verb)
        sp.add_argument("--config", required=True, help="key=value config file")
        if verb == "decompose":
            sp.add_argument("--rho", type=float, default=1.0)
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        with open(ns.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        cfg = parse_config(text)
    except (OSError, ParseError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        if ns.command == "field":
            return _cmd_field(cfg)
        if ns.command == "verify":
            return _cmd_verify(cfg)
        if ns.command == "kernel-dump":
            return _cmd_kernel_dump(cfg)
        return _cmd_decompose(cfg, ns.rho)
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except WedgeError as exc:
        print(f"numerical failure: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
