"""Benchmark of the wedgebvp solver: one workload per call.

    python3 perfbench/run.py --workload grid_cauchy --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  The workload runs whole rounds (set-up, then every
operation of the round) until ``--seconds`` have passed, checks every output
and prints, as the last line of standard output, one JSON object with the
keys correct, attempted, failed and metrics.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run first measures half the
time untraced, then half with the span tracer on, and reports the per-layer
figures, the tracing overhead, and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One thread per workload process: the solver's own pool and the numeric
# libraries' pools stay off.
os.environ.pop("WEDGE_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings above)

MAX_PROBLEMS_SHOWN = 10
SETUP_REPEATS = 3


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


@dataclass
class RunResult:
    latencies: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    elapsed: float = 0.0


def measure(workload, rng, seconds: float, tracer=None) -> RunResult:
    """Whole rounds until `seconds` of wall time have passed."""
    from wedgebvp.errors import WedgeError

    res = RunResult()
    start = time.perf_counter()
    while res.rounds < workload.min_rounds or time.perf_counter() - start < seconds:
        inputs = workload.draw(rng)
        # The set-up is timed SETUP_REPEATS times, the tracer sees only the
        # last one, whose engines and contours the operations use.
        for repeat in range(SETUP_REPEATS):
            if tracer is not None:
                tracer.op = -1
                tracer.active = repeat == SETUP_REPEATS - 1
            t0 = time.perf_counter()
            ctx = workload.setup(inputs)
            res.setups.append(time.perf_counter() - t0)
        for op in workload.operations(inputs, ctx):
            if tracer is not None:
                tracer.op = res.attempted
                tracer.active = True
            t0 = time.perf_counter()
            try:
                result, error = op.run(), None
            except WedgeError as exc:
                result, error = None, f"{exc.__class__.__name__}: {exc}"
            res.latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
            res.attempted += 1
            if error is None:
                error = op.failure(result)
            if error is not None:
                res.failed += 1
                res.failures.append(error)
            else:
                res.problems += op.check(result)
        res.rounds += 1
    res.elapsed = time.perf_counter() - start
    return res


def end_to_end(res: RunResult, tail_pct: float) -> dict:
    """The tail is a fixed percentile per workload, chosen so that its
    minimum number of rounds leaves at least ten samples beyond it; a level
    that followed the sample count would move with the program's speed."""
    n = len(res.latencies)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (percentile(res.setups, 50), "s"),
        "ops_per_s": (n / sum(res.latencies), "1/s"),
        "latency_p50_ms": (1e3 * percentile(res.latencies, 50), "ms"),
        "latency_tail_ms": (1e3 * percentile(res.latencies, tail_pct), "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(tracer, plain: RunResult, traced: RunResult) -> dict:
    """The tracer's layer figures plus the tracing overhead on ops_per_s."""
    untraced_rate = len(plain.latencies) / sum(plain.latencies)
    traced_rate = len(traced.latencies) / sum(traced.latencies)
    metrics = tracer.layer_metrics(traced.attempted)
    metrics["trace.op_mean_s"] = (sum(traced.latencies) / len(traced.latencies), "s/op")
    metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced_rate - traced_rate) / untraced_rate, "%")
    return metrics


def _write_spans(tracer, workload_name: str, seed: int) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload_name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    return path


def _summary(name, res: RunResult, tail_pct: float) -> str:
    beyond = len(res.latencies) * (1.0 - tail_pct / 100.0)
    return (
        f"{name}: {res.rounds} rounds, {res.attempted} operations "
        f"({res.failed} failed) in {res.elapsed:.1f} s; latency tail p{tail_pct:g} "
        f"with {beyond:.0f} samples beyond it"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "wedgebvp" / "__init__.py").is_file():
        print(f"error: no wedgebvp package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2
    workload = workloads.make(args.workload)
    rng = np.random.default_rng([args.seed, zlib.crc32(args.workload.encode())])

    if args.trace:
        from spans import Tracer

        half = args.seconds / 2.0
        plain = measure(workload, rng, half)
        tracer = Tracer().install()
        try:
            traced = measure(workload, rng, half, tracer)
        finally:
            tracer.uninstall()
        results = (plain, traced)
        metrics = per_layer(tracer, plain, traced)
        print(f"spans written to {_write_spans(tracer, args.workload, args.seed)}")
    else:
        results = (measure(workload, rng, args.seconds),)
        metrics = end_to_end(results[0], workload.tail_pct)

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    problems = [p for r in results for p in r.problems]
    failures = [f for r in results for f in r.failures]
    for r in results:
        print(_summary(args.workload, r, workload.tail_pct))
    for f in sorted(set(failures))[:MAX_PROBLEMS_SHOWN]:
        print(f"failed: {f}")
    for p in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"INCORRECT: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
