"""Reference figures: repeated runs per workload, their medians and spreads.

    python3 perfbench/reference.py --runs 10 --seconds 20 [--workloads a b] [--trace]

Runs ``run.py`` once per seed (seeds 1..runs), one process at a time, and
prints for every end-to-end metric the median and the quartile spread
(third minus first quartile over the median, as statistics.quantiles gives
them), plus the share of failed operations.  With ``--trace`` it adds one
traced run per workload and prints each layer's share of the mean operation
time.  All results are also written to ``perfbench/out/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=list(workloads.NAMES))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    report = {}
    for name in args.workloads:
        runs = [run_once(name, args.first_seed + i, args.seconds, 0) for i in range(args.runs)]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
            "attempted": [r["attempted"] for r in runs],
            "metrics": {},
        }
        print(f"\n{name}: correct={entry['correct']} failed share={entry['failed_share']} "
              f"attempted={entry['attempted']}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["metrics"][metric]["unit"]
            med = statistics.median(values)
            spr = spread(values) if len(values) > 1 else 0.0
            entry["metrics"][metric] = {"median": med, "spread": spr, "unit": unit,
                                        "values": values}
            print(f"  {metric:18s} median {med:12.5g} {unit:5s} spread {100 * spr:5.1f} %")
        if args.trace:
            traced = run_once(name, args.first_seed, args.seconds, 1)["metrics"]
            entry["trace"] = traced
            op = traced["trace.op_mean_s"]["value"]
            shares = ", ".join(
                f"{k} {100 * m['value'] / op:.1f} %" for k, m in traced.items()
                if m["unit"] == "s/op" and m["value"] and k != "trace.op_mean_s")
            print(f"  layer shares of the mean operation ({1e3 * op:.1f} ms): {shares}")
            print(f"  tracing overhead {traced['trace.overhead_pct']['value']:.1f} %")
        report[name] = entry
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "reference.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
