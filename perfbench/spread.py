"""Run the benchmark over several seeds and report each metric's spread.

For every workload and seed it runs ``run.py`` as a separate process and
reads its JSON line.  Per metric it prints the median over the seeds and
the distance between the first and third quartile as a share of the
median, which BENCHMARK.json's bounds are meant to exceed.  Usage::

    python3 perfbench/spread.py --workloads trees-n16 --seeds 5
    python3 perfbench/spread.py --seeds 10 --write perfbench/baseline.json --commit <sha>
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv: list[str]) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", type=Path, help="save medians and spreads as JSON here")
    parser.add_argument("--commit", default="unknown", help="commit measured, recorded with --write")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}

    summary = {}
    for name in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: output checks failed\n{out}", file=sys.stderr)
                return 1
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        summary[name] = {}
        for metric in runs[0]:
            values = [r[metric] for r in runs]
            row = {"median": statistics.median(values), "iqr_frac": spread(values),
                   "min": min(values), "max": max(values), "values": values}
            summary[name][metric] = row
            bound = bounds.get(metric)
            if bound is None:
                note = ""
            else:
                iqr = row["iqr_frac"]
                verdict = "steady" if iqr < bound / 3 else "within bound" if iqr < bound else "OVER BOUND"
                if metric == "setup_s":
                    verdict += " (its spread is not gated, only its median)"
                note = f"  bound {bound}  {verdict}"
            print(f"{name:18} {metric:34} median {row['median']:<12.6g} iqr/median {row['iqr_frac']:.4f}"
                  f"  range {row['min']:.6g}..{row['max']:.6g}{note}", flush=True)

    if args.write:
        record = {
            "commit": args.commit,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "seeds": list(range(args.first_seed, args.first_seed + args.seeds)),
            "run_seconds": config["run_seconds"],
            "trace": args.trace,
            "workloads": summary,
        }
        args.write.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
