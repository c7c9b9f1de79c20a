"""Run-to-run spread of the end-to-end metrics, and a trajectory point.

    python3 perfbench/spread.py --runs 10 [--out FILE]

Runs `run.py --trace 0` once per seed (1..runs) for every workload in
BENCHMARK.json, one run at a time and each for the `run_seconds` that
BENCHMARK.json sets, and prints for every metric the median of the runs and the distance
between the first and third quartile (`statistics.quantiles(values, n=4)`)
as a share of that median, next to the metric's bound in BENCHMARK.json.
With --out, also writes these figures with the runs' provenance as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, check=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    prov = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
    return prov, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]

    point = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in names:
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            prov, result = run(workload, seed, seconds)
            all_correct &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {
                "median": statistics.median(vals),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(vals),
                "bound": bounds[name],
                "values": vals,
            }
            print(
                f"{workload:14s} {name:14s} median {statistics.median(vals):12.6g}  "
                f"spread {rows[name]['spread']:7.4f}  bound {bounds[name]}",
                flush=True,
            )
        point["workloads"][workload] = rows
        point["provenance"] = {k: v for k, v in prov.items() if k not in ("workload", "seed")}
    point["correct"] = all_correct
    print(f"all runs correct: {all_correct}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(point, indent=2) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
