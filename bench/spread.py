"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload storm --seeds 1 2 3 4 5

Runs `bench/run.py` untraced once per seed, one after another, for the run
length in BENCHMARK.json, and prints per metric the median, the first
and third quartiles and the spread (Q3 - Q1) / median next to a third of the
metric's bound, plus the failed share of every run. Run it from the
repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct is false\n{proc.stderr}", file=sys.stderr)
            return 1
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"{args.workload}: seeds {args.seeds}, {seconds} s runs, "
          f"(failed, attempted) {sorted(shares)}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        print(f"  {name:34s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {spread:.3f}  limit {bounds[name] / 3:.3f}")
        print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
