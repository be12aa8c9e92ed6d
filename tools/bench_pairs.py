"""Alternating parent/change pairs of the benchmark, summarised as JSON.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \
        --workload storm reference wide --pairs 10 --seconds 10 \
        --seed 901 --out BENCH_<n>.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. Pair i of a
workload runs `python3 bench/run.py --workload W --seed SEED+i --seconds S
--trace 0` once in each checkout, both with seed SEED+i; the parent runs
first in even pairs and the change first in odd ones. The output holds, per
workload and end-to-end metric, each side's median, quartiles and values and
the number of pairs the change won (ties count for neither side) and
whether the medians differ by more than the parent's quartile spread, plus
`correct` and `failed` of every run, the interpreter, numpy and PyYAML
versions and each checkout's commit. A checkout with uncommitted changes is
marked `dirty`, and `source_sha256` identifies its `src/` files either way; a
checkout without git (say, one made with `git archive`) has `commit` and
`dirty` null. Both checkouts are identified before the first run. If
exactly one of them is a git work tree, the tool prints a warning to stderr
before the first run and records it as `checkout_warning` (null otherwise):
that difference alone moves `peak_rss_mb` by about 1 % on identical source.
Each completed pair prints one stderr line with both sides' value of every
end-to-end metric. `--pairs` must be at least 1, `--seconds` positive, every
`--workload` one that the change's BENCHMARK.json declares and the directory
of `--out` must exist; otherwise the tool exits 2 before any run. If a run
fails, the tool exits 1 and names the run's side, workload, seed, exit code
and the last lines of its stderr, and writes no output file. A run whose
result reads `correct: false` is refused the same way: its timings are of
wrong outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

SIDES = ("parent", "change")
STDERR_TAIL_LINES = 10


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `checkout`; its last stdout line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric statistics of one workload's pairs.

    Each pair is {"seed", "first", "parent", "change"}, the last two being
    bench/run.py results; `better` maps a metric to "lower" or "higher".
    """
    metrics = {}
    for name, direction in better.items():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if direction == "lower" else -1
        stats = {side: _quartiles(values[side]) for side in SIDES}
        metrics[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": direction,
            **stats,
            "change_over_parent": stats["change"]["median"] / stats["parent"]["median"],
            "change_wins": sum(sign * (c - p) < 0
                               for p, c in zip(values["parent"], values["change"])),
            "pairs": len(pairs),
            # the medians differ, in the better direction, by more than the
            # spread between the parent's own runs
            "beats_parent_spread": sign * (stats["parent"]["median"] - stats["change"]["median"])
            > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    runs = [
        {"seed": p["seed"], "first": p["first"],
         **{side: {key: p[side][key] for key in ("correct", "attempted", "failed")}
            for side in SIDES}}
        for p in pairs
    ]
    return {"metrics": metrics, "runs": runs}


def checkout_id(checkout: Path) -> dict:
    """The commit of a checkout (None without git) and a digest of its source
    files."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True,
                              text=True, check=True).stdout.strip()

    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(checkout).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    commit = dirty = None
    if (checkout / ".git").exists():
        commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--", "src", "bench"))
    return {"commit": commit, "dirty": dirty, "source_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not args.seconds > 0:
        parser.error(f"--seconds must be positive, got {args.seconds}")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    for workload in args.workload:
        if workload not in declared:
            parser.error(f"--workload {workload} is not in BENCHMARK.json, "
                         f"which declares {', '.join(declared)}")
    if not args.out.parent.is_dir():
        parser.error(f"--out {args.out}: directory {args.out.parent} does not exist")
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    ids = {side: checkout_id(path) for side, path in checkouts.items()}
    git_sides = [side for side in SIDES if ids[side]["commit"] is not None]
    warning = None
    if len(git_sides) == 1:
        warning = (f"only the {git_sides[0]} checkout is a git work tree; that alone "
                   "moves peak_rss_mb by about 1 % on identical source, so make both "
                   "checkouts the same way")
        print(f"warning: {warning}", file=sys.stderr)
    workloads = {}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                try:
                    pair[side] = run_bench(checkouts[side], workload, seed, args.seconds)
                except subprocess.CalledProcessError as exc:
                    tail = exc.stderr.splitlines()[-STDERR_TAIL_LINES:]
                    print(f"error: the {side} run of workload {workload} at seed {seed} "
                          f"exited with code {exc.returncode}, after {i} complete "
                          f"pairs of it; its last stderr lines:", *tail,
                          sep="\n", file=sys.stderr)
                    return 1
                if not pair[side]["correct"]:
                    print(f"error: the {side} run of workload {workload} at seed {seed} "
                          f"read correct: false, after {i} complete pairs of it",
                          file=sys.stderr)
                    return 1
            pairs.append(pair)
            print(f"{workload} pair {i}: " + "; ".join(
                f"{name} parent {pair['parent']['metrics'][name]['value']:.4g} "
                f"change {pair['change']['metrics'][name]['value']:.4g}" for name in better
            ), file=sys.stderr)
        workloads[workload] = summarize(pairs, better)
    result = {
        "command": "bench/run.py --trace 0",
        "seconds": args.seconds,
        "versions": {"python": sys.version.split()[0], "numpy": version("numpy"),
                     "pyyaml": version("PyYAML")},
        **ids,
        "checkout_warning": warning,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
