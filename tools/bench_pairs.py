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

Each workload's pairs are followed by one traced run a side, `python3
bench/run.py --workload W --seed SEED --seconds 1 --trace 1`, refused on
failure the same way. Its per-layer metrics whose unit in the change's
BENCHMARK.json is `count` are exact work counts, the same in every round, so
one short run shows them. The output holds, per workload, the counts each
side reports and `differ`, the names whose values differ between the sides
or that only one side reports (a parent that predates a counter lacks it),
and one stderr line per workload names them.

Each metric also carries the no-regression verdict, read against its
`bound` in the change's BENCHMARK.json, a fraction of the parent's median:
- `within_bound`: the change's median is no worse than the parent's by more
  than the bound;
- `unresolved`: the parent's quartile spread over its median exceeds the
  bound, and not every change run beats every parent run, so the runs
  spread too widely to tell a regression from noise;
- `gain`: the change won at least 9 of every 10 pairs and
  `beats_parent_spread`, the test a claimed gain has to pass.
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
# the length of a traced count run: its counts are exact in every round
COUNT_SECONDS = 1.0


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One benchmark run in `checkout`, untraced unless trace is 1; its last
    stdout line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def checked_run(checkout: Path, side: str, workload: str, seed: int, seconds: float,
                when: str, trace: int = 0) -> dict | None:
    """run_bench's result, or None once the refusal of a failed run, or of
    one that reads `correct: false`, is printed; when says where in the
    workload's runs it came."""
    try:
        result = run_bench(checkout, workload, seed, seconds, trace)
    except subprocess.CalledProcessError as exc:
        tail = exc.stderr.splitlines()[-STDERR_TAIL_LINES:]
        print(f"error: the {side} run of workload {workload} at seed {seed} exited "
              f"with code {exc.returncode}, {when}; its last stderr lines:",
              *tail, sep="\n", file=sys.stderr)
        return None
    if not result["correct"]:
        print(f"error: the {side} run of workload {workload} at seed {seed} read "
              f"correct: false, {when}", file=sys.stderr)
        return None
    return result


def compare_counts(results: dict, names: list[str]) -> dict:
    """Each side's value of every count metric in names that its traced
    run's result reports, and the names whose values differ or that only
    one side reports."""
    values = {}
    for side in SIDES:
        metrics = results[side]["metrics"]
        values[side] = {name: metrics[name]["value"] for name in names if name in metrics}
    return {**values,
            "differ": [name for name in names
                       if values["parent"].get(name) != values["change"].get(name)]}


def _quartiles(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per-metric statistics of one workload's pairs.

    Each pair is {"seed", "first", "parent", "change"}, the last two being
    bench/run.py results; end_to_end lists BENCHMARK.json's end-to-end
    metrics, each with its `name`, `better` ("lower" or "higher") and
    `bound`.
    """
    metrics = {}
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        # sign * value is lower when better
        sign = 1 if spec["better"] == "lower" else -1
        stats = {side: _quartiles(values[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        spread = stats["parent"]["q3"] - stats["parent"]["q1"]
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        # the medians differ, in the better direction, by more than the
        # spread between the parent's own runs
        beats_parent_spread = sign * (parent - change) > spread
        separated = (max(sign * c for c in values["change"])
                     < min(sign * p for p in values["parent"]))
        metrics[name] = {
            "unit": pairs[0]["parent"]["metrics"][name]["unit"],
            "better": spec["better"],
            **stats,
            "change_over_parent": change / parent,
            "change_wins": wins,
            "pairs": len(pairs),
            "beats_parent_spread": beats_parent_spread,
            "bound": bound,
            "within_bound": sign * (change - parent) <= bound * parent,
            "unresolved": spread > bound * parent and not separated,
            "gain": 10 * wins >= 9 * len(pairs) and beats_parent_spread,
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
    end_to_end_names = [m["name"] for m in spec["end_to_end"]]
    count_names = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    ids = {side: checkout_id(path) for side, path in checkouts.items()}
    git_sides = [side for side in SIDES if ids[side]["commit"] is not None]
    warning = None
    if len(git_sides) == 1:
        warning = (f"only the {git_sides[0]} checkout is a git work tree; that alone "
                   "moves peak_rss_mb by about 1 % on identical source, so make both "
                   "checkouts the same way")
        print(f"warning: {warning}", file=sys.stderr)
    workloads = {}
    counts = {}
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = checked_run(checkouts[side], side, workload, seed, args.seconds,
                                         f"after {i} complete pairs of it")
                if pair[side] is None:
                    return 1
            pairs.append(pair)
            print(f"{workload} pair {i}: " + "; ".join(
                f"{name} parent {pair['parent']['metrics'][name]['value']:.4g} "
                f"change {pair['change']['metrics'][name]['value']:.4g}"
                for name in end_to_end_names
            ), file=sys.stderr)
        workloads[workload] = summarize(pairs, spec["end_to_end"])
        traced = {}
        for side in SIDES:
            traced[side] = checked_run(checkouts[side], side, workload, args.seed,
                                       COUNT_SECONDS, "in its traced count run", trace=1)
            if traced[side] is None:
                return 1
        counts[workload] = compare_counts(traced, count_names)
        differ = counts[workload]["differ"]
        print(f"{workload} counts: {len(count_names)} compared, "
              f"differ: {', '.join(differ) or 'none'}", file=sys.stderr)
    result = {
        "command": "bench/run.py --trace 0",
        "seconds": args.seconds,
        "versions": {"python": sys.version.split()[0], "numpy": version("numpy"),
                     "pyyaml": version("PyYAML")},
        **ids,
        "checkout_warning": warning,
        "workloads": workloads,
        "counts": counts,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
