"""Byte check of two checkouts: every artifact of a fixed run grid, compared.

    python3 tools/artifact_digests.py --parent PARENT_DIR --change CHANGE_DIR

PARENT_DIR and CHANGE_DIR are two checkouts of the repository. Each is run in
its own subprocess, with its own `src/` on the import path and its own
`bench/workloads.py`, over this grid: the workloads `reference`, `storm` and
`wide`, each built for seeds 1, 2 and 7 and run at that seed, at
`variance_scale` 1 and 0, over its full duration and cut to 0.37 of it (36
runs, four artifacts each: trace, metrics, samples and summary). The bench
runs `reference` at the golden seed whatever seed it is built for, so the
grid sets each workload's run seed to its own seed, and no two runs of one
case share a seed. At each seed, each workload also runs once more, in full,
with one more task, issued at 0 s, that requires a program no server can run
(DEFERRED, 9 runs): the first tick defers it, so every later idle Tick
record lists it in `unserved=`. And at each seed come three sweeps of each
workload (`sweep_rows.csv` and `sweep_aggregate.csv`): its bench sweep, of
`update_interval` or `link_variance_scale`, whose values share one run plan,
and the grid's own `payload_scale` and `altitude_profile` sweeps
(EXTRA_SWEEPS, 2 replicates from the seed), whose every value needs a plan
of its own. That makes 234 digests. The parent's subprocess runs with
PYTHONHASHSEED=0 and the change's with PYTHONHASHSEED=1, so 0 mismatches
also shows that neither the grid nor the sweeps depend on the hash seed.
Every mismatch is printed, and the exit code is 1 if there is any.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import yaml

NAMES = ("reference", "storm", "wide")
SEEDS = (1, 2, 7)
VARIANCES = (1.0, 0.0)
CUTS = (1.0, 0.37)
# the values of the sweep parameters that no bench sweep covers; 30 m flies
# in the low band and 70 m in the high one
EXTRA_SWEEPS = {"payload_scale": [0.5, 2.0], "altitude_profile": [30.0, 70.0]}
EXTRA_REPLICATES = 2
# the deferred case's program, which no table row names and no node caches,
# so that no server can run it, and its task, which requires it
UNSERVABLE = {"program_id": "thermal", "task_kind": "object_detection", "compute_cost": 10.0,
              "input_payload_bits": 1e6, "output_payload_bits": 1e5}
DEFERRED = {"task_id": "deferred", "required_programs": ["thermal"], "issue_time_s": 0.0,
            "consumer": 2}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_workloads(root: Path):
    """`bench/workloads.py` of the checkout at root, as a module."""
    spec = importlib.util.spec_from_file_location("bench_workloads", root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    spec.loader.exec_module(module)
    return module


def run_digests(wl, variance: float, cut: float) -> dict[str, str]:
    """sha256 of the four artifacts of workload wl's mission at its run seed,
    with the given link variance and its duration scaled by cut. The
    scenario is loaded from a file, so the grid goes through the parser."""
    from birdsim import (
        load_scenario,
        metrics_to_csv,
        run,
        samples_to_csv,
        summary_to_json,
        trace_to_text,
    )

    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "scenario.yaml"
        path.write_text(wl.scenario_text)
        scenario = load_scenario(path)
    scenario = replace(scenario, variance_scale=variance, duration=scenario.duration * cut)
    result = run(scenario, wl.run_seed)
    return {
        "trace": _sha256(trace_to_text(result.trace)),
        "metrics": _sha256(metrics_to_csv(result.metrics)),
        "samples": _sha256(samples_to_csv(result.metrics)),
        "summary": _sha256(summary_to_json(result.metrics)),
    }


def with_deferred_task(scenario_text: str) -> str:
    """scenario_text with UNSERVABLE among its programs and DEFERRED last
    among its tasks, read and written with libyaml where PyYAML has it."""
    doc = yaml.load(scenario_text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    doc["programs"].append(dict(UNSERVABLE))
    doc["tasks"].append(dict(DEFERRED))
    return yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper), sort_keys=False)


def sweep_digests(wl, sweep_text: str) -> dict[str, str]:
    """sha256 of the two CSVs of the sweep spec sweep_text over workload
    wl's scenario, run through the CLI."""
    from birdsim import cli

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "scenario.yaml").write_text(wl.scenario_text)
        (work / "sweep.yaml").write_text(sweep_text)
        argv = ["--scenario", str(work / "scenario.yaml"), "--sweep", str(work / "sweep.yaml"),
                "--out", str(work / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sweep of {wl.name} exited with {code}")
        return {name: _sha256((work / "out" / f"{name}.csv").read_text())
                for name in ("sweep_rows", "sweep_aggregate")}


def digests(root: Path) -> dict[str, str]:
    """Every digest of the grid, keyed by what produced it, computed with the
    birdsim importable here and the workloads of the checkout at root."""
    workloads = load_workloads(root)
    found = {}
    for name in NAMES:
        for seed in SEEDS:
            wl = replace(workloads.build(name, seed, root), run_seed=seed)
            for variance in VARIANCES:
                for cut in CUTS:
                    for artifact, digest in run_digests(wl, variance, cut).items():
                        found[f"{name} seed={seed} variance={variance} cut={cut} {artifact}"] = digest
            deferred = replace(wl, scenario_text=with_deferred_task(wl.scenario_text))
            for artifact, digest in run_digests(deferred, 1.0, 1.0).items():
                found[f"{name} seed={seed} deferred {artifact}"] = digest
            for artifact, digest in sweep_digests(wl, wl.sweep_text).items():
                found[f"{name} seed={seed} {artifact}"] = digest
            for parameter, values in EXTRA_SWEEPS.items():
                text = workloads.sweep_text(parameter, values, EXTRA_REPLICATES, seed)
                for artifact, digest in sweep_digests(wl, text).items():
                    found[f"{name} seed={seed} {parameter} {artifact}"] = digest
    return found


def compare(parent: dict[str, str], change: dict[str, str]) -> list[str]:
    """One line per key whose digest differs or that only one side has."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        a, b = parent.get(key), change.get(key)
        if a != b:
            lines.append(f"{key}: parent {a or 'missing'} change {b or 'missing'}")
    return lines


def checkout_digests(checkout: Path, hash_seed: str) -> dict[str, str]:
    """digests() of a checkout, computed in a subprocess that imports its src/
    and runs with the given PYTHONHASHSEED."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(checkout)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        import birdsim

        source = (args.emit / "src").resolve()
        if Path(birdsim.__file__).resolve().parent.parent != source:
            raise SystemExit(f"birdsim imported from {birdsim.__file__}, not {source}")
        print(json.dumps(digests(args.emit.resolve())))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    found = {side: checkout_digests(path.resolve(), hash_seed)
             for side, path, hash_seed in (("parent", args.parent, "0"),
                                           ("change", args.change, "1"))}
    mismatches = compare(found["parent"], found["change"])
    for line in mismatches:
        print(line)
    print(f"{len(found['change'])} digests, {len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
