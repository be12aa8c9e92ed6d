"""Benchmark workloads, generated in code from a seed.

Every workload starts from the bundled `urban_fire.yaml` (its fleet, programs,
server tables, timeline, flight plan, link and loss) and writes the scenario
and the sweep spec as YAML files, so that timing `load_scenario(path)` includes
the parse. The same (name, seed) always gives the same bytes.

- `reference`: the bundled mission unchanged (its own seed 42, so its
  artifacts can be compared with `tests/golden`), plus the README's sweep
  `update_interval` [0.5, 1, 2, 4] x 5 replicates from `base_seed` = seed.
- `storm`: STORM_TASKS one-program tasks at `update_interval_s` 0.2 over a
  120 s mission. No wire dispatch can answer inside one tick, so every one
  times out and is retried.
  Each program has one consumer, so merged waiters always share it.
- `wide`: WIDE_TASKS one-program tasks at 2.0 s with random consumers, so
  most dispatches are answered and many waiters with different consumers
  merge into each one. It keeps the fixed pair `monitor` / `probe` (both
  `detect`, issued at 30 s, consumers 2 and 1) that exposes the consumer
  fault on every seed. Swept over `link_variance_scale` 0 and 1.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from pathlib import Path

import yaml

NAMES = ("reference", "storm", "wide")

STORM_TASKS = 200
STORM_T_INT = 0.2
STORM_DURATION_S = 120.0
STORM_REPLICATES = 3
WIDE_TASKS = 1000
WIDE_T_INT = 2.0

REFERENCE_SEED = 42
# (setup, mission, write) triples per round before its one sweep, so that the
# sweep, the longest operation, takes about half of every round.
REPEATS = {"reference": 4, "storm": 2, "wide": 1}
BUNDLED = Path("src") / "birdsim" / "scenarios" / "urban_fire.yaml"

# Program mix of the generated tasks: detection twice as common as the others.
_PROGRAMS = ("detect", "detect", "stitch", "plan_route")
# storm's one consumer per program: no merge ever mixes consumers there.
_STORM_CONSUMER = {"detect": 2, "stitch": 2, "plan_route": 0}
# issue times fall inside the survey window, which opens at 30 s
_ISSUE_WINDOW = {"storm": (30.0, 100.0), "wide": (30.0, 380.0)}


@dataclass(frozen=True)
class Workload:
    name: str
    scenario_text: str  # YAML written to the scenario file
    sweep_text: str  # YAML written to the sweep-spec file
    run_seed: int  # seed of the timed mission
    flight_plan: tuple[tuple[float, float, bool], ...]  # (t, altitude, rotating)
    floor_mbps: float
    task_count: int
    golden: bool  # artifacts must equal tests/golden
    repeats: int  # (setup, mission, write) triples per round, before one sweep


def _task(task_id, program, issue_time, consumer, origin="commander_order"):
    return {
        "task_id": task_id,
        "required_programs": [program],
        "origin": origin,
        "issue_time_s": issue_time,
        "consumer": consumer,
    }


def _random_tasks(rng: random.Random, count: int, name: str) -> list[dict]:
    tasks = []
    for i in range(count):
        program = rng.choice(_PROGRAMS)
        consumer = _STORM_CONSUMER[program] if name == "storm" else rng.randrange(3)
        issue = round(rng.uniform(*_ISSUE_WINDOW[name]), 1)
        tasks.append(_task(f"g{i:05d}", program, issue, consumer))
    return tasks


def sweep_text(parameter: str, values: list, replicates: int, base_seed: int) -> str:
    return yaml.safe_dump(
        {"parameter": parameter, "values": values, "replicates": replicates,
         "base_seed": base_seed},
        sort_keys=False,
    )


def _workload(name, doc, scenario_text, sweep, run_seed, golden=False):
    plan = tuple(
        (float(w["t_s"]), float(w["altitude_m"]), bool(w.get("rotating", False)))
        for w in doc["flight_plan"]
    )
    return Workload(
        name=name,
        scenario_text=scenario_text,
        sweep_text=sweep,
        run_seed=run_seed,
        flight_plan=plan,
        floor_mbps=float(doc.get("link", {}).get("floor_mbps", 1.0)),
        task_count=len(doc["tasks"]),
        golden=golden,
        repeats=REPEATS[name],
    )


def build(name: str, seed: int, root: Path) -> Workload:
    """The workload `name` for `seed`; `root` is the repository checkout."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    bundled_text = (root / BUNDLED).read_text()
    base = yaml.safe_load(bundled_text)
    if name == "reference":
        return _workload(
            name, base, bundled_text,
            sweep_text("update_interval", [0.5, 1, 2, 4], 5, seed),
            REFERENCE_SEED, golden=True,
        )

    rng = random.Random(f"{name}:{seed}")
    doc = copy.deepcopy(base)
    doc["name"] = name
    doc["seed"] = seed
    fixed = {t["task_id"]: t for t in base["tasks"]}
    # the timeline's survey phase completes on `stream-vr`, so it stays
    stream_vr = fixed["stream-vr"]
    if name == "storm":
        doc["update_interval_s"] = STORM_T_INT
        doc["duration_s"] = STORM_DURATION_S
        doc["tasks"] = [stream_vr] + _random_tasks(rng, STORM_TASKS, name)
        sweep = sweep_text("update_interval", [STORM_T_INT], STORM_REPLICATES, seed)
    else:
        doc["update_interval_s"] = WIDE_T_INT
        monitor = fixed["monitor"]
        probe = _task("probe", "detect", monitor["issue_time_s"], 1, "timeline_implied")
        doc["tasks"] = [monitor, probe, stream_vr] + _random_tasks(rng, WIDE_TASKS, name)
        sweep = sweep_text("link_variance_scale", [0, 1], 1, seed)
    text = yaml.safe_dump(doc, sort_keys=False)
    return _workload(name, doc, text, sweep, seed)
