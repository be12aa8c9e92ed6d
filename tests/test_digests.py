"""Byte identity of all four artifacts on two generated stress scenarios.

Both scenarios are derived in code from the bundled mission, so the pinned
digests cover paths the 4-task reference never reaches:

- retry-heavy: about 100 one-program tasks at a 0.2 s update interval, where
  almost every wire dispatch times out and its waiters are retried, several
  tasks fall due in the same tick out of scenario order, and one task asks
  for a program no server offers, so it is deferred on every tick;
- mixed: many tasks with one or two programs and mixed consumers at 2.0 s,
  where merged dispatches carry several waiters, run with and without link
  variance.

A digest changes only when the simulator's output changes, and such a
change must be argued for on its own, never come in as a side effect.
"""

import hashlib

import pytest
import yaml

from birdsim import (
    load_scenario,
    metrics_to_csv,
    run,
    samples_to_csv,
    summary_to_json,
    trace_to_text,
)

from conftest import BUNDLED_SCENARIO

PROGRAMS = ("detect", "stitch", "plan_route")


def _base() -> dict:
    return yaml.safe_load(BUNDLED_SCENARIO.read_text())


def _stream_vr(doc: dict) -> dict:
    # the timeline's survey phase completes on this task, so it stays
    return next(t for t in doc["tasks"] if t["task_id"] == "stream-vr")


def retry_heavy() -> dict:
    doc = _base()
    doc["name"] = "retry-heavy"
    doc["update_interval_s"] = 0.2
    doc["duration_s"] = 60.0
    doc["truck_arrival_s"] = 50.0
    doc["programs"].append(
        {"program_id": "thermal", "task_kind": "object_detection",
         "compute_cost": 10.0, "input_payload_bits": 1e6,
         "output_payload_bits": 1e5}
    )
    tasks = [_stream_vr(doc)]
    for i in range(100):
        tasks.append({
            "task_id": f"r{i:03d}",
            "required_programs": [PROGRAMS[i % 3]],
            "issue_time_s": float((i * 37) % 50) + (0.5 if i % 4 == 0 else 0.0),
            "consumer": (i * 5) % 3,
        })
    tasks.append({"task_id": "unservable", "required_programs": ["thermal"],
                  "issue_time_s": 5.0, "consumer": 2})
    doc["tasks"] = tasks
    return doc


def mixed(variance_scale: float) -> dict:
    doc = _base()
    doc["name"] = f"mixed-{variance_scale:g}"
    doc.setdefault("link", {})["variance_scale"] = variance_scale
    tasks = [_stream_vr(doc)]
    for i in range(300):
        required = [PROGRAMS[i % 3]]
        if i % 5 == 0:
            required.append(PROGRAMS[(i + 1) % 3])
        tasks.append({
            "task_id": f"m{i:03d}",
            "required_programs": required,
            "origin": "timeline_implied" if i % 2 else "commander_order",
            "issue_time_s": 30.0 + (i * 53) % 190,
            "consumer": (i * 7) % 3,
        })
    doc["tasks"] = tasks
    return doc


CASES = {
    "retry_heavy": retry_heavy,
    "mixed_var1": lambda: mixed(1.0),
    "mixed_var0": lambda: mixed(0.0),
}

# sha256 of trace.log, metrics.csv, samples.csv and summary.json
DIGESTS = {
    "retry_heavy": (
        "afa9003fa924cd7d7e7ca511d578ab508c1976bcdc3118f55e365d58ed1bef2d",
        "a159aa46cf0f6c878c135c52030a6f1020060802826579efe19d7c39d9ea6572",
        "3206cc6badd0e745deef905949be529c052f4895bcec993c106c26278378a38a",
        "4bcbb8a0e9bbc89ac8f025473fcecd9bff22d39996f05760d6f7459923f54baf",
    ),
    "mixed_var1": (
        "d6019406d228de6875bd87243debdea6672f0d7ef5b59f80c1311254e8abff44",
        "0b767c3f2baf8c68e1318fa9c3b0be9171c4e9cac6159effda3a1f32875b4371",
        "ef58135a9d92c81b78ef254517b6fa870792048e3b9debf82a225428e98ab882",
        "cd72f75a1c5c47f74da5e09a9178c1c734d2b346f52ea07edc7d1bb04c357e50",
    ),
    "mixed_var0": (
        "c02b98a6231086693522621dd718ea9f5906477cb2750b9227b152a2509bccaa",
        "4388777104445f70733a408c69416d29c9dc89ccddf3a17d429a61a4649b29cf",
        "af6e377394a29777aed67df8c4d7fb3d7149d4d7d650fb0e580eb85fb6c1107d",
        "8e1728d2ca7e086d87a5d1c8fae538c36c04f8648b7a096114a7c3c2c1c48e3f",
    ),
}


def artifact_digests(doc: dict) -> tuple[str, ...]:
    result = run(load_scenario(doc))
    texts = (
        trace_to_text(result.trace),
        metrics_to_csv(result.metrics),
        samples_to_csv(result.metrics),
        summary_to_json(result.metrics),
    )
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_are_byte_identical(case):
    assert artifact_digests(CASES[case]()) == DIGESTS[case]


if __name__ == "__main__":
    # prints the current digests: PYTHONPATH=src:tests python tests/test_digests.py
    for name, build in CASES.items():
        print(name, artifact_digests(build()))
