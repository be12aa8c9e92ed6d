"""Byte identity of all four artifacts on two generated stress scenarios.

Both scenarios are derived in code from the bundled mission, so the pinned
digests cover paths the 4-task reference never reaches:

- retry-heavy: about 100 one-program tasks at a 0.2 s update interval, where
  almost every wire dispatch times out and its waiters are retried, several
  tasks fall due in the same tick out of scenario order, and one task asks
  for a program no server offers, so it is deferred on every tick;
- mixed: many tasks with one or two programs and mixed consumers at 2.0 s,
  where merged dispatches carry several waiters, run with and without link
  variance;
- regime: the offload-choice mission of `test_engine`, whose chosen server
  flips across the 50 m band split, while rotating, and between consumers;
- trace-variants: the list-valued trace fields with two or more items that
  the others never print: a Tick with several `locals=` and several
  `unserved=`, and a Flush with a non-empty `flushed=`.

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
from test_engine import regime_scenario

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


def trace_variants() -> dict:
    doc = _base()
    doc["name"] = "trace-variants"
    # the Tick at 60 s dispatches two wire entries that are still open at
    # the horizon, so the Flush lists both
    doc["duration_s"] = 60.3
    del doc["truck_arrival_s"]
    # cached but in no table: the platform is the only candidate, so these
    # programs always run locally
    doc["nodes"][0]["cached_programs"] = ["detect", "onboard_a", "onboard_b"]
    for program_id in ("onboard_a", "onboard_b", "thermal", "lidar"):
        doc["programs"].append(
            {"program_id": program_id, "task_kind": "object_detection",
             "compute_cost": 10.0, "input_payload_bits": 1e6,
             "output_payload_bits": 1e5}
        )
    doc["tasks"] += [
        # thermal and lidar have no capable server: deferred on every tick
        {"task_id": "no-thermal", "required_programs": ["thermal"],
         "issue_time_s": 4.0, "consumer": 1},
        {"task_id": "no-lidar", "required_programs": ["lidar"],
         "issue_time_s": 4.0, "consumer": 2},
        {"task_id": "onboard", "required_programs": ["onboard_a", "onboard_b"],
         "issue_time_s": 10.0, "consumer": 0},
        {"task_id": "onboard-b", "required_programs": ["onboard_b"],
         "issue_time_s": 10.0, "consumer": 0},
        {"task_id": "late-detect", "required_programs": ["detect"],
         "issue_time_s": 60.0, "consumer": 2},
        {"task_id": "late-plan", "required_programs": ["plan_route"],
         "issue_time_s": 60.0, "consumer": 2},
        {"task_id": "late-onboard", "required_programs": ["onboard_a"],
         "issue_time_s": 60.0, "consumer": 0},
    ]
    return doc


CASES = {
    "retry_heavy": lambda: load_scenario(retry_heavy()),
    "mixed_var1": lambda: load_scenario(mixed(1.0)),
    "mixed_var0": lambda: load_scenario(mixed(0.0)),
    "regime": regime_scenario,
    "trace_variants": lambda: load_scenario(trace_variants()),
}

# sha256 of trace.log, metrics.csv, samples.csv and summary.json
DIGESTS = {
    # re-recorded when `cancelled` came to count each cancelled instance once:
    # only the Flush record's and the summary's `cancelled` moved (622 -> 616)
    "retry_heavy": (
        "dc6923f6092513c90270c724b102d1393374790e50cdcd2e8e3d96185dc870dc",
        "a159aa46cf0f6c878c135c52030a6f1020060802826579efe19d7c39d9ea6572",
        "3206cc6badd0e745deef905949be529c052f4895bcec993c106c26278378a38a",
        "ea6ce64e4ce43b30603c19b2a9d57f4511585cc26430b90612fd7e00e337e7e3",
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
    # fails if the memoized offload choice ignores the band or the consumer
    "regime": (
        "b0db69bf13b2087970e8d61efda99aa337467cf79cffe0e9774e82ebb90abdbe",
        "f3fe55692c26bcf0cc50b9400c00b4701877fb003271efb8eca06341d6e7cb3f",
        "03f75fe4f1b9d9e3edd34dd521ef367f1c9900b93c1940a1ec714998d5134675",
        "2e39e15f602b6457570c55db0c0c570abd9dd4092e7fe23455cb89cf2e0947d9",
    ),
    "trace_variants": (
        "a4d7521a5f8a937ca94a26838ed0c4c02c93f69082d6331aa3f26728acb152df",
        "49490f669514f7511078b0d63674b67faf1efa69be77859d72b4a5f1489bf1ed",
        "1149b475e00bb2b64ee816a1105ee5c62d9ee67e2993d4b4ea516abb7b29283d",
        "f0c1a3385f548823cd323c086ca1c38466867a53671f1792728bd974e767a148",
    ),
}


def artifact_digests(scenario) -> tuple[str, ...]:
    result = run(scenario)
    texts = (
        trace_to_text(result.trace),
        metrics_to_csv(result.metrics),
        samples_to_csv(result.metrics),
        summary_to_json(result.metrics),
    )
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)


def test_trace_variants_prints_every_list_field_with_several_items():
    trace = run(load_scenario(trace_variants())).trace
    for line in (
        "t=10.0 seq=17 kind=Tick tpos=0 tick=5 due=onboard,onboard-b entries= "
        "locals=onboard_a@0;onboard_b@0 unserved=no-thermal:thermal;no-lidar:lidar msgs=0",
        "t=60.0 seq=51 kind=Tick tpos=2 tick=30 due=late-detect,late-plan,late-onboard "
        "entries=30:1:detect;30:2:plan_route locals=onboard_a@0 "
        "unserved=no-thermal:thermal;no-lidar:lidar msgs=2",
    ):
        assert line in trace
    assert trace[-1] == (
        "t=60.3 seq=54 kind=Flush tpos=2 flushed=30:1:detect;30:2:plan_route cancelled=3"
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_artifacts_are_byte_identical(case):
    assert artifact_digests(CASES[case]()) == DIGESTS[case]


if __name__ == "__main__":
    # prints the current digests: PYTHONPATH=src:tests python tests/test_digests.py
    for name, build in CASES.items():
        print(name, artifact_digests(build()))
