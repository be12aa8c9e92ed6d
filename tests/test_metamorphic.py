"""Metamorphic relations on the bundled mission and a bench workload: input
changes whose effect on the artifacts is known without an oracle (Chen et
al., "Metamorphic Testing: A Review of Challenges and Opportunities", ACM
CSUR 2018).

Each change below must leave all four artifacts byte-identical: a node,
program, table row or loss entry that no decision can pick, a payload scale
of 1, and new values for the fields that docs/scenario-schema.md calls not
simulated. Two more have a known effect: a task renamed so that the names
sort in another order changes only the name, since tasks are served in
scenario order, and a task issued after the run window adds only its own
never-served metrics row and one to the summary's task total.

The bundled mission never has two tasks due on one tick, so the spare
server, unreferenced program and zero-loss relations also run on the bench's
`storm` workload at seed 1, whose ticks serve many tasks at once and retry
every wire dispatch.
"""

import copy
import csv
import functools
import io
import json
import math

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
from birdsim.scenario import apply_sweep_value

from conftest import BUNDLED_SCENARIO, bench_build

BASE = yaml.safe_load(BUNDLED_SCENARIO.read_text())
# the strongest server of the fleet, so that any decision that could pick it
# would pick it
SPARE_SERVER = {"node_id": 3, "kind": "ecs", "compute_capacity": 10000.0}


def artifacts(scenario):
    result = run(scenario)
    m = result.metrics
    return trace_to_text(result.trace), metrics_to_csv(m), samples_to_csv(m), summary_to_json(m)


@functools.cache
def base_artifacts():
    return artifacts(load_scenario(BASE))


def with_spare_server(doc):
    doc["nodes"].append(dict(SPARE_SERVER))


def with_incapable_rows(doc):
    with_spare_server(doc)
    doc["tables"] += [{"server_id": SPARE_SERVER["node_id"], "program_id": p["program_id"],
                       "capable": False} for p in doc["programs"]]


def with_zero_loss(doc):
    doc["loss"][2] = 0.0


def with_unreferenced_program(doc):
    doc["programs"].append({
        "program_id": "unused", "task_kind": "object_detection", "compute_cost": 1.0,
        "input_payload_bits": 1.0, "output_payload_bits": 1.0,
    })


def with_new_informational_values(doc):
    for i, node in enumerate(doc["nodes"]):
        node["location"] = [10.5 * i, -3.25, 7.0 + i]
        node["mobile"] = not node.get("mobile", False)
    doc["site"] = {"gnb_height_m": 99.0, "district": "harbour"}
    doc["description"] = "another description"
    for phase in doc["timeline"]:
        phase["implied_task_kinds"] = ["reconnaissance"]


EDITS = {
    "a server with no table row": with_spare_server,
    "capable: false rows for every program on that server": with_incapable_rows,
    "a loss: 0 entry": with_zero_loss,
    "an unreferenced program": with_unreferenced_program,
    "new location, mobile, site, description and implied_task_kinds":
        with_new_informational_values,
}


@pytest.mark.parametrize("name", EDITS)
def test_a_change_no_decision_reads_leaves_every_artifact_alone(name):
    doc = copy.deepcopy(BASE)
    EDITS[name](doc)
    assert doc != BASE
    assert artifacts(load_scenario(doc)) == base_artifacts()


@functools.cache
def storm_doc():
    return yaml.load(bench_build("storm", 1).scenario_text,
                     Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))


@functools.cache
def storm_artifacts():
    return artifacts(load_scenario(storm_doc()))


STORM_EDITS = ("a server with no table row", "a loss: 0 entry", "an unreferenced program")


@pytest.mark.parametrize("name", STORM_EDITS)
def test_a_change_no_decision_reads_leaves_a_bench_workload_alone(name):
    doc = copy.deepcopy(storm_doc())
    EDITS[name](doc)
    assert doc != storm_doc()
    assert artifacts(load_scenario(doc)) == storm_artifacts()


def test_a_payload_scale_of_one_leaves_every_artifact_alone():
    scaled = apply_sweep_value(load_scenario(BASE), "payload_scale", 1.0)
    assert artifacts(scaled) == base_artifacts()


# (old name, new name): each old name occurs in the bundled text only as its
# task id and in predicates naming it, and the new one sorts elsewhere
RENAMES = {
    "monitor sorted last": ("monitor", "zz-renamed"),
    "stream-vr, which a phase waits for, sorted first": ("stream-vr", "a-stream"),
}


@pytest.mark.parametrize("name", RENAMES)
def test_a_renamed_task_changes_only_its_name(name):
    old, new = RENAMES[name]
    text = BUNDLED_SCENARIO.read_text()
    doc = yaml.safe_load(text.replace(old, new))
    ids = [task["task_id"] for task in BASE["tasks"]]
    renamed = [task["task_id"] for task in doc["tasks"]]
    assert renamed == [new if i == old else i for i in ids]
    assert sorted(renamed).index(new) != sorted(ids).index(old)
    expected = tuple(artifact.replace(old, new) for artifact in base_artifacts())
    assert expected != base_artifacts()
    assert artifacts(load_scenario(doc)) == expected


def test_a_task_issued_after_the_window_adds_only_its_pending_row():
    doc = copy.deepcopy(BASE)
    after = math.nextafter(doc["duration_s"], math.inf)
    doc["tasks"].append({"task_id": "late", "required_programs": ["detect"],
                         "origin": "commander_order", "issue_time_s": after,
                         "consumer": 2})
    trace, metrics, samples, summary = artifacts(load_scenario(doc))
    base_trace, base_metrics, base_samples, base_summary = base_artifacts()
    assert (trace, samples) == (base_trace, base_samples)
    assert metrics.startswith(base_metrics)
    header = base_metrics.splitlines(True)[0]
    [row] = csv.DictReader(io.StringIO(header + metrics[len(base_metrics):]))
    assert (row["task_id"], row["issue_time_s"]) == ("late", repr(after))
    assert [row[c] for c in ("first_served_s", "attempts", "server", "status",
                             "task_completed_s")] == ["", "0", "", "pending", ""]
    late, base = json.loads(summary), json.loads(base_summary)
    assert late.pop("tasks_total") == base.pop("tasks_total") + 1
    assert late == base
