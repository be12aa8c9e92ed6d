"""Metamorphic relations on the bundled mission: input changes whose effect
on the artifacts is known without an oracle (Chen et al., "Metamorphic
Testing: A Review of Challenges and Opportunities", ACM CSUR 2018).

Each change below must leave all four artifacts byte-identical: a node,
program, table row or loss entry that no decision can pick, a payload scale
of 1, and new values for the fields that docs/scenario-schema.md calls not
simulated.
"""

import copy
import functools

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

from conftest import BUNDLED_SCENARIO

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


def test_a_payload_scale_of_one_leaves_every_artifact_alone():
    scaled = apply_sweep_value(load_scenario(BASE), "payload_scale", 1.0)
    assert artifacts(scaled) == base_artifacts()
