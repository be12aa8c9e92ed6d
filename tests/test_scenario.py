"""Scenario loading and validation: schema, references, domain invariants."""

import copy
import json

import pytest
import yaml

from birdsim import (
    Band,
    DanglingReference,
    InvariantViolation,
    Origin,
    Phase,
    SchemaError,
    load_scenario,
)
from birdsim import scenario as scenario_module
from birdsim.cli import load_sweep_spec


def minimal_doc():
    return {
        "name": "mini",
        "duration_s": 100.0,
        "nodes": [
            {"node_id": 0, "kind": "uav5gp", "compute_capacity": 25.0,
             "cached_programs": ["p"], "mobile": True},
            {"node_id": 1, "kind": "ecs", "compute_capacity": 100.0,
             "location": [58.9, 0.0, 0.0]},
        ],
        "programs": [
            {"program_id": "p", "task_kind": "object_detection",
             "compute_cost": 40.0, "input_payload_bits": 1000000.0,
             "output_payload_bits": 100000.0},
        ],
        "tables": [{"server_id": 1, "program_id": "p"}],
        "tasks": [{"task_id": "t1", "required_programs": ["p"],
                   "issue_time_s": 5.0, "consumer": 1}],
    }


def with_(mutate):
    doc = minimal_doc()
    mutate(doc)
    return doc


# ------------------------------------------------------------------- loading


def test_bundled_scenario_loads(scenario_path):
    scenario = load_scenario(scenario_path)
    assert scenario.name == "urban-fire"
    assert scenario.seed == 42
    assert scenario.duration == 420.0
    assert scenario.t_int == 2.0
    assert sorted(scenario.nodes) == [0, 1, 2]
    assert len(scenario.tasks) == 4
    assert scenario.truck_arrival == 300.0
    assert scenario.incident.reported == 25.0
    assert scenario.site["gnb_ground_distance_m"] == 58.9
    assert scenario.site["gnb_height_m"] == 26.5
    assert scenario.loss == {1: 0.05}


def test_mapping_input_is_accepted():
    scenario = load_scenario(minimal_doc())
    assert scenario.name == "mini"
    assert scenario.nodes[0].battery_budget == 1200.0  # aerial default
    assert scenario.nodes[1].location == (58.9, 0.0, 0.0)
    assert scenario.tasks[0].origin is Origin.COMMANDER_ORDER
    assert scenario.phases == (Phase("mission"),)


def test_json_documents_load(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(minimal_doc()))
    assert load_scenario(path).name == "mini"


def test_missing_file_names_the_path(tmp_path):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(SchemaError) as err:
        load_scenario(missing)
    assert str(missing) in str(err.value)


def test_unparseable_yaml_is_a_schema_error(monkeypatch, tmp_path):
    """Under the default loader and the pure-Python one, the error names the
    file, for scenarios and sweep specs alike."""
    path = tmp_path / "broken.yaml"
    path.write_text("name: [unclosed\n")
    for loader in (scenario_module.YAML_LOADER, yaml.SafeLoader):
        monkeypatch.setattr(scenario_module, "YAML_LOADER", loader)
        for load in (load_scenario, load_sweep_spec):
            with pytest.raises(SchemaError, match="not parseable") as err:
                load(path)
            assert str(path) in str(err.value)


ANCHORED_YAML = """
name: anchored
duration_s: 100.0
nodes:
  - {node_id: 0, kind: uav5gp, compute_capacity: 25.0, mobile: true}
  - &server {node_id: 1, kind: ecs, compute_capacity: 100.0, location: [58.9, 0.0, 0.0]}
  - {<<: *server, node_id: 2, kind: gcs}
programs:
  - &detect
    program_id: p
    task_kind: object_detection
    compute_cost: 40.0
    input_payload_bits: 1000000.0
    output_payload_bits: 100000.0
  - {<<: *detect, program_id: q, compute_cost: 80.0}
tables:
  - {server_id: 1, program_id: p}
  - {server_id: 2, program_id: q}
tasks:
  - {task_id: t1, required_programs: &both [p, q], issue_time_s: 5.0, consumer: 1}
  - {task_id: t2, required_programs: *both, issue_time_s: 9.0, consumer: 2}
"""


def test_both_yaml_loaders_give_equal_scenarios(monkeypatch, tmp_path, scenario_path):
    """The default loader (libyaml's when PyYAML has it) and the pure-Python
    one build equal scenarios, anchors, aliases and merge keys included."""
    if yaml.__with_libyaml__:
        assert scenario_module.YAML_LOADER is yaml.CSafeLoader
    anchored = tmp_path / "anchored.yaml"
    anchored.write_text(ANCHORED_YAML)
    default = [load_scenario(scenario_path), load_scenario(anchored)]
    monkeypatch.setattr(scenario_module, "YAML_LOADER", yaml.SafeLoader)
    assert [load_scenario(scenario_path), load_scenario(anchored)] == default
    assert default[1].nodes[2].compute_capacity == 100.0
    assert default[1].programs["q"].input_payload == 1000000.0
    assert default[1].tasks[1].required_programs == ("p", "q")


def test_empty_task_list_is_valid():
    doc = minimal_doc()
    del doc["tasks"]
    scenario = load_scenario(doc)
    assert scenario.tasks == ()


# -------------------------------------------------------------------- schema


def test_unknown_top_level_key_is_rejected():
    with pytest.raises(SchemaError) as err:
        load_scenario(with_(lambda d: d.update(extra_knob=1)))
    assert "extra_knob" in str(err.value)


def test_unknown_nested_key_names_its_path():
    with pytest.raises(SchemaError) as err:
        load_scenario(with_(lambda d: d["nodes"][0].update(wings=2)))
    assert "nodes[0]" in str(err.value)
    assert "wings" in str(err.value)


def test_wrong_types_name_the_field():
    with pytest.raises(SchemaError) as err:
        load_scenario(with_(lambda d: d.update(duration_s="long")))
    assert "duration_s" in str(err.value)
    with pytest.raises(SchemaError):
        load_scenario(with_(lambda d: d["nodes"][0].update(mobile="yes")))
    with pytest.raises(SchemaError):
        load_scenario(with_(lambda d: d.update(seed=-1)))


def test_bad_identifier_is_rejected():
    with pytest.raises(SchemaError) as err:
        load_scenario(with_(lambda d: d["tasks"][0].update(task_id="no spaces")))
    assert "task_id" in str(err.value)


def test_unknown_node_kind_lists_the_choices():
    with pytest.raises(SchemaError) as err:
        load_scenario(with_(lambda d: d["nodes"][1].update(kind="mainframe")))
    assert "ecs" in str(err.value)


# ---------------------------------------------------------------- references


def test_dangling_program_in_table():
    with pytest.raises(DanglingReference):
        load_scenario(with_(lambda d: d["tables"][0].update(program_id="ghost")))


def test_dangling_server_in_table():
    with pytest.raises(DanglingReference):
        load_scenario(with_(lambda d: d["tables"][0].update(server_id=9)))


def test_dangling_program_in_task():
    with pytest.raises(DanglingReference):
        load_scenario(
            with_(lambda d: d["tasks"][0].update(required_programs=["ghost"]))
        )


def test_dangling_cached_program():
    with pytest.raises(DanglingReference):
        load_scenario(
            with_(lambda d: d["nodes"][0].update(cached_programs=["ghost"]))
        )


def test_dangling_task_consumer():
    with pytest.raises(DanglingReference):
        load_scenario(with_(lambda d: d["tasks"][0].update(consumer=7)))


def test_dangling_predicate_targets():
    doc = minimal_doc()
    doc["timeline"] = [
        {"phase_id": "a", "completes_when": {"task_completed": "ghost"}},
        {"phase_id": "b"},
    ]
    with pytest.raises(DanglingReference):
        load_scenario(doc)
    doc["timeline"][0]["completes_when"] = {"program_result": "ghost"}
    with pytest.raises(DanglingReference):
        load_scenario(doc)
    doc["timeline"][0]["completes_when"] = {"moon_phase": "full"}
    with pytest.raises(SchemaError):
        load_scenario(doc)
    doc["timeline"][0]["completes_when"] = "always"
    assert load_scenario(doc).phases[0].completes_when.kind == "always"


# ---------------------------------------------------------------- invariants


def test_duplicate_ids_are_rejected():
    with pytest.raises(InvariantViolation):
        load_scenario(with_(lambda d: d["nodes"][1].update(node_id=0)))
    doc = minimal_doc()
    doc["programs"].append(copy.deepcopy(doc["programs"][0]))
    with pytest.raises(InvariantViolation):
        load_scenario(doc)
    doc = minimal_doc()
    doc["tasks"].append(copy.deepcopy(doc["tasks"][0]))
    with pytest.raises(InvariantViolation):
        load_scenario(doc)


def test_platform_table_entry_is_rejected():
    with pytest.raises(InvariantViolation) as err:
        load_scenario(with_(lambda d: d["tables"][0].update(server_id=0)))
    assert "cached_programs" in str(err.value)


def test_altitude_outside_the_measured_envelope():
    doc = minimal_doc()
    doc["flight_plan"] = [{"t_s": 0.0, "altitude_m": 0.0},
                          {"t_s": 10.0, "altitude_m": 120.0}]
    with pytest.raises(InvariantViolation) as err:
        load_scenario(doc)
    assert "altitude" in str(err.value)


def test_waypoint_times_must_strictly_increase():
    doc = minimal_doc()
    doc["flight_plan"] = [{"t_s": 10.0, "altitude_m": 0.0},
                          {"t_s": 10.0, "altitude_m": 50.0}]
    with pytest.raises(InvariantViolation):
        load_scenario(doc)


def test_duration_beyond_the_battery_budget():
    with pytest.raises(InvariantViolation) as err:
        load_scenario(with_(lambda d: d["nodes"][0].update(battery_budget_s=50.0)))
    assert "battery" in str(err.value)


def test_incident_moments_must_be_ordered():
    doc = minimal_doc()
    doc["incident"] = {"start_s": 10.0, "observed_s": 5.0}
    with pytest.raises(InvariantViolation):
        load_scenario(doc)
    doc["incident"] = {"start_s": 10.0, "observed_s": 20.0, "reported_s": 15.0}
    with pytest.raises(InvariantViolation):
        load_scenario(doc)


def test_incident_moments_must_fit_the_mission():
    doc = minimal_doc()
    doc["incident"] = {"start_s": 500.0}
    with pytest.raises(InvariantViolation):
        load_scenario(doc)


def test_physical_response_cannot_precede_the_report():
    doc = minimal_doc()
    doc["incident"] = {"reported_s": 50.0}
    doc["truck_arrival_s"] = 40.0
    with pytest.raises(InvariantViolation):
        load_scenario(doc)
    doc["truck_arrival_s"] = 60.0
    assert load_scenario(doc).truck_arrival == 60.0


def test_loss_table_is_validated():
    with pytest.raises(InvariantViolation):
        load_scenario(with_(lambda d: d.update(loss={0: 0.5})))
    with pytest.raises(SchemaError):
        load_scenario(with_(lambda d: d.update(loss={1: 1.5})))
    with pytest.raises(DanglingReference):
        load_scenario(with_(lambda d: d.update(loss={9: 0.5})))
    with pytest.raises(SchemaError):
        load_scenario(with_(lambda d: d.update(loss={"ecs": 0.5})))
    assert load_scenario(with_(lambda d: d.update(loss={1: 0.25}))).loss == {1: 0.25}


# ---------------------------------------------------------------------- link


def test_link_band_overrides_apply_per_field():
    doc = minimal_doc()
    doc["link"] = {"bands": {"low": {"ul_mean_mbps": 10.0}}}
    scenario = load_scenario(doc)
    low = scenario.bands[Band.LOW_ALTITUDE]
    assert low.ul_mean == 10.0
    assert low.dl_mean == 356.77  # untouched fields keep their defaults
    assert scenario.bands[Band.HIGH_ALTITUDE].ul_mean == 37.12


def test_unknown_band_regime_is_rejected():
    doc = minimal_doc()
    doc["link"] = {"bands": {"stratosphere": {}}}
    with pytest.raises(SchemaError):
        load_scenario(doc)


def test_one_way_fraction_bounds():
    doc = minimal_doc()
    doc["link"] = {"one_way_fraction": 1.5}
    with pytest.raises(SchemaError):
        load_scenario(doc)
    doc["link"] = {"one_way_fraction": 0.0}
    with pytest.raises(SchemaError):
        load_scenario(doc)


def test_link_defaults():
    scenario = load_scenario(minimal_doc())
    assert scenario.floor_mbps == 1.0
    assert scenario.one_way_fraction == 0.5
    assert scenario.variance_scale == 1.0
