"""Event-driven runs: determinism, flight geometry, horizons, failure paths."""

import re

import pytest
import yaml

from birdsim import (
    Band,
    FlightState,
    Incident,
    LinkModel,
    NodeKind,
    NodeProfile,
    Origin,
    PipelinePlacement,
    ProgramSpec,
    ProgramTableEntry,
    RunAborted,
    Scenario,
    Task,
    Waypoint,
    band_for,
    e2e_latency,
    flight_state_at,
    load_scenario,
    metrics_to_csv,
    run,
    trace_to_text,
)

from conftest import make_flat_bands

DETECT = ProgramSpec("p", "object_detection", compute_cost=40.0,
                     input_payload=1e6, output_payload=1e5,
                     encode_cost=2.0, decode_cost=2.0)


def make_scenario(**overrides):
    base = dict(
        name="unit",
        duration=20.0,
        nodes={
            0: NodeProfile(0, NodeKind.UAV5GP, 25.0, mobile=True,
                           cached_programs=frozenset(), battery_budget=1200.0),
            1: NodeProfile(1, NodeKind.ECS, 100.0, location=(58.9, 0.0, 0.0)),
        },
        programs={"p": DETECT},
        tables=(ProgramTableEntry(1, "p"),),
        tasks=(Task("t1", ("p",), Origin.COMMANDER_ORDER, 0.0, consumer=1),),
        t_int=2.0,
        seed=3,
        bands=make_flat_bands(ul=10.0, dl=100.0, rtt=20.0),
        variance_scale=0.0,
    )
    base.update(overrides)
    return Scenario(**base)


def kinds_of(trace):
    return {re.search(r"kind=(\w+)", line).group(1) for line in trace}


# --------------------------------------------------------------- determinism


def test_reference_run_is_reproducible(scenario_path):
    scenario = load_scenario(scenario_path)
    first = run(scenario)
    second = run(scenario)
    assert trace_to_text(first.trace) == trace_to_text(second.trace)
    assert metrics_to_csv(first.metrics) == metrics_to_csv(second.metrics)
    assert first.metrics.moments == second.metrics.moments


def test_seed_override_changes_the_run(scenario_path):
    scenario = load_scenario(scenario_path)
    a = run(scenario, seed=1)
    b = run(scenario, seed=2)
    assert a.trace != b.trace


# ----------------------------------------------------------- flight geometry


def test_altitude_interpolates_between_waypoints():
    sc = make_scenario(flight_plan=(Waypoint(0.0, 0.0), Waypoint(60.0, 30.0)))
    assert flight_state_at(sc, 0.0).altitude == 0.0
    assert flight_state_at(sc, 30.0).altitude == 15.0
    assert flight_state_at(sc, 90.0).altitude == 30.0  # holds after the last


def test_posture_holds_before_the_first_waypoint():
    sc = make_scenario(flight_plan=(Waypoint(10.0, 40.0), Waypoint(20.0, 60.0)))
    assert flight_state_at(sc, 0.0).altitude == 40.0


def test_rotation_is_a_step_function():
    sc = make_scenario(flight_plan=(
        Waypoint(0.0, 30.0),
        Waypoint(10.0, 30.0, rotating=True),
        Waypoint(20.0, 30.0),
    ))
    assert not flight_state_at(sc, 5.0).rotating
    assert flight_state_at(sc, 10.0).rotating
    assert flight_state_at(sc, 15.0).rotating
    assert not flight_state_at(sc, 25.0).rotating
    state = flight_state_at(sc, 15.0)
    assert band_for(state.altitude, state.rotating) is Band.ROTATION


# ------------------------------------------------------------------ horizons


def test_empty_mission_emits_only_structure():
    result = run(make_scenario(tasks=()))
    assert kinds_of(result.trace) <= {"Tick", "FlightWaypoint", "Flush"}
    assert result.metrics.tasks == []
    assert all(v == 0 for v in result.metrics.counts.values())
    assert result.metrics.moments.termination == 20.0


def test_battery_truncates_the_mission():
    nodes = {
        0: NodeProfile(0, NodeKind.UAV5GP, 25.0, mobile=True,
                       battery_budget=7.0),
        1: NodeProfile(1, NodeKind.ECS, 100.0),
    }
    result = run(make_scenario(nodes=nodes, tasks=()))
    assert result.metrics.moments.termination == 7.0
    last = result.trace[-1]
    assert "kind=Flush" in last
    assert last.startswith("t=7.0 ")
    ticks = [line for line in result.trace if "kind=Tick" in line]
    assert len(ticks) == 4  # 0, 2, 4, 6 — tick 8 would outlive the battery


def test_work_cut_by_the_horizon_is_cancelled_once(scenario_path):
    # stream-vr's input lands at about 40.8 s and its compute stage would end
    # past the 41 s horizon, so the instance is cancelled there; its wire
    # entry is then flushed, and the instance must not be counted again
    doc = yaml.safe_load(scenario_path.read_text())
    doc["duration_s"] = 41.0
    del doc["truck_arrival_s"]
    doc["tasks"] = [t for t in doc["tasks"] if t["issue_time_s"] < 41.0]
    doc["timeline"] = [{"phase_id": "transit"}]
    result = run(load_scenario(doc))
    assert result.trace[-1].endswith(" flushed=20:2:stitch cancelled=1")
    assert result.metrics.counts["cancelled"] == 1


# ----------------------------------------------------------------- execution


def test_local_execution_takes_exactly_the_compute_stage():
    nodes = {
        0: NodeProfile(0, NodeKind.UAV5GP, 25.0, mobile=True,
                       cached_programs=frozenset({"p"}), battery_budget=1200.0),
        1: NodeProfile(1, NodeKind.ECS, 100.0),
    }
    sc = make_scenario(nodes=nodes, tables=(),
                       tasks=(Task("t1", ("p",), Origin.COMMANDER_ORDER, 0.0),))
    result = run(sc)
    prog = result.metrics.tasks[0].programs[0]
    assert prog.status == "completed"
    assert prog.server == 0
    assert prog.breakdown.t_enc == 0.0
    assert prog.breakdown.t_comm == 0.0
    assert prog.breakdown.t_dec == 0.0
    assert prog.breakdown.t_proc == 40.0 / 25.0
    assert prog.delivered_at == 40.0 / 25.0
    assert result.metrics.counts["requests"] == 0


def test_noise_free_run_matches_the_static_prediction():
    sc = make_scenario()
    result = run(sc)
    prog = result.metrics.tasks[0].programs[0]
    expected = e2e_latency(
        sc.programs["p"],
        PipelinePlacement(source=0, executor=1, consumer=1),
        sc.nodes,
        LinkModel(bands=sc.bands, variance_scale=0.0),
        flight_state_at(sc, 0.0),
    )
    assert prog.status == "completed"
    assert prog.breakdown == expected
    assert prog.delivered_at == expected.t_e2e
    assert result.metrics.tasks[0].completed_at == expected.t_e2e
    counts = result.metrics.counts
    assert counts["requests"] == 1
    assert counts["responses"] == 1
    assert counts["timeouts"] == 0


def test_late_tasks_wait_for_their_tick():
    sc = make_scenario(tasks=(Task("t1", ("p",), Origin.COMMANDER_ORDER, 3.0,
                                   consumer=1),))
    result = run(sc)
    assert result.metrics.tasks[0].first_served_at == 4.0


def test_unreachable_sole_server_times_out_every_interval():
    sc = make_scenario(duration=10.0, loss={1: 1.0})
    result = run(sc)
    counts = result.metrics.counts
    assert counts["requests"] == 5  # ticks at 0, 2, 4, 6, 8
    assert counts["responses"] == 0
    assert counts["timeouts"] == 5
    assert counts["requests"] == counts["responses"] + counts["timeouts"]
    assert result.metrics.tasks_completed() == 0
    prog = result.metrics.tasks[0].programs[0]
    assert prog.status == "pending"
    assert prog.attempts == 5


# ------------------------------------------------------------------ ordering


def test_trace_is_causally_ordered(scenario_path):
    result = run(load_scenario(scenario_path))
    times = [float(re.search(r"^t=([^ ]+)", line).group(1))
             for line in result.trace]
    assert times == sorted(times)
    tpos = [int(re.search(r"tpos=(\d+)", line).group(1))
            for line in result.trace]
    assert tpos == sorted(tpos)


def test_virtual_awareness_precedes_physical(scenario_path):
    result = run(load_scenario(scenario_path))
    m = result.metrics.moments
    assert m.reported is not None
    assert m.virtual_awareness is not None
    assert m.physical_awareness is not None
    assert m.reported < m.virtual_awareness < m.physical_awareness
    assert any("moment=virtual_awareness" in line for line in result.trace)
    assert any("moment=physical_awareness" in line for line in result.trace)


def test_ordering_violations_abort_with_the_trace():
    # a monitoring result lands before the incident is even reported
    sc = make_scenario(incident=Incident(start=0.0, observed=5.0, reported=15.0))
    with pytest.raises(RunAborted) as err:
        run(sc)
    assert "OrderingViolation" in str(err.value)
    assert err.value.trace
    assert "kind=Abort" in err.value.trace[-1]


# -------------------------------------------------------------------- trace


def test_tick_lines_follow_the_interval_grid():
    result = run(make_scenario(tasks=()))
    ticks = [line for line in result.trace if "kind=Tick" in line]
    times = [float(re.search(r"^t=([^ ]+)", line).group(1)) for line in ticks]
    assert times == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0]


def test_wire_runs_log_the_resolution_chain():
    result = run(make_scenario())
    text = trace_to_text(result.trace)
    assert "entries=0:1:p" in text
    assert "resolved=0:1:p" in text
    assert "delivered=1" in text
