"""Event-driven runs: determinism, flight geometry, horizons, failure paths,
retry chains."""

import csv
import functools
import heapq
import io
import math
import random
import re
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from urllib.parse import unquote

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from birdsim import (
    Band,
    Direction,
    Incident,
    LinkBandParams,
    LinkModel,
    NodeKind,
    NodeProfile,
    Origin,
    OutOfMeasuredRange,
    PipelinePlacement,
    ProgramSpec,
    ProgramTableEntry,
    RunAborted,
    Scenario,
    Task,
    Waypoint,
    candidates_for,
    default_link_params,
    e2e_latency,
    load_scenario,
    metrics_to_csv,
    run,
    samples_to_csv,
    select_server,
    summary_to_json,
    trace_to_text,
)
from birdsim import channel, engine, policy, protocol
from birdsim.channel import BAND_SPLIT_M, FlightState, band_for, keyed_uniform
from birdsim.engine import band_reader, flight_state_at
from birdsim.scenario import apply_sweep_value

from conftest import BUNDLED_SCENARIO, ROOT, bench_build, make_flat_bands

DETECT = ProgramSpec("p", "object_detection", compute_cost=40.0,
                     input_payload=1e6, output_payload=1e5,
                     encode_cost=2.0, decode_cost=2.0)


def statuses(result):
    """The status column of the run's metrics.csv."""
    return [row["status"] for row in csv.DictReader(io.StringIO(metrics_to_csv(result.metrics)))]


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


def linear_flight_state(plan, t):
    """The segment found by a linear scan: the oracle for the bisection."""
    if t <= plan[0].t:
        wp = plan[0]
        return FlightState(t=t, altitude=wp.altitude, rotating=wp.rotating)
    for a, b in zip(plan, plan[1:]):
        if t < b.t:
            frac = (t - a.t) / (b.t - a.t)
            return FlightState(
                t=t,
                altitude=a.altitude + frac * (b.altitude - a.altitude),
                rotating=a.rotating,
            )
    wp = plan[-1]
    return FlightState(t=t, altitude=wp.altitude, rotating=wp.rotating)


def state_bits(state):
    return (state.t.hex(), state.altitude.hex(), state.rotating)


WAYPOINT_TIMES = st.lists(st.floats(0.0, 1e4), min_size=1, max_size=8, unique=True)
POSTURES = st.tuples(st.floats(0.0, 100.0), st.booleans())


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_bisected_flight_state_equals_the_linear_scan(data):
    times = sorted(data.draw(WAYPOINT_TIMES))
    plan = tuple(Waypoint(t, *data.draw(POSTURES)) for t in times)
    sc = make_scenario(flight_plan=plan)
    between = [a + (b - a) * data.draw(st.floats(0.0, 1.0))
               for a, b in zip(times, times[1:])]
    queries = [times[0] - data.draw(st.floats(1e-6, 1e3)), *times, *between,
               times[-1] + data.draw(st.floats(0.0, 1e3)),
               *data.draw(st.lists(st.floats(-10.0, 1.1e4), max_size=5))]
    for t in queries:
        assert state_bits(flight_state_at(sc, t)) == state_bits(
            linear_flight_state(plan, t)), t


def ulps_around(x, n):
    """The 2n + 1 floats from n ulps below x to n ulps above it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return [*below[::-1], *above[1:]]


# in the envelope, on its edges and the band split, and at its extreme floats
ALTITUDES = (st.floats(0.0, 100.0)
             | st.sampled_from([0.0, 5e-324, 0.1, math.nextafter(50.0, 0.0), 50.0, 100.0]))
BUNDLED_PLAN = load_scenario(BUNDLED_SCENARIO).flight_plan


@st.composite
def flight_plans(draw, altitudes=ALTITUDES):
    times = sorted(draw(WAYPOINT_TIMES))
    return tuple(Waypoint(t, draw(altitudes), draw(st.booleans())) for t in times)


@settings(deadline=None, max_examples=200)
@given(flight_plans(), st.lists(st.floats(-10.0, 1.1e4), max_size=5))
@example(BUNDLED_PLAN, [])
@example((Waypoint(0.0, 50.0), Waypoint(10.0, 40.0)), [])  # descends from 50 m
@example((Waypoint(5.0, 70.0),), [])
# the envelope's extreme segments, over long and short spans
@example((Waypoint(0.0, 0.1), Waypoint(1e4, 100.0)), [])
@example((Waypoint(0.0, 100.0), Waypoint(9999.5, 5e-324)), [])
@example((Waypoint(0.0, 0.0), Waypoint(5e-324, 100.0), Waypoint(1e4, 0.0)), [])
def test_the_band_timeline_equals_the_band_of_each_flight_state(plan, random_times):
    """Every instant of an in-envelope plan has the band_for band of its
    flight state: at each waypoint, one ulp before it, and within 4 ulps of
    each sloped segment's closed-form 50 m crossing. band_for raises outside
    [0, 100] m, so this also pins that the interpolation never leaves the
    envelope."""
    band_at = band_reader(plan)
    sc = make_scenario(flight_plan=plan)
    crossings = [a.t + (BAND_SPLIT_M - a.altitude) / (b.altitude - a.altitude) * (b.t - a.t)
                 for a, b in zip(plan, plan[1:]) if a.altitude != b.altitude]
    queries = [*(wp.t for wp in plan), *(math.nextafter(wp.t, -math.inf) for wp in plan[1:]),
               *(t for c in crossings for t in ulps_around(c, 4)),
               plan[0].t - 1.0, plan[-1].t + 1.0, *random_times]
    for t in queries:
        state = flight_state_at(sc, t)
        assert band_at(t) is band_for(state.altitude, state.rotating), t


@settings(deadline=None, max_examples=100)
@given(flight_plans(st.floats(-200.0, 300.0) | st.just(math.nan) | ALTITUDES))
@example((Waypoint(0.0, 150.0, rotating=True),))
@example((Waypoint(0.0, 30.0), Waypoint(10.0, 100.0), Waypoint(20.0, 100.5)))
@example((Waypoint(0.0, 30.0), Waypoint(10.0, math.nan, rotating=True)))
def test_a_plan_outside_the_envelope_is_refused_at_its_first_such_waypoint(plan):
    """A plan is refused iff a waypoint lies outside [0, 100] m or is NaN,
    with band_for's message for the first such waypoint."""
    outside = [wp for wp in plan if not 0.0 <= wp.altitude <= 100.0]
    if not outside:
        band_reader(plan)
        return
    with pytest.raises(OutOfMeasuredRange) as err:
        band_reader(plan)
    assert str(err.value) == f"altitude {outside[0].altitude} m outside [0, 100.0]"


def test_the_bundled_plan_crosses_50_m_exactly_at_150_s_and_after_340_s():
    # 150.0 is a tick at the reference sweep's update intervals 0.5, 1 and
    # 2 s, and 340.0 at all four: a band read one ulp off the crossing would
    # give those ticks the other band
    sc = make_scenario(flight_plan=BUNDLED_PLAN)
    low, high = Band.LOW_ALTITUDE, Band.HIGH_ALTITUDE
    assert flight_state_at(sc, 150.0).altitude == flight_state_at(sc, 340.0).altitude == 50.0
    after = math.nextafter(340.0, math.inf)
    assert after == 340.00000000000006
    assert flight_state_at(sc, after).altitude < 50.0
    band_at = band_reader(BUNDLED_PLAN)
    assert band_at(150.0) is band_at(340.0) is high
    assert band_at(math.nextafter(150.0, -math.inf)) is band_at(after) is low


def test_legs_that_start_on_a_50_m_crossing_are_sampled_high():
    """Two wire dispatches on the bundled plan whose input legs start at the
    ticks 150.0 and 340.0, where the altitude is exactly 50 m. A split
    compared with <= reads both as low, and that reaches samples.csv here."""
    sc = make_scenario(
        flight_plan=BUNDLED_PLAN, duration=400.0, t_int=2.0,
        programs={"p": replace(DETECT, encode_cost=0.0)},
        tasks=tuple(Task(f"t{t:g}", ("p",), Origin.COMMANDER_ORDER, t, consumer=1)
                    for t in (150.0, 340.0)),
    )
    rows = csv.DictReader(io.StringIO(samples_to_csv(run(sc).metrics)))
    assert [(row["t_s"], row["band"]) for row in rows] == [
        ("150.0", "high"), ("340.0", "high")]


@pytest.mark.parametrize("plan, error, message", [
    ((Waypoint(0.0, 10.0), Waypoint(0.0, 20.0)), ValueError, "not strictly increasing"),
    ((Waypoint(1.0, 10.0), Waypoint(0.0, 20.0)), ValueError, "not strictly increasing"),
    ((Waypoint(0.0, 10.0), Waypoint(math.inf, 20.0)), ValueError, "not strictly increasing"),
    ((Waypoint(0.0, 10.0), Waypoint(1.0, math.nan)), OutOfMeasuredRange, "altitude nan m"),
], ids=["repeated-time", "time-goes-back", "infinite-time", "nan-altitude"])
def test_a_plan_without_a_band_timeline_is_refused(plan, error, message):
    with pytest.raises(error, match=message):
        band_reader(plan)


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


def test_cancelled_counts_the_staged_executions_never_delivered():
    """Without loss every wire entry and every local execution of a Tick is
    staged, and each staged execution ends either delivered or cancelled."""
    from test_digests import mixed, retry_heavy  # it imports this module

    # (scenario, fraction of its duration a cut run keeps); retry_heavy's
    # cut outlasts the incident report at 25 s and ends during a local
    # execution, which is then cancelled without a timeout
    builds = {
        "reference": (lambda: yaml.safe_load(BUNDLED_SCENARIO.read_text()), 0.37),
        "retry_heavy": (retry_heavy, 0.52),
        "mixed": (lambda: mixed(1.0), 0.37),
    }
    cancelled_total = local_cut = 0
    for name, (build, fraction) in builds.items():
        doc = build()
        doc["loss"] = {}
        full = load_scenario(doc)
        for cut in (1.0, fraction):
            result = run(replace(full, duration=full.duration * cut))
            records = [record_fields(line) for line in result.trace]
            staged = sum(
                len(r[field].split(";")) if r[field] else 0
                for r in records if r["kind"] == "Tick"
                for field in ("entries", "locals")
            )
            delivered = sum(1 for r in records if "delivered" in r)
            cancelled = result.metrics.counts["cancelled"]
            assert cancelled == staged - delivered, (name, cut)
            assert records[-1]["cancelled"] == str(cancelled), (name, cut)
            cancelled_total += cancelled
            local_cut += cancelled - result.metrics.counts["timeouts"]
    assert cancelled_total > 0 and local_cut > 0


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
    assert statuses(result) == ["completed"]
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
    assert statuses(result) == ["completed"]
    assert prog.breakdown == expected
    assert prog.delivered_at == expected.t_e2e
    assert result.metrics.tasks[0].completed_at == expected.t_e2e
    counts = result.metrics.counts
    assert counts["requests"] == 1
    assert counts["responses"] == 1
    assert counts["timeouts"] == 0


CAPACITIES = st.floats(0.5, 1000.0)
COSTS = st.one_of(st.just(0.0), st.floats(0.1, 100.0))
PAYLOADS = st.one_of(st.just(0.0), st.floats(1e3, 1e7))


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_the_engine_realizes_what_pipeline_prices(data):
    """A one-task mission without link noise, on one waypoint, whose ticks
    are far apart: the delivered breakdown is exactly the pipeline's price
    of the placement the policy chose, whatever the stages, the executor,
    the consumer and the link band."""
    program = ProgramSpec(
        "p", "object_detection", compute_cost=data.draw(COSTS),
        input_payload=data.draw(PAYLOADS), output_payload=data.draw(PAYLOADS),
        encode_cost=data.draw(COSTS), decode_cost=data.draw(COSTS))
    cached = data.draw(st.booleans())
    servers = data.draw(st.lists(st.sampled_from((1, 2)), unique=True,
                                 min_size=0 if cached else 1))
    consumer = data.draw(st.sampled_from((0, 1, 2)))
    nodes = {
        0: NodeProfile(0, NodeKind.UAV5GP, data.draw(CAPACITIES), mobile=True,
                       cached_programs=frozenset({"p"} if cached else ()),
                       battery_budget=1200.0),
        1: NodeProfile(1, NodeKind.ECS, data.draw(CAPACITIES)),
        2: NodeProfile(2, NodeKind.GCS, data.draw(CAPACITIES)),
    }
    altitude = data.draw(st.sampled_from((20.0, 80.0)))  # low and high bands
    sc = make_scenario(
        duration=1000.0, t_int=2000.0, nodes=nodes, programs={"p": program},
        tables=tuple(ProgramTableEntry(s, "p") for s in servers),
        tasks=(Task("t1", ("p",), Origin.COMMANDER_ORDER, 0.0, consumer=consumer),),
        bands=default_link_params(),
        flight_plan=(Waypoint(0.0, altitude, data.draw(st.booleans())),),
    )
    result = run(sc)
    assert statuses(result) == ["completed"]
    prog = result.metrics.tasks[0].programs[0]
    mean_link = LinkModel(bands=sc.bands, floor_mbps=sc.floor_mbps, variance_scale=0.0,
                          one_way_fraction=sc.one_way_fraction)
    assert prog.breakdown == e2e_latency(
        program, PipelinePlacement(0, prog.server, consumer), sc.nodes, mean_link,
        flight_state_at(sc, 0.0))


def test_samples_csv_has_a_row_per_link_leg_and_a_variance_free_link_draws_nothing(
        monkeypatch):
    """samples.csv as docs/output-formats.md defines it: one row per sampled
    link leg, in sampling order; t_s is when the leg starts, band the band
    there, the throughput the value after the floor clamp, and the delay
    rtt_mean x one_way_fraction. Without variance a leg takes its band's
    mean, so the bundled mission writes 6 rows and draws nothing."""
    legs = []
    sample_leg = engine._Sim._sample_leg

    def recording(self, t, payload, direction):
        legs.append((t, direction))
        return sample_leg(self, t, payload, direction)

    monkeypatch.setattr(engine._Sim, "_sample_leg", recording)
    sc = replace(load_scenario(BUNDLED_SCENARIO), variance_scale=0.0)
    result, draws = run_counting_draws(monkeypatch, sc)
    rows = list(csv.DictReader(io.StringIO(samples_to_csv(result.metrics))))
    assert len(rows) == len(legs) == 6
    assert draws["normal"] == 0
    for row, (t, direction) in zip(rows, legs):
        state = flight_state_at(sc, t)
        band = band_for(state.altitude, state.rotating)
        params = sc.bands[band]
        mean = params.ul_mean if direction is Direction.UL else params.dl_mean
        assert row == {
            "t_s": repr(t), "band": band.value, "direction": direction.value,
            "throughput_mbps": repr(max(sc.floor_mbps, mean)),
            "one_way_delay_ms": repr(params.rtt_mean * sc.one_way_fraction),
        }


def test_late_tasks_wait_for_their_tick():
    def due_by_tick(*issues):
        """(first_served_at of each task, {tick time: due=}) of a run whose
        tasks, in scenario order, are issued at the given times."""
        tasks = tuple(Task(f"t{i}", ("p",), Origin.COMMANDER_ORDER, t, consumer=1)
                      for i, t in enumerate(issues, 1))
        result = run(make_scenario(tasks=tasks))
        due = dict(re.search(r"^t=(\S+) .*kind=Tick .*due=(\S*)", line).groups()
                   for line in result.trace if "kind=Tick" in line)
        return [task.first_served_at for task in result.metrics.tasks], due

    served, due = due_by_tick(3.0)
    assert served == [4.0] and due["2.0"] == "" and due["4.0"] == "t1"
    # issued exactly on a tick, the first one included: due at that Tick
    served, due = due_by_tick(0.0, 4.0)
    assert served == [0.0, 4.0] and due["0.0"] == "t1" and due["4.0"] == "t2"
    # issued in one interval out of scenario order: listed in scenario order
    served, due = due_by_tick(5.5, 4.5)
    assert served == [6.0, 6.0] and due["4.0"] == "" and due["6.0"] == "t1,t2"


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
    assert statuses(result) == ["pending"]
    assert prog.delivered_at is None
    assert prog.attempts == 5


def deadline_tie_scenario(duration, consumer, **payloads):
    """One task on server 1 whose stages are timed in quarter seconds: encode
    0.25 s, no compute, and a 0.25 s one-way delay plus 1 s per 1e6 bits on
    every leg. Each tick dispatches it again, at t_int 1 s."""
    return make_scenario(
        duration=duration, t_int=1.0,
        nodes={0: NodeProfile(0, NodeKind.UAV5GP, 4.0, mobile=True),
               1: NodeProfile(1, NodeKind.ECS, 1.0)},
        programs={"p": ProgramSpec("p", "object_detection", compute_cost=0.0,
                                   encode_cost=1.0, **payloads)},
        tasks=(Task("a", ("p",), Origin.COMMANDER_ORDER, 0.0, consumer=consumer),),
        bands=make_flat_bands(ul=1.0, dl=1.0, rtt=500.0),
    )


def test_an_input_on_its_deadline_runs_and_work_after_it_is_doomed():
    """Each input lands exactly on its deadline, the next tick: it was pushed
    before that tick's Timeout, so it is handled first. Its compute stage
    ends at the same time, after the Timeout, so that event is doomed: it
    takes its seq (6, 10, 14 and 17 are missing) but never runs."""
    sc = deadline_tie_scenario(4.0, 1, input_payload=500_000.0, output_payload=0.0)
    assert run(sc).trace == [
        "t=0.0 seq=0 kind=TaskIssued tpos=0 task=a",
        "t=0.0 seq=1 kind=FlightWaypoint tpos=0 altitude=0.0 rotating=0",
        "t=0.0 seq=2 kind=Tick tpos=0 tick=0 due=a entries=0:1:p locals= unserved= msgs=1",
        "t=1.0 seq=3 kind=TransferComplete tpos=0 inst=0 leg=input entry=0:1:p",
        "t=1.0 seq=4 kind=Timeout tpos=0 tick=0 timed_out=0:1:p count=1",
        "t=1.0 seq=5 kind=Tick tpos=0 tick=1 due= entries=1:1:p locals= unserved= msgs=1",
        "t=2.0 seq=7 kind=TransferComplete tpos=0 inst=1 leg=input entry=1:1:p",
        "t=2.0 seq=8 kind=Timeout tpos=0 tick=1 timed_out=1:1:p count=1",
        "t=2.0 seq=9 kind=Tick tpos=0 tick=2 due= entries=2:1:p locals= unserved= msgs=1",
        "t=3.0 seq=11 kind=TransferComplete tpos=0 inst=2 leg=input entry=2:1:p",
        "t=3.0 seq=12 kind=Timeout tpos=0 tick=2 timed_out=2:1:p count=1",
        "t=3.0 seq=13 kind=Tick tpos=0 tick=3 due= entries=3:1:p locals= unserved= msgs=1",
        "t=4.0 seq=15 kind=TransferComplete tpos=0 inst=3 leg=input entry=3:1:p",
        "t=4.0 seq=16 kind=Timeout tpos=0 tick=3 timed_out=3:1:p count=1",
        "t=4.0 seq=18 kind=Flush tpos=0 flushed= cancelled=4",
    ]


def test_an_output_on_its_deadline_is_doomed():
    """The output leg of each execution lands exactly on its deadline. It was
    scheduled after that tick's Timeout, so its entry has timed out: the
    arrival is doomed (seqs 7, 12 and 16 are missing) and nothing is
    delivered."""
    sc = deadline_tie_scenario(3.0, 0, input_payload=0.0, output_payload=250_000.0)
    result = run(sc)
    assert result.trace == [
        "t=0.0 seq=0 kind=TaskIssued tpos=0 task=a",
        "t=0.0 seq=1 kind=FlightWaypoint tpos=0 altitude=0.0 rotating=0",
        "t=0.0 seq=2 kind=Tick tpos=0 tick=0 due=a entries=0:1:p locals= unserved= msgs=1",
        "t=0.5 seq=3 kind=TransferComplete tpos=0 inst=0 leg=input entry=0:1:p",
        "t=0.5 seq=6 kind=ComputeComplete tpos=0 inst=0 entry=0:1:p local=0",
        "t=1.0 seq=4 kind=Timeout tpos=0 tick=0 timed_out=0:1:p count=1",
        "t=1.0 seq=5 kind=Tick tpos=0 tick=1 due= entries=1:1:p locals= unserved= msgs=1",
        "t=1.5 seq=8 kind=TransferComplete tpos=0 inst=1 leg=input entry=1:1:p",
        "t=1.5 seq=11 kind=ComputeComplete tpos=0 inst=1 entry=1:1:p local=0",
        "t=2.0 seq=9 kind=Timeout tpos=0 tick=1 timed_out=1:1:p count=1",
        "t=2.0 seq=10 kind=Tick tpos=0 tick=2 due= entries=2:1:p locals= unserved= msgs=1",
        "t=2.5 seq=13 kind=TransferComplete tpos=0 inst=2 leg=input entry=2:1:p",
        "t=2.5 seq=15 kind=ComputeComplete tpos=0 inst=2 entry=2:1:p local=0",
        "t=3.0 seq=14 kind=Timeout tpos=0 tick=2 timed_out=2:1:p count=1",
        "t=3.0 seq=17 kind=Flush tpos=0 flushed= cancelled=3",
    ]
    assert result.metrics.counts["responses"] == 0


def test_a_doomed_input_keeps_its_inst_id_leg_sample_and_seq():
    """Two programs dispatched together: "big"'s input lands at 1.25 s, after
    its 1.0 s deadline, and "p"'s on it. The doomed input takes inst id 0 and
    seq 4 and writes its samples.csv row, but no record; so do the retries
    at tick 1, whose inputs land past the run."""
    sc = deadline_tie_scenario(1.25, 1, input_payload=500_000.0, output_payload=0.0)
    big = replace(sc.programs["p"], program_id="big", input_payload=750_000.0)
    sc = replace(
        sc, programs={"big": big, **sc.programs},
        tables=(ProgramTableEntry(1, "big"), ProgramTableEntry(1, "p")),
        tasks=(Task("a", ("big",), Origin.COMMANDER_ORDER, 0.0, consumer=1),
               Task("b", ("p",), Origin.COMMANDER_ORDER, 0.0, consumer=1)),
    )
    result = run(sc)
    assert result.trace == [
        "t=0.0 seq=0 kind=TaskIssued tpos=0 task=a",
        "t=0.0 seq=1 kind=TaskIssued tpos=0 task=b",
        "t=0.0 seq=2 kind=FlightWaypoint tpos=0 altitude=0.0 rotating=0",
        "t=0.0 seq=3 kind=Tick tpos=0 tick=0 due=a,b entries=0:1:big;0:1:p locals= "
        "unserved= msgs=1",
        "t=1.0 seq=5 kind=TransferComplete tpos=0 inst=1 leg=input entry=0:1:p",
        "t=1.0 seq=6 kind=Timeout tpos=0 tick=0 timed_out=0:1:big;0:1:p count=2",
        "t=1.0 seq=7 kind=Tick tpos=0 tick=1 due= entries=1:1:big;1:1:p locals= "
        "unserved= msgs=1",
        "t=1.25 seq=9 kind=Flush tpos=0 flushed=1:1:big;1:1:p cancelled=4",
    ]
    assert samples_to_csv(result.metrics).splitlines()[1:] == [
        "0.25,low,ul,1.0,250.0", "0.25,low,ul,1.0,250.0",
        "1.25,low,ul,1.0,250.0", "1.25,low,ul,1.0,250.0",
    ]


def test_an_idle_tick_writes_its_deferred_pairs():
    """A tick with no due task and no retry dispatches nothing, but its
    record still lists every deferred pair."""
    sc = make_scenario(
        duration=4.0, programs={"p": DETECT, "q": replace(DETECT, program_id="q")},
        tasks=(Task("t1", ("p", "q"), Origin.COMMANDER_ORDER, 0.0, consumer=1),),
    )
    result = run(sc)
    assert result.trace[2:] == [
        "t=0.0 seq=2 kind=Tick tpos=0 tick=0 due=t1 entries= locals= unserved=t1:q msgs=0",
        "t=2.0 seq=3 kind=Tick tpos=0 tick=1 due= entries= locals= unserved=t1:q msgs=0",
        "t=4.0 seq=4 kind=Flush tpos=0 flushed= cancelled=0",
    ]
    assert result.metrics.counts["unserved_events"] == 2


def reported_tie_scenario():
    """deadline_tie_scenario without payloads, reported at 0.5 s: its first
    result reaches server 1, an ecs consumer, at exactly 0.5 s (a 0.25 s
    encode, a 0.25 s one-way input leg, no compute)."""
    return replace(deadline_tie_scenario(4.0, 1, input_payload=0.0, output_payload=0.0),
                   incident=Incident(reported=0.5))


def test_a_result_at_the_report_sets_virtual_awareness():
    """A sensing result delivered at reported_s, not only after it, makes
    virtual awareness, and the record that delivers it says so."""
    result = run(reported_tie_scenario())
    assert result.metrics.moments.virtual_awareness == 0.5
    assert result.trace[4] == (
        "t=0.5 seq=6 kind=ComputeComplete tpos=0 inst=0 entry=0:1:p local=0 "
        "resolved=0:1:p delivered=1 moment=virtual_awareness"
    )


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


def test_a_result_before_the_report_sets_no_awareness(scenario_path):
    doc = yaml.safe_load(scenario_path.read_text())
    delivered_at = [float(record_fields(line)["t"])
                    for line in run(load_scenario(doc)).trace if " delivered=" in line]
    # the first sensing result reaches a ground node at 30.6 s, the next at
    # 41.4 s: with the report in between, the later one sets the moment
    doc["incident"]["reported_s"] = 35.0
    result = run(load_scenario(doc))
    assert result.metrics.moments.virtual_awareness == delivered_at[1]
    [line] = [line for line in result.trace if "moment=virtual_awareness" in line]
    assert line.startswith(f"t={delivered_at[1]!r} ")
    # reported after every sensing result: the run completes, never aware
    doc["incident"]["reported_s"] = 200.0
    assert run(load_scenario(doc)).metrics.moments.virtual_awareness is None


def test_a_program_result_phase_advances_at_its_delivery(scenario_path):
    doc = yaml.safe_load(scenario_path.read_text())
    # stitch is the one program of stream-vr, the task the survey waits for,
    # so the run is the golden one
    doc["timeline"][1]["completes_when"] = {"program_result": "stitch"}
    golden = (ROOT / "tests" / "golden" / "urban_fire_trace.log").read_text()
    assert trace_to_text(run(load_scenario(doc)).trace) == golden
    # the first detect result ends the survey: its record shows the position
    # before the advance, the next record the one after
    doc["timeline"][1]["completes_when"] = {"program_result": "detect"}
    result = run(load_scenario(doc))
    assert result.metrics.phase_log == [(20.0, 0, 1), (30.599192090422072, 1, 2)]
    [i] = [i for i, line in enumerate(result.trace)
           if line.startswith("t=30.599192090422072 ")]
    assert " resolved=15:1:detect delivered=2 " in result.trace[i]
    assert [record_fields(line)["tpos"] for line in result.trace[i:i + 2]] == ["1", "2"]


def test_ordering_violations_abort_with_the_trace():
    # the ground unit arrives before the incident is even reported, which
    # only a hand-built scenario can say: load_scenario rejects it
    incident = Incident(start=0.0, observed=5.0, reported=15.0)
    sc = make_scenario(incident=incident, truck_arrival=9.0)
    with pytest.raises(RunAborted) as err:
        run(sc)
    assert "OrderingViolation" in str(err.value)
    trace = err.value.trace
    assert trace
    assert "kind=Abort" in trace[-1]
    # every record, the Abort included, keeps the key=value grammar
    records = []
    for line in trace:
        tokens = [token.split("=", 1) for token in line.split(" ")]
        assert all(len(pair) == 2 for pair in tokens), line
        assert [key for key, _ in tokens[:4]] == ["t", "seq", "kind", "tpos"], line
        records.append(dict(tokens))
    order = [(float(r["t"]), int(r["seq"])) for r in records]
    assert order == sorted(set(order))
    abort = records[-1]
    assert unquote(abort["error"]) == str(err.value)
    assert unquote(abort["error"]).startswith("OrderingViolation: ")
    # the Abort takes the (t, seq) of the event that raised: the arrival
    # that sets physical_awareness in the same run without the incident
    clean = run(make_scenario(truck_arrival=9.0))
    arrival = next(line for line in clean.trace if "moment=physical_awareness" in line)
    assert arrival.startswith(f"t={abort['t']} seq={abort['seq']} ")


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


def record_fields(line):
    return dict(token.split("=", 1) for token in line.split(" "))


def wire_servers(trace):
    """Server of every wire entry opened, in trace order."""
    return [
        int(key.split(":")[1])
        for line in trace if " kind=Tick " in line
        for key in record_fields(line)["entries"].split(";") if key
    ]


# ------------------------------------------------------------ offload choice


def regime_scenario():
    """A mission whose offload choice for program p turns on every part of
    the (program, exclusion, consumer, band) key.

    Server 2 computes ten times faster than server 1, but a consumer other
    than the executor is fed over the downlink, which is wide below 50 m and
    narrow above it and while yawing. So for consumer 1, p goes to server 2
    low and to server 1 high or yawing; consumer 2 always prefers server 2.
    Server 2 drops every request, so each dispatch to it times out and is
    retried without it. Program q runs on the platform. Ticks (every 20 s):
    0-1 low, 2 yawing at 30 m, 3-5 high, 6-8 low.
    """
    bands = {
        band: LinkBandParams(dl_mean=dl, ul_mean=10.0, rtt_mean=20.0)
        for band, dl in ((Band.LOW_ALTITUDE, 1000.0), (Band.HIGH_ALTITUDE, 2.0),
                         (Band.ROTATION, 2.0))
    }
    nodes = {
        0: NodeProfile(0, NodeKind.UAV5GP, 25.0, mobile=True,
                       cached_programs=frozenset({"q"}), battery_budget=1200.0),
        1: NodeProfile(1, NodeKind.ECS, 40.0),
        2: NodeProfile(2, NodeKind.GCS, 400.0),
    }
    programs = {
        "p": ProgramSpec("p", "object_detection", compute_cost=40.0,
                         input_payload=1e6, output_payload=1e7,
                         encode_cost=2.0, decode_cost=2.0),
        "q": ProgramSpec("q", "object_detection", compute_cost=5.0,
                         input_payload=1e8, output_payload=1e5,
                         encode_cost=2.0, decode_cost=2.0),
    }
    p_consumers = {0: 1, 2: 1, 3: 1, 4: 2, 6: 2, 8: 1}  # tick -> consumer
    tasks = [Task(f"p{tick}", ("p",), Origin.COMMANDER_ORDER, 20.0 * tick,
                  consumer=consumer) for tick, consumer in p_consumers.items()]
    tasks.append(Task("q3", ("q",), Origin.COMMANDER_ORDER, 60.0, consumer=0))
    return make_scenario(
        duration=180.0,
        t_int=20.0,
        nodes=nodes,
        programs=programs,
        tables=(ProgramTableEntry(1, "p"), ProgramTableEntry(2, "p"),
                ProgramTableEntry(1, "q")),
        tasks=tuple(tasks),
        bands=bands,
        loss={2: 1.0},
        flight_plan=(
            Waypoint(0.0, 30.0),
            Waypoint(35.0, 30.0, rotating=True),
            Waypoint(45.0, 30.0),
            Waypoint(55.0, 80.0),
            Waypoint(110.0, 80.0),
            Waypoint(115.0, 30.0),
        ),
    )


def checked_choices(sc, result, decided):
    """Check that every dispatch of a traced run of sc went to the argmin
    made afresh for its (program, excluded server, consumer, band); decided
    holds the run's dispatches by tick. Returns the server of each key."""
    mean_link = LinkModel(bands=sc.bands, variance_scale=0.0)
    excluded = {}  # program -> server whose entry timed out just before
    choices = {}
    for line in result.trace:
        fields = record_fields(line)
        if fields["kind"] == "Timeout":
            excluded = {key.split(":")[2]: int(key.split(":")[1])
                        for key in fields["timed_out"].split(";") if key}
        if fields["kind"] != "Tick":
            continue
        tick, t = int(fields["tick"]), float(fields["t"])
        dispatches = decided[tick]
        assert fields["entries"] == ";".join(
            f"{tick}:{d.server_id}:{d.program.program_id}"
            for d in dispatches if not d.local)
        assert fields["locals"] == ";".join(
            f"{d.program.program_id}@{d.consumer}" for d in dispatches if d.local)
        state = flight_state_at(sc, t)
        band = band_for(state.altitude, state.rotating)
        for d in dispatches:
            pid = d.program.program_id
            skip = excluded.get(pid)
            found = candidates_for(pid, sc.tables, sc.nodes[0])
            found = [c for c in found if c.server_id != skip] or found
            fresh = select_server(sc.programs[pid], found, sc.nodes, mean_link,
                                  state, consumer=d.consumer)
            assert d.server_id == fresh.chosen_server, (t, pid, skip, d.consumer)
            choices[(pid, skip, d.consumer, band)] = d.server_id
        excluded = {}
    return choices


def test_every_offload_choice_equals_a_fresh_argmin(monkeypatch):
    """In a run with a plan of its own, and in each run of an
    update_interval sweep that shares one plan, where a later run takes
    choices that an earlier one made at other ticks."""
    sc = regime_scenario()
    decided = {}
    on_tick = protocol.ProtocolState.on_tick

    def recording(self, t, due):
        outcome = on_tick(self, t, due)
        decided[self.current_tick] = outcome.dispatches
        return outcome

    monkeypatch.setattr(protocol.ProtocolState, "on_tick", recording)
    choices = checked_choices(sc, run(sc), decided)
    # the mission makes each part of the key change the choice
    low, high, rot = Band.LOW_ALTITUDE, Band.HIGH_ALTITUDE, Band.ROTATION
    assert choices[("p", None, 1, low)] == 2
    assert choices[("p", None, 1, high)] == 1
    assert choices[("p", None, 1, rot)] == 1
    assert choices[("p", None, 2, high)] == 2
    assert choices[("p", 2, 2, low)] == 1
    assert choices[("q", None, 0, high)] == 0

    shared = engine.plan(sc)
    swept = []
    for t_int in (20.0, 10.0, 5.0):
        decided.clear()
        value_sc = apply_sweep_value(sc, "update_interval", t_int)
        swept.append(checked_choices(value_sc, run(value_sc, plan=shared), decided))
    assert swept[0] == choices
    assert swept[1].keys() & swept[0].keys() and swept[2].keys() & swept[1].keys()
    assert shared.offloads.choices.keys() == swept[0].keys() | swept[1].keys() | swept[2].keys()


LOCAL_ONLY = dict(
    nodes={
        0: NodeProfile(0, NodeKind.UAV5GP, 25.0, mobile=True,
                       cached_programs=frozenset({"p"}), battery_budget=1200.0),
        1: NodeProfile(1, NodeKind.ECS, 100.0),
    },
    tables=(),
    tasks=(Task("t1", ("p",), Origin.COMMANDER_ORDER, 0.0),),
)
# (flight plan, extra scenario fields, the altitude refused)
OUT_OF_ENVELOPE_CASES = {
    "wire": ((Waypoint(0.0, 150.0),), {}, 150.0),
    # a local-only mission would never price a link
    "local-only": ((Waypoint(0.0, 150.0),), LOCAL_ONLY, 150.0),
    # the plan would leave the envelope at 7 s, and the tick at 8.0 s would
    # price t2's wire dispatch at 110 m
    "tick": (
        (Waypoint(0.0, 30.0), Waypoint(10.0, 130.0)),
        dict(tasks=(Task("t1", ("p",), Origin.COMMANDER_ORDER, 0.0, consumer=1),
                    Task("t2", ("p",), Origin.COMMANDER_ORDER, 7.5, consumer=1))),
        130.0,
    ),
    # the plan would leave the envelope at 0.55 s, where only the output leg
    # of the tick-0 dispatch is sampled
    "leg": (
        (Waypoint(0.0, 30.0), Waypoint(0.2, 30.0), Waypoint(0.7, 130.0)),
        dict(tasks=(Task("t1", ("p",), Origin.COMMANDER_ORDER, 0.0, consumer=0),)),
        130.0,
    ),
    "below-zero": ((Waypoint(0.0, 30.0), Waypoint(5.0, -0.5), Waypoint(9.0, 30.0)), {}, -0.5),
    "nan": ((Waypoint(0.0, math.nan),), {}, math.nan),
    "nan-rotating": ((Waypoint(0.0, 30.0), Waypoint(4.0, math.nan, rotating=True)), {},
                     math.nan),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_ENVELOPE_CASES))
def test_an_out_of_envelope_plan_is_refused_before_the_first_event(case):
    """load_scenario refuses such flight plans, and run() refuses a
    hand-built one while it sets up, wire and local-only missions alike:
    band_for's OutOfMeasuredRange escapes as it is, not as the RunAborted
    that any error from the first event on becomes."""
    plan, fields, altitude = OUT_OF_ENVELOPE_CASES[case]
    with pytest.raises(OutOfMeasuredRange) as err:
        run(make_scenario(flight_plan=plan, **fields))
    assert str(err.value) == f"altitude {altitude} m outside [0, 100.0]"


def test_a_chosen_server_without_a_profile_aborts_at_its_tick():
    # load_scenario rejects a table entry for an unknown node; a hand-built
    # one competes through its advertised latency, wins, and aborts the run
    # when its execution is staged, before the Tick is recorded. The choice
    # is never memoized, so every run sharing a plan aborts the same way.
    sc = make_scenario(tables=(ProgramTableEntry(3, "p", advertised_latency=0.01),))
    with pytest.raises(RunAborted) as err:
        run(sc)
    assert str(err.value) == "UnknownNode: 3"
    kinds = [record_fields(line)["kind"] for line in err.value.trace]
    assert kinds == ["TaskIssued", "FlightWaypoint", "Abort"]
    assert record_fields(err.value.trace[-1])["t"] == "0.0"
    shared = engine.plan(sc)
    for seed in (sc.seed, sc.seed + 1, sc.seed):
        with pytest.raises(RunAborted) as again:
            run(sc, seed, plan=shared)
        assert (str(again.value), again.value.trace) == (str(err.value), err.value.trace)
    assert shared.offloads.choices == {}


def test_a_fleet_without_the_platform_is_refused_by_its_plan():
    """Offload choices need the platform's profile, so plan refuses a
    hand-built fleet without node 0 (load_scenario refuses one too), and
    run raises its KeyError as it is, before the first event, not as a
    RunAborted."""
    sc = make_scenario(nodes={1: NodeProfile(1, NodeKind.ECS, 100.0)})
    for build in (engine.plan, run):
        with pytest.raises(KeyError) as err:
            build(sc)
        assert (type(err.value), err.value.args) == (KeyError, (0,))


# ---------------------------------------------------------------------- loss


def loss_run(monkeypatch, loss):
    """Run a two-server mission; returns its trace and the server of every
    loss draw made."""
    drawn = []

    def counting(seed, c0, c1, c2=0):
        drawn.append(c1)
        return keyed_uniform(seed, c0, c1, c2)

    monkeypatch.setattr(engine, "keyed_uniform", counting)
    nodes = {
        0: NodeProfile(0, NodeKind.UAV5GP, 25.0, mobile=True,
                       battery_budget=1200.0),
        1: NodeProfile(1, NodeKind.ECS, 100.0),
        2: NodeProfile(2, NodeKind.GCS, 400.0),
    }
    sc = make_scenario(
        nodes=nodes,
        programs={"p": DETECT, "r": ProgramSpec(
            "r", "object_detection", compute_cost=40.0, input_payload=1e6,
            output_payload=1e5, encode_cost=2.0, decode_cost=2.0)},
        tables=(ProgramTableEntry(1, "p"), ProgramTableEntry(2, "r")),
        tasks=tuple(Task(f"t{i}", ("p", "r"), Origin.COMMANDER_ORDER, 2.0 * i,
                         consumer=1) for i in range(6)),
        loss=loss,
    )
    return run(sc).trace, drawn


def test_loss_draws_only_for_servers_that_can_lose(monkeypatch):
    trace, drawn = loss_run(monkeypatch, {})
    assert drawn == []
    assert set(wire_servers(trace)) == {1, 2}
    zero_trace, drawn = loss_run(monkeypatch, {2: 0.0})
    assert drawn == []
    assert zero_trace == trace
    lossy_trace, drawn = loss_run(monkeypatch, {1: 0.5})
    # one draw per wire dispatch to server 1, none for server 2
    assert drawn == [s for s in wire_servers(lossy_trace) if s == 1]
    assert any(record_fields(line)["count"] != "0"
               for line in lossy_trace if " kind=Timeout " in line)
    mixed_trace, drawn = loss_run(monkeypatch, {1: 0.5, 2: 0.0})
    assert drawn == [s for s in wire_servers(mixed_trace) if s == 1]
    assert mixed_trace == lossy_trace


# ------------------------------------------------------- attempts and server


@functools.cache
def storm_scenario(seed, cut):
    """The benchmark's `storm` workload, with its duration cut by `cut`; a
    Scenario is frozen, so the tests share one build."""
    wl = bench_build("storm", seed)
    sc = load_scenario(yaml.safe_load(wl.scenario_text))
    return replace(sc, duration=sc.duration * cut)


def fallback_scenario():
    """Server 1 wins the argmin but drops every request; the platform caches
    p, so each retry without server 1 runs locally. t2 falls due on the
    tick of t1's retry and merges into it."""
    nodes = {
        0: NodeProfile(0, NodeKind.UAV5GP, 25.0, mobile=True,
                       cached_programs=frozenset({"p"}), battery_budget=1200.0),
        1: NodeProfile(1, NodeKind.ECS, 100.0, location=(58.9, 0.0, 0.0)),
    }
    return make_scenario(
        nodes=nodes, loss={1: 1.0},
        tasks=(Task("t1", ("p",), Origin.COMMANDER_ORDER, 0.0, consumer=1),
               Task("t2", ("p",), Origin.COMMANDER_ORDER, 2.0, consumer=1)))


def sole_server_scenario():
    # every tick retries the backlog and merges the task just issued into it
    return make_scenario(
        duration=12.0, loss={1: 1.0},
        tasks=tuple(Task(f"t{i}", ("p",), Origin.COMMANDER_ORDER, 2.0 * i,
                         consumer=1) for i in range(4)))


def waiter_key(prog):
    """A waiter's (task id, program id)."""
    return prog.task_outcome.task.task_id, prog.program_id


def run_with_waiter_oracle(monkeypatch, sc):
    """Run sc while recomputing attempts and server the direct way: one
    visit per waiter of every dispatch. Returns the result, the oracle's
    (attempts, server) per (task, program) and every dispatch."""
    expected = {}
    dispatched = []
    on_tick = protocol.ProtocolState.on_tick

    def with_oracle(self, t, due):
        retried = dict(self._retries)  # the timed-out dispatches, by program
        outcome = on_tick(self, t, due)
        for d in outcome.dispatches:
            retry = retried.pop(d.program.program_id, None)
            lead = () if retry is None else retry.waiters
            # the retried waiters come first, on their own chain, on the tick
            # after their timed-out dispatch; the rest join the chain now
            assert all(a is b for a, b in zip(d.waiters, lead))
            assert all(p.chain is d.chain for p in d.waiters)
            assert [p.first_tick < d.tick_index for p in d.waiters] == (
                [True] * len(lead) + [False] * (len(d.waiters) - len(lead)))
            for prog in d.waiters:
                attempts, _ = expected.get(waiter_key(prog), (0, None))
                expected[waiter_key(prog)] = (attempts + 1, d.server_id)
        assert not retried
        dispatched.extend(outcome.dispatches)
        return outcome

    monkeypatch.setattr(protocol.ProtocolState, "on_tick", with_oracle)
    result = run(sc)
    return result, expected, dispatched


def retry_heavy_scenario():
    from test_digests import retry_heavy  # test_digests imports this module

    return load_scenario(retry_heavy())


ORACLE_CASES = {
    "retry_heavy": retry_heavy_scenario,
    "storm_cut": lambda: storm_scenario(1, 0.37),
    "sole_server": sole_server_scenario,
    "local_fallback": fallback_scenario,
    "regime": regime_scenario,
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_attempts_and_server_equal_a_visit_per_waiter(monkeypatch, case):
    result, expected, _ = run_with_waiter_oracle(monkeypatch, ORACLE_CASES[case]())
    got = {(outcome.task.task_id, p.program_id): (p.attempts, p.server)
           for outcome in result.metrics.tasks for p in outcome.programs}
    assert got == {key: expected.get(key, (0, None)) for key in got}
    assert any(attempts > 1 for attempts, _ in got.values())


def test_a_chain_falls_back_to_local_after_its_exclusion(monkeypatch):
    """The retry runs on the platform, and every waiter is delivered the
    stage times of that placement, not the excluded server's."""
    sc = fallback_scenario()
    result, _, dispatched = run_with_waiter_oracle(monkeypatch, sc)
    first, retry = dispatched[:2]
    assert (first.server_id, first.local, first.waiters) == (1, False, retry.waiters[:1])
    assert (retry.server_id, retry.local, [waiter_key(p) for p in retry.waiters]) == (
        0, True, [("t1", "p"), ("t2", "p")])
    assert [p.first_tick for p in retry.waiters] == [0, 1]
    assert retry.chain is first.chain
    progs = [task.programs[0] for task in result.metrics.tasks]
    assert [(p.attempts, p.server) for p in progs] == [(2, 0), (1, 0)]
    assert statuses(result) == ["completed", "completed"]

    def stage_terms(executor):
        b = e2e_latency(DETECT, PipelinePlacement(0, executor, 1), sc.nodes,
                        LinkModel(bands=sc.bands, variance_scale=0.0),
                        flight_state_at(sc, 0.0))
        return b.t_enc, b.t_dec, b.t_proc
    local = stage_terms(0)
    assert local != stage_terms(1)
    assert [(p.breakdown.t_enc, p.breakdown.t_dec, p.breakdown.t_proc)
            for p in progs] == [local, local]


@pytest.mark.parametrize("t_int", [2.0, 1.0])
def test_a_task_completes_when_its_last_program_is_delivered(t_int):
    """A task needing detect and stitch completes at the later of its two
    deliveries. At a 1.0 s interval (the bundled one is 2.0 s) stitch never
    completes, so the task stays open after its detect is delivered."""
    sc = load_scenario(BUNDLED_SCENARIO)
    both = Task("both", ("detect", "stitch"), Origin.COMMANDER_ORDER, 30.0, consumer=2)
    result = run(replace(sc, t_int=t_int, tasks=sc.tasks + (both,)))
    [outcome] = [o for o in result.metrics.tasks if o.task.task_id == "both"]
    detect, stitch = outcome.programs
    assert detect.delivered_at is not None
    if t_int == 2.0:
        assert outcome.completed_at == max(detect.delivered_at, stitch.delivered_at)
    else:
        assert stitch.delivered_at is None
        assert outcome.completed_at is None


def test_a_deferred_task_is_first_served_at_the_tick_that_lists_it_due():
    """first_served_s is the time of the first Tick whose due= lists the
    task, also for a task deferred as unservable: with no table row for
    plan_route, plan-approach is listed at 200 s and never dispatched."""
    sc = load_scenario(BUNDLED_SCENARIO)
    sc = replace(sc, tables=tuple(e for e in sc.tables if e.program_id != "plan_route"))
    result = run(sc)
    [row] = [row for row in csv.DictReader(io.StringIO(metrics_to_csv(result.metrics)))
             if row["task_id"] == "plan-approach"]
    assert {key: row[key] for key in (
        "first_served_s", "attempts", "server", "status", "task_completed_s")} == {
        "first_served_s": "200.0", "attempts": "0", "server": "",
        "status": "pending", "task_completed_s": ""}
    listed = [line for line in result.trace if " kind=Tick " in line
              and "plan-approach" in re.search(r" due=(\S*)", line)[1].split(",")]
    assert listed[0].startswith("t=200.0 ")
    assert " unserved=plan-approach:plan_route " in listed[0]


# ---------------------------------------------------------------- work bounds

WORK_CASES = {
    "bundled_at_0.5s": lambda: replace(load_scenario(BUNDLED_SCENARIO), t_int=0.5),
    "sole_server": sole_server_scenario,
}


def count_run_constants(monkeypatch):
    """Count, from now on, the calls that compute a run constant:
    servability per program list, offload choices (each choice also prices
    its route, which test_a_run_does_work_within_the_bounds_of_its_design
    pins) and band readers. Returns the program lists matched, the program
    of each choice and the flight plan of each band reader, each filled as
    runs go."""
    matched, selected, readers = Counter(), [], []
    match_programs = protocol.match_programs
    select = protocol.select_server
    reader = engine.band_reader

    def counting_match(task, tables, platform):
        matched[task.required_programs] += 1
        return match_programs(task, tables, platform)

    def counting_select(program, *args, **kwargs):
        selected.append(program.program_id)
        return select(program, *args, **kwargs)

    def counting_reader(plan):
        readers.append(plan)
        return reader(plan)

    monkeypatch.setattr(protocol, "match_programs", counting_match)
    monkeypatch.setattr(protocol, "select_server", counting_select)
    monkeypatch.setattr(engine, "band_reader", counting_reader)
    return matched, selected, readers


def choice_bound(sc):
    """programs x (servers + 1) x consumers x 3 bands: the most offload
    choices a plan of sc can make (engine module docstring)."""
    servers = {entry.server_id for entry in sc.tables}
    consumers = {task.consumer for task in sc.tasks}
    return len(sc.programs) * (len(servers) + 1) * len(consumers) * 3


@pytest.mark.parametrize("case", sorted(WORK_CASES))
def test_each_run_constant_is_computed_within_its_bound(monkeypatch, case):
    """The tables, fleet and programs are fixed for a plan, so a run given
    no plan builds its one band reader, matches each distinct program list
    once, and makes the offload choice at most once per (program, excluded
    server or none, consumer, band): fewer choices than requests. A run on a
    warm plan, whose every choice an earlier run of the same seed made,
    makes no choice and matches no list."""
    sc = WORK_CASES[case]()
    matched, selected, readers = count_run_constants(monkeypatch)
    result = run(sc)
    assert set(matched) == {task.required_programs for task in sc.tasks}
    assert max(matched.values()) == 1
    assert 0 < len(selected) <= choice_bound(sc)
    assert result.metrics.counts["requests"] > len(selected)
    assert readers == [sc.flight_plan]

    warm = engine.plan(sc)
    run(sc, plan=warm, trace=False)
    made = len(selected), sum(matched.values())
    again = run(sc, plan=warm)
    assert (len(selected), sum(matched.values())) == made
    assert again.trace == result.trace
    assert len(readers) == 2


def test_a_sweep_computes_each_run_constant_once_per_plan(monkeypatch, tmp_path):
    """The seed-1 `reference` bench sweep: 4 update intervals x 5 seeds,
    20 runs on one plan."""
    from birdsim.cli import main

    wl = bench_build("reference", 1)
    (tmp_path / "scenario.yaml").write_text(wl.scenario_text)
    (tmp_path / "sweep.yaml").write_text(wl.sweep_text)
    matched, selected, readers = count_run_constants(monkeypatch)
    assert main(["--scenario", str(tmp_path / "scenario.yaml"),
                 "--sweep", str(tmp_path / "sweep.yaml"), "--out", str(tmp_path / "out")]) == 0
    sc = load_scenario(tmp_path / "scenario.yaml")
    assert len(readers) == 1
    assert sum(matched.values()) == len(matched) == 3
    assert len(selected) == 12 <= choice_bound(sc)


def serving_ticks(trace):
    """The Tick records of a trace with a due task or a retry: the tick
    right after a Timeout that expired an entry retries it."""
    count, retrying = 0, False
    for line in trace:
        fields = record_fields(line)
        if fields["kind"] == "Timeout":
            retrying = fields["count"] != "0"
        elif fields["kind"] == "Tick":
            count += bool(fields["due"]) or retrying
            retrying = False
    return count


BAND_READ_CASES = {
    "bundled": lambda: load_scenario(BUNDLED_SCENARIO),
    "storm_seed_1": lambda: storm_scenario(1, 1.0),
}


@pytest.mark.parametrize("case", sorted(BAND_READ_CASES))
def test_an_idle_tick_reads_no_band(monkeypatch, case):
    """The plan's one band reader serves the protocol and the link legs:
    band reads = the ticks with a due task or a retry + the link samples
    (engine module docstring), so an idle tick reads none."""
    sc = BAND_READ_CASES[case]()
    reads = []
    reader = engine.band_reader

    def counting_reader(plan):
        band_at = reader(plan)

        def counting(t):
            reads.append(t)
            return band_at(t)

        return counting

    monkeypatch.setattr(engine, "band_reader", counting_reader)
    result = run(sc)
    ticks = sum(" kind=Tick " in line for line in result.trace)
    serving = serving_ticks(result.trace)
    assert 0 < serving < ticks
    assert len(reads) == serving + len(result.metrics.samples)


# ------------------------------------------------------------ untraced runs


def run_counting_draws(monkeypatch, sc, **kwargs):
    """Run sc; returns the result and its keyed draws by kind."""
    draws = Counter()
    uniform, normal = engine.keyed_uniform, channel.keyed_normal

    def counting_uniform(*args):
        draws["uniform"] += 1
        return uniform(*args)

    def counting_normal(*args):
        draws["normal"] += 1
        return normal(*args)

    with monkeypatch.context() as patch:
        patch.setattr(engine, "keyed_uniform", counting_uniform)
        patch.setattr(channel, "keyed_normal", counting_normal)
        return run(sc, **kwargs), draws


def mixed_var1_scenario():
    from test_digests import mixed  # test_digests imports this module

    return load_scenario(mixed(1.0))


def trace_variants_scenario():
    from test_digests import trace_variants  # test_digests imports this module

    return load_scenario(trace_variants())


UNTRACED_CASES = {
    # stitch is retried on every tick and never answered
    "bundled_at_0.5s": lambda: replace(load_scenario(BUNDLED_SCENARIO), t_int=0.5),
    "retry_heavy": retry_heavy_scenario,
    "mixed_var1": mixed_var1_scenario,
    "regime": regime_scenario,
    "trace_variants": trace_variants_scenario,
    "storm_cut": lambda: storm_scenario(1, 0.37),
}


@pytest.mark.parametrize("case", sorted(UNTRACED_CASES))
def test_an_untraced_run_reports_what_the_traced_run_does(monkeypatch, case):
    sc = UNTRACED_CASES[case]()
    traced, traced_draws = run_counting_draws(monkeypatch, sc)
    untraced, untraced_draws = run_counting_draws(monkeypatch, sc, trace=False)
    assert traced.trace and untraced.trace == []
    for serialize in (metrics_to_csv, samples_to_csv, summary_to_json):
        assert serialize(untraced.metrics) == serialize(traced.metrics)
    assert untraced.metrics.counts == traced.metrics.counts
    assert untraced_draws == traced_draws
    assert sum(traced_draws.values()) > 0


def test_an_untraced_abort_carries_only_its_abort_record(monkeypatch):
    from test_cli import make_runs_abort

    make_runs_abort(monkeypatch)
    sc = load_scenario(BUNDLED_SCENARIO)
    with pytest.raises(RunAborted) as traced:
        run(sc)
    with pytest.raises(RunAborted) as untraced:
        run(sc, trace=False)
    assert str(untraced.value) == str(traced.value)
    assert len(traced.value.trace) > 1
    assert untraced.value.trace == traced.value.trace[-1:]


def artifacts(result):
    """The four artifacts of a run."""
    m = result.metrics
    return trace_to_text(result.trace), metrics_to_csv(m), samples_to_csv(m), summary_to_json(m)


@pytest.mark.parametrize("case", sorted(UNTRACED_CASES))
def test_runs_sharing_a_plan_equal_runs_with_plans_of_their_own(case):
    """Two seeds on one plan, the later seed first, give the bytes of runs
    given no plan: a run reads nothing of an earlier run on its plan but
    the memos."""
    sc = UNTRACED_CASES[case]()
    shared = engine.plan(sc)
    seeds = (sc.seed + 1, sc.seed)
    on_shared = {seed: artifacts(run(sc, seed, plan=shared)) for seed in seeds}
    for seed in seeds:
        assert on_shared[seed] == artifacts(run(sc, seed)), seed
    assert shared.offloads.choices


# -------------------------------------------------------- work bounds: rungs

# the bench workloads' program mix, and storm's one consumer per program
RUNG_PROGRAMS = ("detect", "detect", "stitch", "plan_route")
RUNG_CONSUMER = {"detect": 2, "stitch": 2, "plan_route": 0}


def rung(t_int, count, mixed_consumers):
    """The bundled mission cut to 120 s at update interval t_int, plus count
    one-program tasks issued over its survey window: one consumer per
    program, or a random one of three."""
    base = load_scenario(BUNDLED_SCENARIO)
    rng = random.Random(f"{t_int}:{count}:{mixed_consumers}")
    tasks = []
    for i in range(count):
        program = rng.choice(RUNG_PROGRAMS)
        consumer = rng.randrange(3) if mixed_consumers else RUNG_CONSUMER[program]
        issue = round(rng.uniform(30.0, 100.0), 1)
        tasks.append(Task(f"g{i:03d}", (program,), Origin.COMMANDER_ORDER, issue,
                          consumer=consumer))
    return replace(base, t_int=t_int, duration=120.0, tasks=base.tasks + tuple(tasks))


RUNGS = {
    "t_int_0.2s": lambda: rung(0.2, 40, False),
    "t_int_2.0s": lambda: rung(2.0, 40, False),
    "mixed_consumers": lambda: rung(1.0, 40, True),
}


def count_work(monkeypatch, sc, trace):
    """Run sc counting its ticks, dispatches, servable due tasks, staged
    executions, waiter joins, heap pushes, keyed draws, flight states,
    offload choices, the candidates they price and e2e_latency calls."""
    work = Counter()

    def counting_push(heap, item):
        work["heap_pushes"] += 1
        heapq.heappush(heap, item)
    on_tick = protocol.ProtocolState.on_tick
    stage = engine._Sim._stage
    settle = protocol.ProtocolState.settle
    flight_state = engine.flight_state_at
    select = protocol.select_server
    predict = policy.e2e_latency
    platform = sc.nodes[0]

    def counting_tick(self, t, due):
        outcome = on_tick(self, t, due)
        work["ticks"] += 1
        work["servable_programs"] += sum(
            len(task.required_programs) for task in due
            if all(candidates_for(pid, sc.tables, platform)
                   for pid in task.required_programs))
        for d in outcome.dispatches:
            work["dispatch_joins"] += sum(p.first_tick == d.tick_index for p in d.waiters)
            if not d.local and sc.loss.get(d.server_id, 0.0) > 0.0:
                work["lossy_wire"] += 1
        return outcome

    def counting_stage(self, dispatch, t):
        work["staged"] += 1
        return stage(self, dispatch, t)

    def counting_settle(self):
        work["chained"] = sum(p.chain is not None for outcome in self.outcomes.values()
                              for p in outcome.programs)
        return settle(self)

    def counting_flight_state(scenario, t):
        work["flight_states"] += 1
        return flight_state(scenario, t)

    def counting_select(*args, **kwargs):
        decision = select(*args, **kwargs)
        work["selects"] += 1
        work["candidates"] += decision.candidates_considered
        return decision

    def counting_e2e_latency(*args):
        work["e2e_latencies"] += 1
        return predict(*args)

    monkeypatch.setattr(policy, "e2e_latency", counting_e2e_latency)
    monkeypatch.setattr(protocol.ProtocolState, "on_tick", counting_tick)
    monkeypatch.setattr(engine._Sim, "_stage", counting_stage)
    monkeypatch.setattr(protocol.ProtocolState, "settle", counting_settle)
    monkeypatch.setattr(engine, "flight_state_at", counting_flight_state)
    monkeypatch.setattr(protocol, "select_server", counting_select)
    monkeypatch.setattr(engine, "heapq",
                        SimpleNamespace(heappush=counting_push, heappop=heapq.heappop))
    result, draws = run_counting_draws(monkeypatch, sc, trace=trace)
    return result, work, draws


@pytest.mark.parametrize("trace", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("case", sorted(RUNGS))
def test_a_run_does_work_within_the_bounds_of_its_design(monkeypatch, case, trace):
    """The work bounds of the engine module docstring: one dispatch per
    program per tick, one chain per (task, program) outcome of a servable
    due task, joined once however often it is retried, at
    most two link samples per staged execution plus one loss draw per wire
    dispatch to a lossy server, at most three records per staged execution
    besides a fixed few per task, waypoint and tick, no doomed event in the
    heap (each push writes one record, and the Flush writes the last), one
    flight state per offload choice, and one e2e_latency call per candidate
    that an offload choice prices, none by staging."""
    sc = RUNGS[case]()
    result, work, draws = count_work(monkeypatch, sc, trace)
    counts = result.metrics.counts
    assert 0 < work["flight_states"] == work["selects"]
    assert 0 < work["e2e_latencies"] == work["candidates"]
    assert 0 < counts["requests"] <= work["ticks"] * len(sc.programs)
    assert work["chained"] == work["dispatch_joins"] == work["servable_programs"] > 0
    assert 0 < draws["uniform"] + draws["normal"] <= 2 * work["staged"] + work["lossy_wire"]
    if trace:
        delivered = sum(" delivered=" in line for line in result.trace)
        assert work["staged"] == delivered + counts["cancelled"]
        assert len(result.trace) <= (len(sc.tasks) + len(sc.flight_plan)
                                     + 2 * work["ticks"] + 3 * work["staged"] + 2)
        assert work["heap_pushes"] == len(result.trace) - 1
    else:
        assert result.trace == []


# ------------------------------------------------------------- CSV cell rules


def writer_text(rows):
    """The lines csv.writer writes for rows, the reference for the cell rules."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


CSV_TEXT = st.text(st.sampled_from(list(',"\n\r ab1.-éü中\t')) | st.characters())
@given(text=CSV_TEXT)
@settings(deadline=None, max_examples=100)
def test_csv_cell_is_a_csv_writer_text_cell(text):
    # two cells, so that an empty one is not written as a lone ""
    assert f"{engine.csv_cell(text)},{engine.csv_cell(text)}\n" == writer_text([[text, text]])


def writer_metrics_csv(metrics):
    """metrics.csv as csv.writer wrote it before its cells were memoized."""
    rows = [engine.METRICS_COLUMNS]
    for outcome in metrics.tasks:
        task = outcome.task
        for prog in outcome.programs:
            b = prog.breakdown
            if b is None:
                stages, status = (None,) * 5, "pending"
            else:
                stages, status = (b.t_enc, b.t_comm, b.t_dec, b.t_proc, b.t_e2e), "completed"
            rows.append([
                task.task_id, prog.program_id, task.origin.value, task.consumer,
                task.issue_time, outcome.first_served_at, prog.attempts, prog.server,
                *stages, prog.delivered_at, status, outcome.completed_at,
            ])
    return writer_text(rows)


def test_metrics_csv_memoizes_cells_by_identity_not_value():
    from birdsim.model import CriticalMoments
    from birdsim.pipeline import LatencyBreakdown

    zero, minus_zero = float("0.0"), float("-0.0")
    # equal values (0.0 == -0.0), distinct objects that print differently
    shared = LatencyBreakdown(zero, 0.5, 0.25, 0.125)
    negative = LatencyBreakdown(minus_zero, 0.5, 0.25, 0.125)
    assert shared == negative and shared is not negative

    def outcome(task_id, served, completed, *programs):
        task = Task(task_id, tuple(p.program_id for p in programs), issue_time=1.5)
        return protocol.TaskOutcome(task, served, completed, list(programs))

    def prog(program_id, breakdown, delivered_at, attempts=1, server=2):
        return protocol.ProgramOutcome(program_id, attempts, server, breakdown, delivered_at)

    tasks = [
        # one breakdown and delivery time shared by two waiters
        outcome('odd,"id"\nx', zero, zero, prog("detect", shared, zero)),
        outcome("plain", zero, None, prog("detect", shared, zero),
                prog("stitch", None, None, attempts=3, server=None)),
        outcome("negative", minus_zero, minus_zero, prog("detect", negative, minus_zero)),
        outcome("a,b", None, None, prog('p"q', None, None, attempts=0, server=None)),
    ]
    metrics = engine.MetricsRecord(
        scenario_name="hand-built", seed=1, duration=10.0, t_int=1.0, tasks=tasks,
        moments=CriticalMoments(), counts={}, samples=[], phase_log=[], final_t_pos=0,
    )
    text = metrics_to_csv(metrics)
    assert text == writer_metrics_csv(metrics)
    assert "-0.0,0.5,0.25,0.125,0.875,-0.0,completed,-0.0" in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == engine.METRICS_COLUMNS
    assert [row[0] for row in rows[1:]] == ['odd,"id"\nx', "plain", "plain", "negative", "a,b"]
    assert rows[3][1:3] == ["stitch", "commander_order"]
    assert rows[4][5] == "-0.0" and rows[4][8] == "-0.0"


def test_outcome_stats_is_the_three_summary_values():
    sc = replace(load_scenario(BUNDLED_SCENARIO), t_int=0.5)  # stitch never completes
    m = run(sc).metrics
    breakdowns = [p.breakdown for t in m.tasks for p in t.programs if p.breakdown is not None]
    assert 0 < len(breakdowns) < sum(len(t.programs) for t in m.tasks)
    e2e = [b.t_e2e for b in breakdowns]
    comm = [b.t_comm for b in breakdowns]
    assert m.outcome_stats() == (m.tasks_completed(), sum(e2e) / len(e2e), sum(comm) / len(comm))
