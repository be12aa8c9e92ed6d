"""Four-term latency calculus: additivity, placement cases, stream classes."""

import numpy as np
import pytest

from birdsim import (
    Direction,
    FlightState,
    LinkModel,
    NodeKind,
    NodeProfile,
    PipelinePlacement,
    ProgramSpec,
    UnknownNode,
    e2e_latency,
)
from birdsim.channel import transfer_seconds
from birdsim.pipeline import LatencyBreakdown, hop_direction, leg_sample, stage_time

from conftest import make_flat_bands


def make_program(compute=100.0, inp=1e6, out=1e5, enc=2.0, dec=2.0):
    return ProgramSpec(
        "p", "object_detection", compute_cost=compute,
        input_payload=inp, output_payload=out, encode_cost=enc, decode_cost=dec,
    )


# ----------------------------------------------------------------- breakdown


def test_breakdown_sum_is_exact():
    b = LatencyBreakdown(0.1, 0.2, 0.3, 0.4)
    assert b.t_e2e == 0.1 + 0.2 + 0.3 + 0.4


def test_breakdown_rejects_negative_terms():
    with pytest.raises(ValueError):
        LatencyBreakdown(-0.1, 0.0, 0.0, 0.0)


def test_stage_time_arithmetic(nodes):
    assert stage_time(0.0, nodes[0]) == 0.0
    half = NodeProfile(node_id=1, kind=NodeKind.ECS, compute_capacity=50.0)
    assert stage_time(100.0, half) == 2.0


def test_stage_time_faster_on_the_ground_station(nodes):
    cost = 120.0
    assert stage_time(cost, nodes[2]) < stage_time(cost, nodes[0])


# ------------------------------------------------------------ hop directions


def test_hop_direction_rules():
    assert hop_direction(0, 1) is Direction.UL
    assert hop_direction(1, 0) is Direction.DL
    # server-to-server backhaul rides the downlink-rated path
    assert hop_direction(1, 2) is Direction.DL
    with pytest.raises(ValueError):
        hop_direction(1, 1)


# ------------------------------------------------------------------- corners


def test_local_placement_has_only_processing(nodes, mean_link, ground_state):
    program = make_program()
    b = e2e_latency(program, PipelinePlacement(0, 0, 0), nodes, mean_link, ground_state)
    assert (b.t_enc, b.t_comm, b.t_dec) == (0.0, 0.0, 0.0)
    assert b.t_e2e == b.t_proc == program.compute_cost / nodes[0].compute_capacity


def test_zero_cost_remote_is_pure_communication(nodes, ground_state):
    link = LinkModel(bands=make_flat_bands(ul=10.0, dl=100.0, rtt=20.0),
                     noise_seed=0, variance_scale=0.0)
    program = make_program(compute=0.0, inp=1e6, out=0.0, enc=0.0, dec=0.0)
    b = e2e_latency(program, PipelinePlacement(0, 1, 1), nodes, link, ground_state)
    assert b.t_enc == b.t_dec == b.t_proc == 0.0
    assert b.t_comm == 20.0 * 0.5 / 1e3 + 1e6 / (10.0 * 1e6)
    assert b.t_e2e == b.t_comm


def test_remote_executor_serving_remote_consumer_adds_return_leg(
    nodes, mean_link, ground_state
):
    program = make_program()
    to_self = e2e_latency(
        program, PipelinePlacement(0, 1, 1), nodes, mean_link, ground_state
    )
    to_other = e2e_latency(
        program, PipelinePlacement(0, 1, 2), nodes, mean_link, ground_state
    )
    assert to_other.t_comm > to_self.t_comm
    assert to_other.t_enc == to_self.t_enc
    assert to_other.t_proc == to_self.t_proc


def test_same_node_leg_costs_nothing(nodes, mean_link, ground_state):
    # executor == source: no input transfer, only the result leg is charged
    program = make_program()
    b = e2e_latency(program, PipelinePlacement(0, 0, 2), nodes, mean_link, ground_state)
    sample = leg_sample(mean_link, ground_state, 0, 2)
    assert sample.direction is Direction.UL
    assert b.t_comm == transfer_seconds(program.output_payload, sample)
    assert b.t_enc > 0 and b.t_dec > 0 and b.t_proc > 0


def test_unknown_node_raises(nodes, mean_link, ground_state):
    with pytest.raises(UnknownNode):
        e2e_latency(make_program(), PipelinePlacement(0, 9, 0),
                    nodes, mean_link, ground_state)


# the executor is checked first, then the source, then the consumer
@pytest.mark.parametrize("placement, named", [((9, 8, 7), 8), ((9, 1, 7), 9), ((0, 1, 9), 9)],
                         ids=["executor", "source", "consumer"])
def test_the_first_node_without_a_profile_is_named(nodes, mean_link, ground_state,
                                                   placement, named):
    with pytest.raises(UnknownNode) as err:
        e2e_latency(make_program(), PipelinePlacement(*placement), nodes, mean_link,
                    ground_state)
    assert err.value.args == (named,)


def test_stage_times_are_checked_in_stage_order_before_any_leg(mean_link):
    """Encode at the source is checked first, and no leg is sampled before
    the stage times: the state's altitude is outside the envelope."""
    idle = {0: NodeProfile(0, NodeKind.UAV5GP, 0.0), 1: NodeProfile(1, NodeKind.ECS, 0.0)}
    with pytest.raises(ValueError, match="^node 0 has no positive compute capacity$"):
        e2e_latency(make_program(), PipelinePlacement(0, 1, 1), idle, mean_link,
                    FlightState(0.0, 150.0))


# ---------------------------------------------------------------- additivity


def test_additivity_on_randomized_cases(nodes, ground_state):
    """1000 random (program, placement, link) cases: the total equals the
    term sum exactly, and local placements zero the non-processing terms."""
    rng = np.random.default_rng(2024)
    link = LinkModel(noise_seed=11)
    ids = list(nodes)
    for _ in range(1000):
        program = ProgramSpec(
            "p", "object_detection",
            compute_cost=float(rng.uniform(0, 500)),
            input_payload=float(rng.uniform(0, 5e7)),
            output_payload=float(rng.uniform(0, 5e7)),
            encode_cost=float(rng.uniform(0, 20)),
            decode_cost=float(rng.uniform(0, 20)),
        )
        placement = PipelinePlacement(
            source=0,
            executor=int(rng.choice(ids)),
            consumer=int(rng.choice(ids)),
        )
        state = FlightState(
            t=float(rng.uniform(0, 1000)),
            altitude=float(rng.uniform(0, 100)),
            rotating=bool(rng.integers(0, 2)),
        )
        b = e2e_latency(program, placement, nodes, link, state)
        assert b.t_e2e == b.t_enc + b.t_comm + b.t_dec + b.t_proc
        if placement.local:
            assert (b.t_enc, b.t_comm, b.t_dec) == (0.0, 0.0, 0.0)


# -------------------------------------------------------- dominance extremes


def test_local_wins_under_degraded_channel(nodes, ground_state):
    """With throughput at the floor, a large enough payload makes local
    execution strictly faster than any remote placement."""
    floor_link = LinkModel(bands=make_flat_bands(ul=1.0, dl=1.0, rtt=20.0),
                           noise_seed=0, variance_scale=0.0)
    program = make_program(compute=50.0, inp=1e8, out=1e6)
    local = e2e_latency(program, PipelinePlacement(0, 0, 0),
                        nodes, floor_link, ground_state)
    for executor in (1, 2):
        remote = e2e_latency(program, PipelinePlacement(0, executor, 0),
                             nodes, floor_link, ground_state)
        assert local.t_e2e < remote.t_e2e


def test_ground_station_wins_under_heavy_compute(nodes, mean_link, ground_state):
    program = make_program(compute=50_000.0, inp=1e6, out=1e5)
    local = e2e_latency(program, PipelinePlacement(0, 0, 0),
                        nodes, mean_link, ground_state)
    gcs = e2e_latency(program, PipelinePlacement(0, 2, 0),
                      nodes, mean_link, ground_state)
    assert gcs.t_e2e < local.t_e2e
