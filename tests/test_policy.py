"""Offloading decisions: candidate matching, argmin selection, tie-breaks."""

import numpy as np
import pytest

from birdsim import (
    FlightState,
    LinkModel,
    NoCapableServer,
    NodeKind,
    NodeProfile,
    Origin,
    PipelinePlacement,
    ProgramSpec,
    ProgramTableEntry,
    Task,
    candidates_for,
    default_profiles,
    e2e_latency,
    select_server,
)
from birdsim.policy import match_programs

from conftest import make_flat_bands
from test_acceptance import _oracle_choice


def make_program(pid="p", compute=100.0, inp=1e6, out=1e5, enc=2.0, dec=2.0):
    return ProgramSpec(pid, "object_detection", compute_cost=compute,
                       input_payload=inp, output_payload=out,
                       encode_cost=enc, decode_cost=dec)


# ---------------------------------------------------------------- candidates


def test_platform_is_candidate_only_when_cached(nodes):
    tables = (ProgramTableEntry(1, "p"),)
    plain = candidates_for("p", tables, nodes[0])
    assert [c.server_id for c in plain] == [1]

    cached_platform = NodeProfile(
        node_id=0, kind=NodeKind.UAV5GP, compute_capacity=25.0,
        cached_programs=frozenset({"p"}), battery_budget=1200.0,
    )
    with_platform = candidates_for("p", tables, cached_platform)
    assert [c.server_id for c in with_platform] == [0, 1]


def test_incapable_entries_are_never_candidates(nodes):
    tables = (
        ProgramTableEntry(1, "p", capable=False),
        ProgramTableEntry(2, "p"),
    )
    assert [c.server_id for c in candidates_for("p", tables, nodes[0])] == [2]


def test_program_in_no_table_raises(nodes):
    task = Task("t", ("p",), Origin.COMMANDER_ORDER, 0.0)
    with pytest.raises(NoCapableServer) as err:
        match_programs(task, (), nodes[0])
    assert err.value.program_id == "p"


def test_match_programs_covers_every_required_program(nodes):
    tables = (ProgramTableEntry(1, "a"), ProgramTableEntry(2, "a"),
              ProgramTableEntry(2, "b"))
    task = Task("t", ("a", "b"), Origin.COMMANDER_ORDER, 0.0)
    matching = match_programs(task, tables, nodes[0])
    assert set(matching) == {"a", "b"}
    assert [c.server_id for c in matching["a"]] == [1, 2]
    assert [c.server_id for c in matching["b"]] == [2]


# ----------------------------------------------------------------- selection


def test_single_candidate_chosen_trivially(nodes, mean_link, ground_state):
    decision = select_server(
        make_program(), [ProgramTableEntry(1, "p")], nodes, mean_link, ground_state
    )
    assert decision.chosen_server == 1
    assert decision.candidates_considered == 1


def test_degraded_link_and_tiny_compute_choose_the_platform(ground_state):
    nodes = default_profiles()
    nodes[0] = NodeProfile(
        node_id=0, kind=NodeKind.UAV5GP, compute_capacity=25.0,
        cached_programs=frozenset({"p"}), battery_budget=1200.0,
    )
    degraded = LinkModel(bands=make_flat_bands(ul=1.0, dl=1.0, rtt=20.0),
                         noise_seed=0)
    program = make_program(compute=5.0, inp=1e7, out=1e6)
    candidates = candidates_for(
        "p", (ProgramTableEntry(1, "p"), ProgramTableEntry(2, "p")), nodes[0]
    )
    decision = select_server(program, candidates, nodes, degraded, ground_state)
    assert decision.chosen_server == 0
    assert decision.predicted.t_comm == 0.0


def test_prediction_uses_the_mean_link(nodes, ground_state):
    noisy = LinkModel(noise_seed=1)
    frozen = noisy.mean()
    program = make_program()
    candidates = [ProgramTableEntry(1, "p"), ProgramTableEntry(2, "p")]
    a = select_server(program, candidates, nodes, noisy, ground_state)
    b = select_server(program, candidates, nodes, frozen, ground_state)
    assert a.chosen_server == b.chosen_server
    assert a.predicted == b.predicted


def test_tie_break_prefers_lower_server_id(ground_state, mean_link):
    nodes = default_profiles()
    nodes[1] = NodeProfile(node_id=1, kind=NodeKind.ECS, compute_capacity=100.0)
    nodes[2] = NodeProfile(node_id=2, kind=NodeKind.GCS, compute_capacity=100.0)
    candidates = [ProgramTableEntry(2, "p"), ProgramTableEntry(1, "p")]
    decision = select_server(make_program(), candidates, nodes, mean_link,
                             ground_state)
    assert decision.chosen_server == 1


def test_advertised_latency_covers_profile_less_servers(nodes, mean_link,
                                                        ground_state):
    program = make_program(compute=1000.0)
    fast_stranger = ProgramTableEntry(7, "p", advertised_latency=0.01)
    slow_known = ProgramTableEntry(1, "p")
    decision = select_server(program, [slow_known, fast_stranger],
                             nodes, mean_link, ground_state)
    assert decision.chosen_server == 7
    assert decision.predicted.t_dec == 0.0
    assert decision.predicted.t_proc == 0.01
    # encode and the wireless legs are charged as for a profiled server
    for consumer in (0, 2):
        stranger, known = (
            select_server(program, [entry], nodes, mean_link, ground_state,
                          consumer=consumer).predicted
            for entry in (fast_stranger, slow_known)
        )
        assert stranger.t_enc == known.t_enc > 0
        assert stranger.t_comm == known.t_comm > 0


def test_decision_is_argmin_against_the_oracle(nodes, ground_state):
    """Randomized instances with up to 5 servers: the selection equals the
    brute-force enumeration, tie-breaks included."""
    rng = np.random.default_rng(77)
    link = LinkModel(noise_seed=3)
    for trial in range(300):
        n_servers = int(rng.integers(1, 6))
        trial_nodes = {
            0: NodeProfile(
                node_id=0, kind=NodeKind.UAV5GP, compute_capacity=25.0,
                cached_programs=frozenset({"p"} if rng.random() < 0.4 else ()),
                battery_budget=1200.0,
            )
        }
        candidates = []
        for sid in range(1, n_servers + 1):
            # duplicate capacities now and then to provoke exact ties
            capacity = float(rng.choice([50.0, 50.0, 100.0, 400.0]))
            trial_nodes[sid] = NodeProfile(
                node_id=sid, kind=NodeKind.ECS, compute_capacity=capacity
            )
            candidates.append(ProgramTableEntry(sid, "p",
                                                capable=bool(rng.random() < 0.9)))
        platform_entries = candidates_for("p", tuple(candidates), trial_nodes[0])
        if not platform_entries:
            continue
        program = make_program(
            compute=float(rng.uniform(0, 300)),
            inp=float(rng.uniform(0, 2e7)),
            out=float(rng.uniform(0, 2e6)),
            enc=float(rng.uniform(0, 10)),
            dec=float(rng.uniform(0, 10)),
        )
        consumer = int(rng.choice(list(trial_nodes)))
        state = FlightState(t=float(rng.uniform(0, 100)),
                            altitude=float(rng.uniform(0, 100)))
        decision = select_server(program, platform_entries, trial_nodes, link,
                                 state, consumer=consumer)
        expected = _oracle_choice(program, platform_entries, trial_nodes, link,
                                  state, consumer=consumer)
        assert decision.chosen_server == expected, f"trial {trial}"


def test_permuting_candidates_never_changes_the_decision(nodes, mean_link,
                                                         ground_state):
    rng = np.random.default_rng(5)
    program = make_program()
    base = [ProgramTableEntry(1, "p"), ProgramTableEntry(2, "p")]
    expected = select_server(program, base, nodes, mean_link, ground_state)
    for _ in range(10):
        shuffled = list(base)
        rng.shuffle(shuffled)
        got = select_server(program, shuffled, nodes, mean_link, ground_state)
        assert got.chosen_server == expected.chosen_server


def test_scaling_all_latencies_preserves_the_choice(ground_state):
    """With negligible propagation delay, scaling costs and payloads by a
    common factor scales every prediction (almost) linearly; both remote
    placements carry the same two wire legs, so the tiny constant delay
    cancels out of the comparison and the argmin is unchanged."""
    nodes = default_profiles()
    link = LinkModel(bands=make_flat_bands(ul=30.0, dl=200.0, rtt=1e-6),
                     noise_seed=0, variance_scale=0.0)
    candidates = [ProgramTableEntry(1, "p"), ProgramTableEntry(2, "p")]
    base = make_program(compute=120.0, inp=3e6, out=1e6)
    chosen = select_server(base, candidates, nodes, link, ground_state).chosen_server
    for k in (0.25, 3.0, 40.0):
        scaled = make_program(compute=120.0 * k, inp=3e6 * k, out=1e6 * k,
                              enc=2.0 * k, dec=2.0 * k)
        assert select_server(scaled, candidates, nodes, link,
                             ground_state).chosen_server == chosen


def test_improving_the_chosen_server_never_loses_it(ground_state, mean_link):
    rng = np.random.default_rng(13)
    for _ in range(50):
        nodes = default_profiles()
        program = make_program(
            compute=float(rng.uniform(10, 300)),
            inp=float(rng.uniform(0, 1e7)),
        )
        candidates = [ProgramTableEntry(1, "p"), ProgramTableEntry(2, "p")]
        first = select_server(program, candidates, nodes, mean_link, ground_state)
        chosen = first.chosen_server
        boosted = dict(nodes)
        boosted[chosen] = NodeProfile(
            node_id=chosen, kind=nodes[chosen].kind,
            compute_capacity=nodes[chosen].compute_capacity * 2,
        )
        second = select_server(program, candidates, boosted, mean_link,
                               ground_state)
        assert second.chosen_server == chosen


def test_predicted_beats_every_capable_candidate(nodes, mean_link, ground_state):
    program = make_program()
    candidates = [ProgramTableEntry(1, "p"), ProgramTableEntry(2, "p")]
    decision = select_server(program, candidates, nodes, mean_link, ground_state)
    for entry in candidates:
        b = e2e_latency(program, PipelinePlacement(0, entry.server_id, 0),
                        nodes, mean_link, ground_state)
        assert decision.predicted.t_e2e <= b.t_e2e
