"""Update-loop state machine: bundling, retries, timeouts, gated advancement."""

import pytest

from birdsim import (
    LinkModel,
    MissionTimeline,
    NodeKind,
    NodeProfile,
    Origin,
    Phase,
    PhasePredicate,
    ProgramSpec,
    ProgramTableEntry,
    ProtocolState,
    Task,
    UnknownResponse,
    UpdateResponse,
    default_profiles,
)

from conftest import make_flat_bands


def make_program(pid, compute=40.0, inp=1e6, out=1e5):
    return ProgramSpec(pid, "object_detection", compute_cost=compute,
                       input_payload=inp, output_payload=out,
                       encode_cost=2.0, decode_cost=2.0)


PROGRAMS = {pid: make_program(pid) for pid in ("a", "b")}


def make_timeline(predicate=None):
    return MissionTimeline([
        Phase("first", completes_when=predicate),
        Phase("second"),
    ])


def make_state(t_int=2.0, predicate=None, epoch=0.0):
    return ProtocolState(t_int=t_int, timeline=make_timeline(predicate),
                         epoch=epoch)


def respond(ps, dispatch, t, location=(0.0, 0.0, 0.0)):
    return ps.on_response(UpdateResponse(
        tick_index=dispatch.tick_index,
        server_id=dispatch.server_id,
        program_id=dispatch.program.program_id,
        result_payload=dispatch.program.output_payload,
        server_location=location,
        completed_at=t,
    ))


def task(task_id, programs=("a",), issue=0.0, consumer=0):
    return Task(task_id, tuple(programs), Origin.COMMANDER_ORDER, issue,
                consumer=consumer)


# -------------------------------------------------------------------- cadence


def test_t_int_must_be_positive():
    with pytest.raises(ValueError):
        ProtocolState(t_int=0.0, timeline=make_timeline())


def test_ticks_must_land_on_the_interval_grid(nodes, mean_link, ground_state):
    ps = make_state(t_int=2.0)
    ps.on_tick(0.0, [], (), nodes, PROGRAMS, mean_link, ground_state)
    with pytest.raises(ValueError):
        ps.on_tick(3.0, [], (), nodes, PROGRAMS, mean_link, ground_state)
    outcome = ps.on_tick(2.0, [], (), nodes, PROGRAMS, mean_link, ground_state)
    assert outcome.tick_index == 1


def test_epoch_offsets_the_grid(nodes, mean_link, ground_state):
    ps = make_state(t_int=2.0, epoch=5.0)
    assert ps.tick_time(0) == 5.0
    outcome = ps.on_tick(5.0, [], (), nodes, PROGRAMS, mean_link, ground_state)
    assert outcome.tick_index == 0
    assert ps.tick_time(3) == 11.0


def test_empty_tick_issues_nothing(nodes, mean_link, ground_state):
    ps = make_state()
    outcome = ps.on_tick(0.0, [], (), nodes, PROGRAMS, mean_link, ground_state)
    assert outcome.requests == []
    assert outcome.dispatches == []
    assert ps.requests_issued == 0
    assert ps.request_messages == 0


# ------------------------------------------------------------------ dispatch


def test_local_execution_sends_no_wire_request(ground_state):
    nodes = default_profiles()
    nodes[0] = NodeProfile(
        node_id=0, kind=NodeKind.UAV5GP, compute_capacity=25.0,
        cached_programs=frozenset({"a"}), battery_budget=1200.0,
    )
    degraded = LinkModel(bands=make_flat_bands(ul=1.0, dl=1.0, rtt=20.0),
                         noise_seed=0)
    cheap = {"a": make_program("a", compute=5.0, inp=1e7, out=1e6)}
    ps = make_state()
    outcome = ps.on_tick(0.0, [task("t1")], (ProgramTableEntry(1, "a"),),
                         nodes, cheap, degraded, ground_state)
    assert len(outcome.dispatches) == 1
    assert outcome.dispatches[0].local
    assert outcome.requests == []
    assert ps.requests_issued == 0
    assert ps.outstanding == {}
    done = ps.note_local_result(outcome.dispatches[0], 0.5)
    assert done == ["t1"]
    assert ps.completed_tasks["t1"] == 0.5


def test_distinct_servers_get_one_bundled_request_each(nodes, mean_link,
                                                       ground_state):
    tables = (ProgramTableEntry(1, "a"), ProgramTableEntry(2, "b"))
    ps = make_state()
    outcome = ps.on_tick(0.0, [task("t1", ("a", "b"))], tables, nodes,
                         PROGRAMS, mean_link, ground_state)
    assert len(outcome.dispatches) == 2
    assert len(outcome.requests) == 2
    # requests come out ordered by server id, one item apiece
    assert [r.programs[0].server_id for r in outcome.requests] == [1, 2]
    assert {r.programs[0].program_id for r in outcome.requests} == {"a", "b"}
    assert ps.requests_issued == 2
    assert ps.request_messages == 2


def test_same_server_programs_share_one_request(nodes, mean_link, ground_state):
    tables = (ProgramTableEntry(1, "a"), ProgramTableEntry(1, "b"))
    ps = make_state()
    outcome = ps.on_tick(0.0, [task("t1", ("a", "b"))], tables, nodes,
                         PROGRAMS, mean_link, ground_state)
    assert ps.requests_issued == 2
    assert ps.request_messages == 1
    assert len(outcome.requests) == 1
    assert len(outcome.requests[0].programs) == 2


def test_requests_carry_the_current_timeline_position(nodes, mean_link,
                                                      ground_state):
    ps = make_state(predicate=PhasePredicate("elapsed", 0.0))
    tables = (ProgramTableEntry(1, "a"),)
    first = ps.on_tick(0.0, [task("t1")], tables, nodes, PROGRAMS, mean_link,
                       ground_state)
    assert first.requests[0].t_pos == 0
    dispatch = first.dispatches[0]
    respond(ps, dispatch, 0.4)
    ps.try_advance(0.4)
    assert ps.timeline.t_pos == 1
    second = ps.on_tick(2.0, [task("t2")], tables, nodes, PROGRAMS, mean_link,
                        ground_state)
    assert second.requests[0].t_pos == 1


def test_shared_program_merges_into_one_dispatch(nodes, mean_link, ground_state):
    tables = (ProgramTableEntry(1, "a"),)
    ps = make_state()
    outcome = ps.on_tick(0.0, [task("t1"), task("t2")], tables, nodes,
                         PROGRAMS, mean_link, ground_state)
    assert len(outcome.dispatches) == 1
    dispatch = outcome.dispatches[0]
    assert dispatch.waiters == ("t1", "t2")
    assert ps.requests_issued == 1
    _, done = respond(ps, dispatch, 0.7)
    assert done == ["t1", "t2"]
    assert ps.completed_tasks == {"t1": 0.7, "t2": 0.7}


# ----------------------------------------------------------------- responses


def test_response_resolves_the_outstanding_entry(nodes, mean_link, ground_state):
    tables = (ProgramTableEntry(1, "a"),)
    ps = make_state()
    outcome = ps.on_tick(0.0, [task("t1")], tables, nodes, PROGRAMS,
                         mean_link, ground_state)
    dispatch = outcome.dispatches[0]
    assert dispatch.key in ps.outstanding
    _, done = respond(ps, dispatch, 0.9, location=(58.9, 0.0, 0.0))
    assert done == ["t1"]
    assert ps.outstanding == {}
    assert ps.server_locations[dispatch.server_id] == (58.9, 0.0, 0.0)
    assert ps.responses_received == 1


def test_duplicate_or_unknown_response_raises(nodes, mean_link, ground_state):
    tables = (ProgramTableEntry(1, "a"),)
    ps = make_state()
    outcome = ps.on_tick(0.0, [task("t1")], tables, nodes, PROGRAMS,
                         mean_link, ground_state)
    dispatch = outcome.dispatches[0]
    respond(ps, dispatch, 0.9)
    with pytest.raises(UnknownResponse):
        respond(ps, dispatch, 1.0)
    with pytest.raises(UnknownResponse):
        ps.on_response(UpdateResponse(0, 99, "a", 0.0, None, 1.0))


def test_partial_results_do_not_complete_the_task(nodes, mean_link, ground_state):
    tables = (ProgramTableEntry(1, "a"), ProgramTableEntry(2, "b"))
    ps = make_state()
    outcome = ps.on_tick(0.0, [task("t1", ("a", "b"))], tables, nodes,
                         PROGRAMS, mean_link, ground_state)
    by_pid = {d.program.program_id: d for d in outcome.dispatches}
    _, done = respond(ps, by_pid["a"], 0.5)
    assert done == []
    assert "t1" not in ps.completed_tasks
    _, done = respond(ps, by_pid["b"], 0.8)
    assert done == ["t1"]


# ------------------------------------------------------------------ timeouts


def test_timeout_excludes_the_failed_server_once(ground_state, mean_link):
    nodes = default_profiles()
    nodes[1] = NodeProfile(node_id=1, kind=NodeKind.ECS, compute_capacity=100.0)
    nodes[2] = NodeProfile(node_id=2, kind=NodeKind.GCS, compute_capacity=100.0)
    tables = (ProgramTableEntry(1, "a"), ProgramTableEntry(2, "a"))
    ps = make_state()
    first = ps.on_tick(0.0, [task("t1")], tables, nodes, PROGRAMS, mean_link,
                       ground_state)
    assert first.dispatches[0].server_id == 1  # identical servers: lower id
    expired = ps.on_timeout(0, 2.0)
    assert [d.server_id for d in expired] == [1]
    assert ps.timeouts == 1
    second = ps.on_tick(2.0, [], tables, nodes, PROGRAMS, mean_link,
                        ground_state)
    assert [d.server_id for d in second.dispatches] == [2]
    respond(ps, second.dispatches[0], 2.5)
    assert ps.completed_tasks["t1"] == 2.5
    # the exclusion lasted one re-match only
    third = ps.on_tick(4.0, [task("t2")], tables, nodes, PROGRAMS, mean_link,
                       ground_state)
    assert third.dispatches[0].server_id == 1


def test_merged_retries_keep_waiter_order_and_the_first_exclusion(ground_state,
                                                                 mean_link):
    nodes = default_profiles()
    for server in (1, 2, 3):
        nodes[server] = NodeProfile(node_id=server, kind=NodeKind.ECS,
                                    compute_capacity=100.0)
    tables = tuple(ProgramTableEntry(server, "a") for server in (1, 2, 3))
    ps = make_state()

    def tick(t, *task_ids):
        return ps.on_tick(t, [task(tid) for tid in task_ids], tables, nodes,
                          PROGRAMS, mean_link, ground_state).dispatches

    assert [d.server_id for d in tick(0.0, "t1")] == [1]
    ps.on_timeout(0, 2.0)
    assert [(d.server_id, d.waiters) for d in tick(2.0, "t2")] == [(2, ("t1", "t2"))]
    assert [d.server_id for d in tick(4.0, "t3")] == [1]
    # two timed-out dispatches of one program: (t1, t2) failed on 2, then
    # (t3,) failed on 1; the older retry's exclusion is the one that holds
    ps.on_timeout(1, 6.0)
    ps.on_timeout(2, 6.0)
    merged = tick(6.0, "t4")
    assert [(d.server_id, d.waiters) for d in merged] == [
        (1, ("t1", "t2", "t3", "t4"))
    ]


def test_sole_capable_server_is_retried_after_its_own_timeout(nodes, mean_link,
                                                              ground_state):
    tables = (ProgramTableEntry(1, "a"),)
    ps = make_state()
    ps.on_tick(0.0, [task("t1")], tables, nodes, PROGRAMS, mean_link,
               ground_state)
    ps.on_timeout(0, 2.0)
    retry = ps.on_tick(2.0, [], tables, nodes, PROGRAMS, mean_link,
                       ground_state)
    assert [d.server_id for d in retry.dispatches] == [1]
    assert retry.unserved == []


def test_timeout_only_retries_the_unresolved_program(nodes, mean_link,
                                                     ground_state):
    tables = (ProgramTableEntry(1, "a"), ProgramTableEntry(2, "b"))
    ps = make_state()
    outcome = ps.on_tick(0.0, [task("t1", ("a", "b"))], tables, nodes,
                         PROGRAMS, mean_link, ground_state)
    by_pid = {d.program.program_id: d for d in outcome.dispatches}
    respond(ps, by_pid["b"], 0.5)
    ps.on_timeout(0, 2.0)
    retry = ps.on_tick(2.0, [], tables, nodes, PROGRAMS, mean_link,
                       ground_state)
    assert [d.program.program_id for d in retry.dispatches] == ["a"]
    respond(ps, retry.dispatches[0], 2.4)
    assert ps.completed_tasks["t1"] == 2.4


def test_unservable_task_is_deferred_whole(nodes, mean_link, ground_state):
    partial_tables = (ProgramTableEntry(1, "a"),)
    full_tables = (ProgramTableEntry(1, "a"), ProgramTableEntry(1, "b"))
    ps = make_state()
    outcome = ps.on_tick(0.0, [task("t1", ("a", "b"))], partial_tables, nodes,
                         PROGRAMS, mean_link, ground_state)
    assert outcome.dispatches == []
    assert outcome.unserved == [("t1", "b")]
    assert ps.unserved_events == 1
    assert ps.requests_issued == 0
    # once the missing capability appears, the whole task is served
    retry = ps.on_tick(2.0, [], full_tables, nodes, PROGRAMS, mean_link,
                       ground_state)
    assert sorted(d.program.program_id for d in retry.dispatches) == ["a", "b"]


def test_conservation_requests_equal_responses_plus_timeouts(nodes, mean_link,
                                                             ground_state):
    tables = (ProgramTableEntry(1, "a"), ProgramTableEntry(2, "b"))
    ps = make_state()
    first = ps.on_tick(0.0, [task("t1", ("a", "b"))], tables, nodes, PROGRAMS,
                       mean_link, ground_state)
    by_pid = {d.program.program_id: d for d in first.dispatches}
    respond(ps, by_pid["a"], 0.5)
    ps.on_timeout(0, 2.0)  # expires "b"
    second = ps.on_tick(2.0, [task("t2")], tables, nodes, PROGRAMS, mean_link,
                        ground_state)
    assert len(second.dispatches) == 2  # retried "b" plus fresh "a"
    flushed = ps.flush_outstanding(3.0)
    assert len(flushed) == 2
    assert ps.requests_issued == 4
    assert ps.responses_received == 1
    assert ps.timeouts == 3
    assert ps.requests_issued == ps.responses_received + ps.timeouts
    assert ps.outstanding == {}


# --------------------------------------------------------------- advancement


def test_outstanding_entries_gate_the_timeline(nodes, mean_link, ground_state):
    ps = make_state(predicate=PhasePredicate("elapsed", 0.0))
    tables = (ProgramTableEntry(1, "a"),)
    outcome = ps.on_tick(0.0, [task("t1")], tables, nodes, PROGRAMS,
                         mean_link, ground_state)
    assert ps.try_advance(0.1) == 0
    assert ps.timeline.t_pos == 0
    assert ps.last_aware_at is None  # gated: not even awareness refreshes
    respond(ps, outcome.dispatches[0], 0.4)
    assert ps.try_advance(0.4) == 1
    assert ps.timeline.t_pos == 1
    assert ps.last_aware_at == 0.4
    assert ps.phase_log == [(0.4, 0, 1)]


def test_false_predicate_still_refreshes_awareness(nodes, mean_link,
                                                   ground_state):
    ps = make_state(predicate=PhasePredicate("never"))
    ps.on_tick(0.0, [], (), nodes, PROGRAMS, mean_link, ground_state)
    assert ps.try_advance(0.0) == 0
    assert ps.timeline.t_pos == 0
    assert ps.last_aware_at == 0.0


def test_task_completion_predicate_advances_after_the_result(nodes, mean_link,
                                                             ground_state):
    ps = make_state(predicate=PhasePredicate("task_completed", "t1"))
    tables = (ProgramTableEntry(1, "a"),)
    outcome = ps.on_tick(0.0, [task("t1")], tables, nodes, PROGRAMS,
                         mean_link, ground_state)
    respond(ps, outcome.dispatches[0], 0.6)
    assert ps.try_advance(0.6) == 1
    assert ps.timeline.t_pos == 1


def test_elapsed_predicate_waits_for_its_time(nodes, mean_link, ground_state):
    ps = make_state(predicate=PhasePredicate("elapsed", 4.0))
    ps.on_tick(0.0, [], (), nodes, PROGRAMS, mean_link, ground_state)
    assert ps.try_advance(0.0) == 0
    ps.on_tick(2.0, [], (), nodes, PROGRAMS, mean_link, ground_state)
    assert ps.try_advance(2.0) == 0
    ps.on_tick(4.0, [], (), nodes, PROGRAMS, mean_link, ground_state)
    assert ps.try_advance(4.0) == 1


def test_chained_ready_phases_advance_together(nodes, mean_link, ground_state):
    timeline = MissionTimeline([
        Phase("one", completes_when=PhasePredicate("elapsed", 0.0)),
        Phase("two", completes_when=PhasePredicate("elapsed", 0.0)),
        Phase("three"),
    ])
    ps = ProtocolState(t_int=2.0, timeline=timeline)
    ps.on_tick(0.0, [], (), nodes, PROGRAMS, mean_link, ground_state)
    assert ps.try_advance(1.0) == 2
    assert ps.timeline.t_pos == 2
    assert ps.phase_log == [(1.0, 0, 1), (1.0, 1, 2)]
