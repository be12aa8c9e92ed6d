"""Update-loop state machine: bundling, retries, timeouts, gated advancement."""

import pytest

from birdsim import (
    FlightState,
    LinkModel,
    NodeKind,
    NodeProfile,
    Origin,
    Phase,
    PhasePredicate,
    ProgramSpec,
    ProgramTableEntry,
    Task,
    default_profiles,
)
from birdsim import protocol
from birdsim.channel import band_for
from birdsim.pipeline import LatencyBreakdown
from birdsim.protocol import Offloads, ProtocolState, UnknownResponse

from conftest import make_flat_bands


def make_program(pid, compute=40.0, inp=1e6, out=1e5):
    return ProgramSpec(pid, "object_detection", compute_cost=compute,
                       input_payload=inp, output_payload=out,
                       encode_cost=2.0, decode_cost=2.0)


PROGRAMS = {pid: make_program(pid) for pid in ("a", "b")}
# every tick here is decided in the band of this flight state, which a
# memo miss builds at the tick's time
GROUND = FlightState(t=0.0, altitude=30.0)
GROUND_BAND = band_for(GROUND.altitude, GROUND.rotating)


def task(task_id, programs=("a",), issue=0.0, consumer=0):
    return Task(task_id, tuple(programs), Origin.COMMANDER_ORDER, issue,
                consumer=consumer)


def make_offloads(tables=(), nodes=None, programs=PROGRAMS, link=None):
    """Offload choices over fixed tables, fleet (default: the default
    profiles), programs and link (default: variance-free), flying at
    GROUND."""
    return Offloads(
        tables=tables,
        nodes=default_profiles() if nodes is None else nodes,
        programs=programs,
        link=link or LinkModel(noise_seed=0, variance_scale=0.0),
        state_at=lambda t: GROUND._replace(t=t),
        band_at=lambda t: GROUND_BAND,
    )


def make_state(tables=(), nodes=None, programs=PROGRAMS, link=None, *,
               tasks=(), t_int=2.0, predicate=None, phases=None, offloads=None):
    """Update-loop state over tasks (each a task id, needing "a", or a Task)
    and offloads (default: make_offloads over tables, nodes, programs and
    link); the phases default to "first", which completes when predicate
    holds, then "second"."""
    if phases is None:
        phases = (Phase("first", completes_when=predicate), Phase("second"))
    return ProtocolState(
        t_int=t_int,
        phases=phases,
        tasks=[task(t) if isinstance(t, str) else t for t in tasks],
        offloads=offloads or make_offloads(tables, nodes, programs, link),
    )


def due(ps, *task_ids):
    """The tasks of ps named by task_ids, in that order."""
    return [ps.outcomes[task_id].task for task_id in task_ids]


RESULT = LatencyBreakdown(0.1, 0.2, 0.05, 0.15)


def respond(ps, dispatch, t):
    ps.on_response(dispatch.key, t, RESULT)


def completed(ps):
    """The completion time of each completed task, by task id."""
    return {task_id: outcome.completed_at for task_id, outcome in ps.outcomes.items()
            if outcome.completed_at is not None}


def waiter_ids(dispatch):
    """The task id of each waiter of dispatch, in order."""
    return tuple(prog.task_outcome.task.task_id for prog in dispatch.waiters)


def joined(dispatch):
    """How many of dispatch's waiters joined its chain at its tick."""
    return sum(prog.first_tick == dispatch.tick_index for prog in dispatch.waiters)


# -------------------------------------------------------------------- cadence


def test_t_int_must_be_positive():
    with pytest.raises(ValueError):
        make_state(t_int=0.0)


def test_ticks_must_land_on_the_interval_grid():
    ps = make_state(t_int=2.0)
    ps.on_tick(0.0, [])
    with pytest.raises(ValueError):
        ps.on_tick(3.0, [])
    ps.on_tick(2.0, [])
    assert ps.current_tick == 1


def test_empty_tick_issues_nothing():
    ps = make_state()
    outcome = ps.on_tick(0.0, [])
    assert outcome.messages == 0
    assert outcome.dispatches == ()
    assert ps.requests_issued == 0
    assert ps.request_messages == 0


# ------------------------------------------------------------------ dispatch


def test_local_execution_sends_no_wire_request():
    nodes = default_profiles()
    nodes[0] = NodeProfile(
        node_id=0, kind=NodeKind.UAV5GP, compute_capacity=25.0,
        cached_programs=frozenset({"a"}), battery_budget=1200.0,
    )
    degraded = LinkModel(bands=make_flat_bands(ul=1.0, dl=1.0, rtt=20.0),
                         noise_seed=0)
    cheap = {"a": make_program("a", compute=5.0, inp=1e7, out=1e6)}
    ps = make_state((ProgramTableEntry(1, "a"),), nodes, cheap, degraded, tasks=["t1"])
    outcome = ps.on_tick(0.0, due(ps, "t1"))
    assert len(outcome.dispatches) == 1
    assert outcome.dispatches[0].local
    assert outcome.messages == 0
    assert ps.requests_issued == 0
    assert ps.outstanding == {}
    ps.note_result(outcome.dispatches[0], 0.5, RESULT)
    assert completed(ps) == {"t1": 0.5}
    [prog] = ps.outcomes["t1"].programs
    assert (prog.breakdown, prog.delivered_at) == (RESULT, 0.5)


def test_distinct_servers_get_one_bundled_request_each():
    ps = make_state((ProgramTableEntry(1, "a"), ProgramTableEntry(2, "b")),
                    tasks=[task("t1", ("a", "b"))])
    outcome = ps.on_tick(0.0, due(ps, "t1"))
    assert [(d.server_id, d.program.program_id) for d in outcome.dispatches] == [
        (1, "a"), (2, "b"),
    ]
    assert outcome.messages == 2
    assert ps.requests_issued == 2
    assert ps.request_messages == 2


def test_same_server_programs_share_one_request():
    ps = make_state((ProgramTableEntry(1, "a"), ProgramTableEntry(1, "b")),
                    tasks=[task("t1", ("a", "b"))])
    outcome = ps.on_tick(0.0, due(ps, "t1"))
    assert ps.requests_issued == 2
    assert ps.request_messages == 1
    assert outcome.messages == 1
    assert [(d.server_id, d.program.program_id) for d in outcome.dispatches] == [
        (1, "a"), (1, "b"),
    ]


def test_shared_program_merges_into_one_dispatch():
    ps = make_state((ProgramTableEntry(1, "a"),), tasks=["t1", "t2"])
    outcome = ps.on_tick(0.0, due(ps, "t1", "t2"))
    assert len(outcome.dispatches) == 1
    dispatch = outcome.dispatches[0]
    assert waiter_ids(dispatch) == ("t1", "t2")
    assert ps.requests_issued == 1
    assert outcome.messages == 1
    respond(ps, dispatch, 0.7)
    assert completed(ps) == {"t1": 0.7, "t2": 0.7}
    # both waiters take the one result
    assert [(p.breakdown, p.delivered_at) for p in dispatch.waiters] == [(RESULT, 0.7)] * 2


# ----------------------------------------------------------------- responses


def test_response_resolves_the_outstanding_entry():
    ps = make_state((ProgramTableEntry(1, "a"),), tasks=["t1"])
    outcome = ps.on_tick(0.0, due(ps, "t1"))
    dispatch = outcome.dispatches[0]
    assert dispatch.key in ps.outstanding
    respond(ps, dispatch, 0.9)
    assert completed(ps) == {"t1": 0.9}
    assert ps.outstanding == {}
    assert ps.responses_received == 1


def test_duplicate_or_unknown_response_raises():
    ps = make_state((ProgramTableEntry(1, "a"),), tasks=["t1"])
    outcome = ps.on_tick(0.0, due(ps, "t1"))
    dispatch = outcome.dispatches[0]
    respond(ps, dispatch, 0.9)
    with pytest.raises(UnknownResponse):
        respond(ps, dispatch, 1.0)
    with pytest.raises(UnknownResponse):
        ps.on_response("0:99:a", 1.0, RESULT)
    # the refused duplicate credits nothing
    assert ps.outcomes["t1"].programs[0].delivered_at == 0.9


def test_partial_results_do_not_complete_the_task():
    ps = make_state((ProgramTableEntry(1, "a"), ProgramTableEntry(2, "b")),
                    tasks=[task("t1", ("a", "b"))])
    outcome = ps.on_tick(0.0, due(ps, "t1"))
    by_pid = {d.program.program_id: d for d in outcome.dispatches}
    respond(ps, by_pid["a"], 0.5)
    assert completed(ps) == {}
    respond(ps, by_pid["b"], 0.8)
    assert completed(ps) == {"t1": 0.8}


# ------------------------------------------------------------------ timeouts


def test_timeout_excludes_the_failed_server_once():
    nodes = default_profiles()
    nodes[1] = NodeProfile(node_id=1, kind=NodeKind.ECS, compute_capacity=100.0)
    nodes[2] = NodeProfile(node_id=2, kind=NodeKind.GCS, compute_capacity=100.0)
    ps = make_state((ProgramTableEntry(1, "a"), ProgramTableEntry(2, "a")), nodes,
                    tasks=["t1", "t2"])
    first = ps.on_tick(0.0, due(ps, "t1"))
    assert first.dispatches[0].server_id == 1  # identical servers: lower id
    expired = ps.on_timeout()
    # the open tick's entries, handed over by entry key
    assert list(expired) == ["0:1:a"]
    assert [d.server_id for d in expired.values()] == [1]
    assert ps.timeouts == 1
    second = ps.on_tick(2.0, [])
    assert [d.server_id for d in second.dispatches] == [2]
    respond(ps, second.dispatches[0], 2.5)
    assert completed(ps) == {"t1": 2.5}
    # the exclusion lasted one re-match only
    third = ps.on_tick(4.0, due(ps, "t2"))
    assert third.dispatches[0].server_id == 1


def test_merged_retries_keep_waiter_order_and_the_first_exclusion():
    nodes = default_profiles()
    for server in (1, 2, 3):
        nodes[server] = NodeProfile(node_id=server, kind=NodeKind.ECS,
                                    compute_capacity=100.0)
    tables = tuple(ProgramTableEntry(server, "a") for server in (1, 2, 3))
    ps = make_state(tables, nodes, tasks=["t1", "t2", "t3", "t4"])

    def tick(t, *task_ids):
        return ps.on_tick(t, due(ps, *task_ids)).dispatches

    first = tick(0.0, "t1")
    assert [d.server_id for d in first] == [1]
    ps.on_timeout()
    # the retry leads, so its waiters come first and its exclusion holds;
    # the fresh waiters follow in due order and join the chain at this tick
    [second] = tick(2.0, "t2", "t3")
    assert (second.server_id, waiter_ids(second), joined(second)) == (
        2, ("t1", "t2", "t3"), 2)
    # the retry is the timed-out dispatch, re-aimed in place
    assert second is first[0]
    ps.on_timeout()
    [third] = tick(4.0, "t4")
    assert (third.server_id, waiter_ids(third), joined(third)) == (
        1, ("t1", "t2", "t3", "t4"), 1)
    assert third is second
    assert (third.tick_index, third.server_id, third.key) == (2, 1, "2:1:a")
    # every waiter is on the one chain, from the tick it joined
    assert [(p.chain is third, p.first_tick) for p in third.waiters] == [
        (True, 0), (True, 1), (True, 1), (True, 2)]


def test_a_tick_cannot_open_over_outstanding_entries():
    ps = make_state((ProgramTableEntry(1, "a"),), tasks=["t1"])
    ps.on_tick(0.0, due(ps, "t1"))
    with pytest.raises(ValueError, match="outstanding"):
        ps.on_tick(2.0, [])
    assert ps.current_tick == 0
    ps.on_timeout()
    assert [waiter_ids(d) for d in ps.on_tick(2.0, []).dispatches] == [("t1",)]


def test_sole_capable_server_is_retried_after_its_own_timeout():
    ps = make_state((ProgramTableEntry(1, "a"),), tasks=["t1"])
    ps.on_tick(0.0, due(ps, "t1"))
    ps.on_timeout()
    retry = ps.on_tick(2.0, [])
    assert [d.server_id for d in retry.dispatches] == [1]
    assert retry.unserved == ()


def test_timeout_only_retries_the_unresolved_program():
    ps = make_state((ProgramTableEntry(1, "a"), ProgramTableEntry(2, "b")),
                    tasks=[task("t1", ("a", "b"))])
    outcome = ps.on_tick(0.0, due(ps, "t1"))
    by_pid = {d.program.program_id: d for d in outcome.dispatches}
    respond(ps, by_pid["b"], 0.5)
    ps.on_timeout()
    retry = ps.on_tick(2.0, [])
    assert [d.program.program_id for d in retry.dispatches] == ["a"]
    respond(ps, retry.dispatches[0], 2.4)
    assert completed(ps) == {"t1": 2.4}


def test_unservable_task_is_deferred_whole():
    ps = make_state((ProgramTableEntry(1, "a"),), tasks=[task("t1", ("a", "b"))])
    outcome = ps.on_tick(0.0, due(ps, "t1"))
    assert outcome.dispatches == ()
    assert outcome.unserved == ("t1:b",)
    assert ps.unserved_events == 1
    assert ps.requests_issued == 0
    # the next tick defers it whole again: its servable "a" is not sent alone
    retry = ps.on_tick(2.0, [])
    assert retry.dispatches == ()
    assert retry.unserved == ("t1:b",)
    assert ps.unserved_events == 2
    assert ps.requests_issued == 0
    # it was served, deferred, at its first tick, and no program joined a chain
    outcome = ps.outcomes["t1"]
    assert outcome.first_served_at == 0.0
    assert [(p.chain, p.first_tick) for p in outcome.programs] == [(None, -1)] * 2


def test_idle_ticks_keep_the_books():
    """A tick with no retry and no due task dispatches nothing, but it still
    opens its tick, counts every deferred pair and refuses a time off the
    grid or an open entry."""
    ps = make_state((ProgramTableEntry(1, "a"),), tasks=[task("t1", ("a", "b")), "t2"])
    ps.on_tick(0.0, due(ps, "t1"))
    n = 4
    outcomes = [ps.on_tick(2.0 * k, []) for k in range(1, n + 1)]
    assert ps.unserved_events == n + 1
    assert ps.current_tick == n
    assert [(o.dispatches, o.unserved, o.messages) for o in outcomes] == (
        [((), ("t1:b",), 0)] * n)
    with pytest.raises(ValueError, match="expected t=10.0"):
        ps.on_tick(11.0, [])
    assert (ps.current_tick, ps.unserved_events) == (n, n + 1)
    # the next tick opens an entry that no response or timeout resolves
    ps.on_tick(10.0, due(ps, "t2"))
    with pytest.raises(ValueError, match="outstanding"):
        ps.on_tick(12.0, [])
    assert (ps.current_tick, ps.unserved_events) == (n + 1, n + 2)


def test_idle_ticks_share_one_outcome_until_a_tick_defers_a_new_pair():
    """Idle ticks return one shared outcome, replaced only by a busy tick
    that defers a new pair: every later idle tick lists that pair and counts
    each deferred pair once."""
    ps = make_state((ProgramTableEntry(1, "a"),),
                    tasks=[task("t1", ("a", "b")), "t2", task("t3", ("b",))])

    def idle(t):
        events = ps.unserved_events
        outcome = ps.on_tick(t, [])
        assert ps.unserved_events == events + len(outcome.unserved)
        assert (outcome.dispatches, outcome.messages) == ((), 0)
        return outcome

    first = idle(0.0)
    assert idle(2.0) is first and first.unserved == ()
    # a busy tick: t2 is dispatched and answered, t1 is deferred
    busy = ps.on_tick(4.0, due(ps, "t1", "t2"))
    assert busy.unserved == ("t1:b",)
    respond(ps, busy.dispatches[0], 4.5)
    after_busy = [idle(6.0), idle(8.0), idle(10.0)]
    assert [o.unserved for o in after_busy] == [("t1:b",)] * 3
    assert after_busy[0] is after_busy[1] is after_busy[2] is not first
    # a tick whose only due task is deferred lists it, as do the idle ones after it
    assert ps.on_tick(12.0, due(ps, "t3")).unserved == ("t1:b", "t3:b")
    later = idle(14.0)
    assert later.unserved == ("t1:b", "t3:b") and idle(16.0) is later
    # the busy tick and three idle ones, then the deferring tick and two idle ones
    assert ps.unserved_events == 4 * 1 + 3 * 2


def test_tasks_sharing_an_unservable_list_each_report_their_own_program(monkeypatch):
    matched = []
    match_programs = protocol.match_programs

    def counting(task, tables, platform):
        matched.append(task.required_programs)
        return match_programs(task, tables, platform)

    monkeypatch.setattr(protocol, "match_programs", counting)
    ps = make_state((ProgramTableEntry(1, "a"),),
                    programs={pid: make_program(pid) for pid in ("a", "b", "c")},
                    tasks=[task("t1", ("a", "b")), task("t2", ("a", "b")),
                           task("t3", ("a", "c", "b")), "t4",
                           task("t5", ("a", "c", "b")), "t6"])
    outcome = ps.on_tick(0.0, due(ps, "t1", "t2", "t3", "t4"))
    assert [waiter_ids(d) for d in outcome.dispatches] == [("t4",)]
    assert outcome.unserved == ("t1:b", "t2:b", "t3:c")
    assert ps.unserved_events == 3
    respond(ps, outcome.dispatches[0], 0.5)
    outcome = ps.on_tick(2.0, due(ps, "t5", "t6"))
    assert outcome.unserved == ("t1:b", "t2:b", "t3:c", "t5:c")
    assert ps.unserved_events == 7
    assert [waiter_ids(d) for d in outcome.dispatches] == [("t6",)]
    # each distinct program list is matched once per run
    assert matched == [("a", "b"), ("a", "c", "b"), ("a",)]


def two_servers_for_a():
    """The default fleet with two identical servers 1 and 2, which both run
    "a", so a retry moves between them."""
    nodes = default_profiles()
    nodes[1] = NodeProfile(node_id=1, kind=NodeKind.ECS, compute_capacity=100.0)
    nodes[2] = NodeProfile(node_id=2, kind=NodeKind.GCS, compute_capacity=100.0)
    return nodes, (ProgramTableEntry(1, "a"), ProgramTableEntry(2, "a"),
                   ProgramTableEntry(1, "b"))


def test_states_sharing_offloads_make_the_same_dispatches(monkeypatch):
    """Two update loops over one Offloads (a run plan's two runs) decide the
    same dispatches with the same routes; the second meets only keys the
    first met, so it makes no offload choice and matches no list. The calls
    are counted where the bench tracer counts them: on protocol."""
    calls = []
    for name in ("select_server", "match_programs"):
        def counting(*args, _name=name, _fn=getattr(protocol, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(protocol, name, counting)
    nodes, tables = two_servers_for_a()
    tasks = [task("t1", ("a", "b")), task("t2", ("a",), consumer=1),
             task("t3", ("a", "c")), task("t4", ("a",))]
    shared = make_offloads(tables, nodes, dict(PROGRAMS, c=make_program("c")))

    def mission():
        ps = make_state(tasks=tasks, offloads=shared)
        decided = []
        for t, due_ids in ((0.0, ("t1", "t2")), (2.0, ("t3",)), (4.0, ("t4",))):
            outcome = ps.on_tick(t, due(ps, *due_ids))
            decided.append(([(d.server_id, d.program.program_id, d.consumer, d.local,
                              d.route, waiter_ids(d)) for d in outcome.dispatches],
                            outcome.unserved))
            ps.on_timeout()
        return decided

    first = mission()
    made = list(calls)
    assert made.count("match_programs") == 3  # ("a", "b"), ("a",), ("a", "c")
    assert made.count("select_server") == len(shared.choices) > 0
    # the retry of "a" moved away from server 1, then back
    assert [[d[0] for d in dispatches if d[1] == "a"] for dispatches, _ in first] == [
        [1], [2], [1]]
    assert first[1][1] == ("t3:c",)
    assert mission() == first
    assert calls == made


def test_settle_applies_the_chain_rule():
    """attempts and server stay unset until settle, which sets each chained
    waiter's from its chain: a waiter that joins a retried chain mid-way
    counts from the tick it joined, a chain still undelivered when the last
    on_timeout ends the run is settled like a delivered one, a local
    dispatch is one attempt on the platform, and a deferred task's programs
    join no chain."""
    nodes, tables = two_servers_for_a()
    nodes[0] = NodeProfile(
        node_id=0, kind=NodeKind.UAV5GP, compute_capacity=25.0,
        cached_programs=frozenset({"b"}), battery_budget=1200.0,
    )
    ps = make_state(
        tables, nodes, dict(PROGRAMS, b=make_program("b", compute=5.0, inp=1e7, out=1e6)),
        LinkModel(bands=make_flat_bands(ul=1.0, dl=1.0, rtt=20.0), noise_seed=0,
                  variance_scale=0.0),
        tasks=["t1", "t2", task("late", ("a",), consumer=2),
               task("local", ("b",)), task("deferred", ("a", "c"))])
    ps.on_tick(0.0, due(ps, "t1", "deferred"))
    ps.on_timeout()
    [retry] = ps.on_tick(2.0, due(ps, "t2")).dispatches
    assert (retry.server_id, waiter_ids(retry)) == (2, ("t1", "t2"))
    ps.on_timeout()
    [again] = ps.on_tick(4.0, []).dispatches
    respond(ps, again, 4.5)
    late, local = ps.on_tick(6.0, due(ps, "late", "local")).dispatches
    assert (waiter_ids(late), late.local, local.local) == (("late",), False, True)
    # the retry re-aims late in place, so its first server is read now
    late_server = late.server_id
    ps.note_result(local, 6.5, RESULT)
    ps.on_timeout()
    [late_again] = ps.on_tick(8.0, []).dispatches
    # late goes to its own consumer first, then away from it
    assert late_again is late
    assert (late_server, late_again.server_id) == (2, 1)
    ps.on_timeout()  # the end of the run

    def ledger():
        return {task_id: [(p.attempts, p.server, p.breakdown is not None)
                          for p in outcome.programs]
                for task_id, outcome in ps.outcomes.items()}

    delivered = {"t1": True, "t2": True, "late": False, "local": True}
    assert ledger() == {**{task_id: [(0, None, done)] for task_id, done in delivered.items()},
                        "deferred": [(0, None, False), (0, None, False)]}
    ps.settle()
    assert ledger() == {
        "t1": [(3, 1, True)],
        "t2": [(2, 1, True)],
        "late": [(2, 1, False)],
        "local": [(1, 0, True)],
        "deferred": [(0, None, False), (0, None, False)],
    }


def test_conservation_requests_equal_responses_plus_timeouts():
    ps = make_state((ProgramTableEntry(1, "a"), ProgramTableEntry(2, "b")),
                    tasks=[task("t1", ("a", "b")), "t2"])
    first = ps.on_tick(0.0, due(ps, "t1"))
    by_pid = {d.program.program_id: d for d in first.dispatches}
    respond(ps, by_pid["a"], 0.5)
    ps.on_timeout()  # expires "b"
    second = ps.on_tick(2.0, due(ps, "t2"))
    assert len(second.dispatches) == 2  # retried "b" plus fresh "a"
    flushed = ps.on_timeout()  # the end of the run resolves the open tick
    assert len(flushed) == 2
    assert ps.requests_issued == 4
    assert ps.responses_received == 1
    assert ps.timeouts == 3
    assert ps.requests_issued == ps.responses_received + ps.timeouts
    assert ps.outstanding == {}


# --------------------------------------------------------------- advancement


def test_outstanding_entries_gate_the_timeline():
    ps = make_state((ProgramTableEntry(1, "a"),), tasks=["t1"],
                    predicate=PhasePredicate("elapsed", 0.0))
    outcome = ps.on_tick(0.0, due(ps, "t1"))
    ps.try_advance(0.1)
    assert ps.t_pos == 0
    assert ps.phase_log == []
    respond(ps, outcome.dispatches[0], 0.4)
    ps.try_advance(0.4)
    assert ps.t_pos == 1
    assert ps.phase_log == [(0.4, 0, 1)]


def test_false_predicate_holds_the_ungated_timeline():
    ps = make_state(predicate=PhasePredicate("never"))
    for t in (0.0, 2.0, 4.0):
        ps.on_tick(t, [])
        ps.try_advance(t)
    assert ps.t_pos == 0
    assert ps.phase_log == []


def test_task_completion_predicate_advances_after_the_result():
    ps = make_state((ProgramTableEntry(1, "a"),), tasks=["t1"],
                    predicate=PhasePredicate("task_completed", "t1"))
    outcome = ps.on_tick(0.0, due(ps, "t1"))
    respond(ps, outcome.dispatches[0], 0.6)
    ps.try_advance(0.6)
    assert ps.t_pos == 1
    assert ps.phase_log == [(0.6, 0, 1)]


def test_program_result_predicate_advances_on_local_and_resolved_wire_results():
    # "a" runs on the platform, which caches it; "b" only on server 1
    nodes = default_profiles()
    nodes[0] = NodeProfile(
        node_id=0, kind=NodeKind.UAV5GP, compute_capacity=25.0,
        cached_programs=frozenset({"a"}), battery_budget=1200.0,
    )
    ps = make_state((ProgramTableEntry(1, "b"),), nodes,
                    tasks=[task("t1", ("a",)), task("t2", ("b",))], phases=(
        Phase("first", completes_when=PhasePredicate("program_result", "a")),
        Phase("second", completes_when=PhasePredicate("program_result", "b")),
        Phase("third"),
    ))
    [local] = ps.on_tick(0.0, due(ps, "t1")).dispatches
    assert local.local
    ps.note_result(local, 0.5, RESULT)
    ps.try_advance(0.5)
    assert ps.phase_log == [(0.5, 0, 1)]
    [wire] = ps.on_tick(2.0, due(ps, "t2")).dispatches
    assert not wire.local
    ps.try_advance(2.0)
    assert ps.t_pos == 1
    # the result counts once its entry resolves, and the gate opens with it
    respond(ps, wire, 2.7)
    ps.try_advance(2.7)
    assert ps.completed_programs == {"a", "b"}
    assert ps.phase_log == [(0.5, 0, 1), (2.7, 1, 2)]


def test_elapsed_predicate_waits_for_its_time():
    ps = make_state(predicate=PhasePredicate("elapsed", 4.0))
    ps.on_tick(0.0, [])
    ps.try_advance(0.0)
    ps.on_tick(2.0, [])
    ps.try_advance(2.0)
    assert ps.t_pos == 0
    ps.on_tick(4.0, [])
    ps.try_advance(4.0)
    assert ps.t_pos == 1
    assert ps.phase_log == [(4.0, 0, 1)]


def test_chained_ready_phases_advance_together():
    ps = make_state(phases=(
        Phase("one", completes_when=PhasePredicate("elapsed", 0.0)),
        Phase("two", completes_when=PhasePredicate("elapsed", 0.0)),
        Phase("three"),
    ))
    ps.on_tick(0.0, [])
    ps.try_advance(1.0)
    assert ps.t_pos == 2
    assert ps.phase_log == [(1.0, 0, 1), (1.0, 1, 2)]


def test_timeline_advance_is_monotone_and_bounded():
    ps = make_state(phases=tuple(
        Phase(pid, completes_when=PhasePredicate("always")) for pid in "abc"))
    assert ps.t_pos == 0
    ps.on_tick(0.0, [])
    ps.try_advance(0.0)
    # the last phase is never left, even though its predicate holds
    assert ps.phases[ps.t_pos].phase_id == "c"
    ps.try_advance(1.0)
    assert ps.t_pos == 2
    assert ps.phase_log == [(0.0, 0, 1), (0.0, 1, 2)]


def test_a_timeline_needs_a_phase():
    with pytest.raises(ValueError, match="at least one phase"):
        make_state(phases=())
