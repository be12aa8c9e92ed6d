"""Periodic update loop between the aerial platform and its servers.

Every update interval the platform bundles the programs of due tasks into one
request per chosen server, carrying its timeline position. Responses return
results and server locations. The timeline position may only advance once the
current interval's requests have all been answered or timed out; a timed-out
program re-enters the next interval's matching with the failed server
excluded once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .channel import FlightState, LinkModel
from .model import MissionTimeline, NodeProfile, PhasePredicate, ProgramSpec, Task
from .policy import (
    NoCapableServer,
    OffloadDecision,
    ProgramTableEntry,
    candidates_for,
    match_programs,
    select_server,
)

EntryKey = tuple[int, int, str]  # (tick_index, server_id, program_id)


class UnknownResponse(KeyError):
    """A response arrived for no outstanding entry: a harness bug."""


@dataclass(frozen=True)
class RequestItem:
    program_id: str
    server_id: int
    input_payload: float  # bits


@dataclass(frozen=True)
class UpdateRequest:
    tick_index: int
    issued_at: float
    t_pos: int
    programs: tuple[RequestItem, ...]


@dataclass(frozen=True)
class UpdateResponse:
    tick_index: int
    server_id: int
    program_id: str
    result_payload: float  # bits
    server_location: tuple[float, float, float] | None
    completed_at: float


@dataclass
class Dispatch:
    """One program execution decided at a tick, wire or local."""

    tick_index: int
    program: ProgramSpec
    server_id: int
    consumer: int
    decision: OffloadDecision
    waiters: tuple[str, ...]  # task ids credited when the result lands
    issued_at: float
    local: bool

    @property
    def key(self) -> EntryKey:
        return (self.tick_index, self.server_id, self.program.program_id)


@dataclass
class TickOutcome:
    tick_index: int
    t: float
    requests: list[UpdateRequest]
    dispatches: list[Dispatch]
    unserved: list[tuple[str, str]]  # (task_id, program_id) pairs deferred
    served_tasks: list[str]  # task ids first picked up this tick


@dataclass(frozen=True)
class _WorkItem:
    """Waiting tasks for one program; a retry excludes the failed server."""

    program_id: str
    waiters: tuple[str, ...]
    excluded_server: int | None = None


class ProtocolState:
    """Mutable state of the update loop; driven by the engine's events."""

    def __init__(self, t_int: float, timeline: MissionTimeline, epoch: float = 0.0):
        if not t_int > 0:
            raise ValueError("t_int must be positive")
        self.t_int = float(t_int)
        self.epoch = float(epoch)
        self.timeline = timeline
        self.current_tick = -1
        self.outstanding: dict[EntryKey, Dispatch] = {}
        self.server_locations: dict[int, tuple[float, float, float]] = {}
        self.last_aware_at: float | None = None
        # bookkeeping for retries and task completion
        self._task_retries: list[str] = []
        self._program_retries: list[_WorkItem] = []
        self._tasks: dict[str, Task] = {}
        self._remaining: dict[str, set[str]] = {}
        self.completed_tasks: dict[str, float] = {}
        self.completed_programs: set[str] = set()
        self.results: list[UpdateResponse] = []
        self.phase_log: list[tuple[float, int, int]] = []
        # conservation counters (entry granularity)
        self.requests_issued = 0
        self.request_messages = 0
        self.responses_received = 0
        self.timeouts = 0
        self.unserved_events = 0

    # ------------------------------------------------------------------ ticks

    def tick_time(self, tick_index: int) -> float:
        return self.epoch + tick_index * self.t_int

    def on_tick(
        self,
        t_i: float,
        due_tasks: Sequence[Task],
        tables: Sequence[ProgramTableEntry],
        nodes: Mapping[int, NodeProfile],
        programs: Mapping[str, ProgramSpec],
        link: LinkModel,
        state: FlightState,
    ) -> TickOutcome:
        """Serve due and retried work; returns the bundled requests and every
        dispatch (wire and local) decided this tick."""
        tick = self.current_tick + 1
        expected = self.tick_time(tick)
        if t_i != expected:
            raise ValueError(f"tick at t={t_i}, expected t={expected}")
        self.current_tick = tick
        platform = nodes[link.attachment]

        unserved: list[tuple[str, str]] = []
        served_tasks: list[str] = []
        work: list[_WorkItem] = []

        # Timed-out programs first (they are older), then whole-task retries
        # and freshly due tasks, each re-matched in full.
        retries, self._program_retries = self._program_retries, []
        work.extend(retries)
        task_retries, self._task_retries = self._task_retries, []
        for task_id in task_retries:
            work.extend(self._match_whole_task(self._tasks[task_id], tables, platform, unserved))
        for task in due_tasks:
            self._tasks[task.task_id] = task
            self._remaining.setdefault(task.task_id, set(task.required_programs))
            served_tasks.append(task.task_id)
            work.extend(self._match_whole_task(task, tables, platform, unserved))

        # Tasks sharing a program this tick share one dispatch: outstanding
        # entries are keyed (tick, server, program), so duplicates must merge.
        # Waiters keep their order; the first excluded server seen wins.
        excluded: dict[str, int | None] = {}
        waiters: dict[str, list[str]] = {}
        for item in work:
            if item.program_id not in waiters:
                waiters[item.program_id] = list(item.waiters)
                excluded[item.program_id] = item.excluded_server
            else:
                waiters[item.program_id].extend(item.waiters)
                if excluded[item.program_id] is None:
                    excluded[item.program_id] = item.excluded_server

        dispatches: list[Dispatch] = []
        for program_id, excluded_server in excluded.items():
            found = candidates_for(program_id, tables, platform)
            if excluded_server is not None:
                # exclusion lasts exactly one re-match, and never starves the
                # program: a sole capable server is retried even if it failed
                reduced = [c for c in found if c.server_id != excluded_server]
                found = reduced or found
            if not found:
                unserved.extend((tid, program_id) for tid in waiters[program_id])
                self._program_retries.append(
                    _WorkItem(program_id, tuple(waiters[program_id]))
                )
                self.unserved_events += 1
                continue
            consumer = self._tasks[waiters[program_id][0]].consumer
            decision = select_server(
                programs[program_id], found, nodes, link, state, consumer=consumer
            )
            dispatch = Dispatch(
                tick_index=tick,
                program=programs[program_id],
                server_id=decision.chosen_server,
                consumer=consumer,
                decision=decision,
                waiters=tuple(waiters[program_id]),
                issued_at=t_i,
                local=decision.chosen_server == platform.node_id,
            )
            dispatches.append(dispatch)
            if not dispatch.local:
                self.outstanding[dispatch.key] = dispatch
                self.requests_issued += 1

        # One bundled request per distinct target server, low index first.
        by_server: dict[int, list[Dispatch]] = {}
        for d in dispatches:
            if not d.local:
                by_server.setdefault(d.server_id, []).append(d)
        requests = [
            UpdateRequest(
                tick_index=tick,
                issued_at=t_i,
                t_pos=self.timeline.t_pos,
                programs=tuple(
                    RequestItem(d.program.program_id, server_id, d.program.input_payload)
                    for d in group
                ),
            )
            for server_id, group in sorted(by_server.items())
        ]
        self.request_messages += len(requests)
        return TickOutcome(
            tick_index=tick,
            t=t_i,
            requests=requests,
            dispatches=dispatches,
            unserved=unserved,
            served_tasks=served_tasks,
        )

    def _match_whole_task(
        self,
        task: Task,
        tables: Sequence[ProgramTableEntry],
        platform: NodeProfile,
        unserved: list[tuple[str, str]],
    ) -> list[_WorkItem]:
        # A task with any unservable program is deferred whole to next tick.
        try:
            match_programs(task, tables, platform)
        except NoCapableServer as exc:
            unserved.append((task.task_id, exc.program_id))
            self._task_retries.append(task.task_id)
            self.unserved_events += 1
            return []
        return [
            _WorkItem(program_id, (task.task_id,))
            for program_id in task.required_programs
            if program_id in self._remaining.get(task.task_id, set())
        ]

    # -------------------------------------------------------------- responses

    def on_response(self, resp: UpdateResponse) -> tuple[Dispatch, list[str]]:
        """Resolve one outstanding entry; returns its dispatch and any tasks
        completed by this result."""
        key = (resp.tick_index, resp.server_id, resp.program_id)
        dispatch = self.outstanding.pop(key, None)
        if dispatch is None:
            raise UnknownResponse(key)
        self.responses_received += 1
        if resp.server_location is not None:
            self.server_locations[resp.server_id] = resp.server_location
        self.results.append(resp)
        return dispatch, self._mark_result(dispatch, resp.completed_at)

    def note_local_result(self, dispatch: Dispatch, t: float) -> list[str]:
        """Credit a locally executed program (no wire entry to resolve)."""
        return self._mark_result(dispatch, t)

    def _mark_result(self, dispatch: Dispatch, t: float) -> list[str]:
        self.completed_programs.add(dispatch.program.program_id)
        newly_done = []
        for task_id in dispatch.waiters:
            remaining = self._remaining.get(task_id)
            if remaining is None or task_id in self.completed_tasks:
                continue
            remaining.discard(dispatch.program.program_id)
            if not remaining:
                self.completed_tasks[task_id] = t
                newly_done.append(task_id)
        return newly_done

    # --------------------------------------------------------------- timeouts

    def on_timeout(self, tick_index: int, t: float) -> list[Dispatch]:
        """Expire every still-outstanding entry of the given tick.

        Their programs re-enter the next tick's matching with the failed
        server excluded once.
        """
        expired = [k for k in self.outstanding if k[0] == tick_index]
        timed_out = []
        for key in expired:
            dispatch = self.outstanding.pop(key)
            self.timeouts += 1
            timed_out.append(dispatch)
            program_id = dispatch.program.program_id
            self._program_retries.append(
                _WorkItem(program_id, dispatch.waiters, dispatch.server_id)
            )
        return timed_out

    def flush_outstanding(self, t: float) -> list[Dispatch]:
        """End-of-run resolution: every open entry counts as a timeout so the
        request/response/timeout conservation holds on truncated runs."""
        flushed = list(self.outstanding.values())
        self.timeouts += len(flushed)
        self.outstanding.clear()
        return flushed

    # ------------------------------------------------------------ advancement

    def _predicate_holds(self, predicate: PhasePredicate | None, t: float) -> bool:
        if predicate is None or predicate.kind == "never":
            return False
        if predicate.kind == "always":
            return True
        if predicate.kind == "elapsed":
            return t >= float(predicate.value)
        if predicate.kind == "program_result":
            return predicate.value in self.completed_programs
        if predicate.kind == "task_completed":
            return predicate.value in self.completed_tasks
        raise ValueError(f"unknown predicate kind: {predicate.kind!r}")

    def try_advance(self, t: float) -> int:
        """Advance the timeline as far as completed phases allow.

        Gated: nothing moves while the current tick still has outstanding
        entries. Returns the number of phases advanced (0 is normal).
        """
        if any(key[0] == self.current_tick for key in self.outstanding):
            return 0
        timeline = self.timeline
        moved = 0
        while (
            timeline.t_pos < len(timeline.phases) - 1
            and self._predicate_holds(timeline.current_phase.completes_when, t)
        ):
            old = timeline.t_pos
            timeline.advance_to(old + 1)
            self.phase_log.append((t, old, timeline.t_pos))
            moved += 1
        # the platform is now fully aware of the situation as of t
        self.last_aware_at = t
        return moved
