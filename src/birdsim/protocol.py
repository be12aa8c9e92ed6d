"""Periodic update loop between the aerial platform and its servers.

Every update interval the platform bundles the programs of due tasks into one
request per chosen server. The timeline position may only advance once the
current interval's requests have all been answered or timed out. The protocol
state owns the timeline position and the run's one ledger: an outcome per
task and per (task, program). on_tick marks each due task served; a waiter
takes its chain and first tick when it joins a dispatch; note_result (a wire
result comes through on_response) credits each waiter and completes a task
once every program of it has a breakdown; settle, once the run is over, sets
each waiter's attempts and server by the chain rule below.

Exactly one tick is open at a time: the Timeout for tick k is pushed before
Tick k+1 at the same time, so it always runs first and resolves every entry
still outstanding, and on_tick refuses to open a tick over an open one. A
retry is therefore the timed-out dispatch itself, at most one per program:
on_timeout hands the open entries over whole, and the very next tick re-aims
each in place, its failed server excluded once, its waiters ahead of any
fresh ones. So each (task, program) belongs to exactly one chain, the
dispatch it joins, from then until delivery or the end of the run, and the
chain carries all of its waiters. A waiter's attempts are the chain's last
tick minus the waiter's first tick plus one, and its server is the chain's
last server: the chain rule that settle applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .channel import Band, Direction, FlightState, LinkModel
from .model import PLATFORM, NodeProfile, Phase, PhasePredicate, ProgramSpec, Task
from .pipeline import LatencyBreakdown, UnknownNode, hop_direction
from .policy import (
    NoCapableServer,
    ProgramTableEntry,
    candidates_for,
    match_programs,
    select_server,
)


class UnknownResponse(KeyError):
    """A response arrived for no outstanding entry: a harness bug."""


# (t_enc, t_dec, t_proc, input hop, output hop), a hop None where it moves nothing
Route = tuple[float, float, float, Direction | None, Direction | None]


@dataclass(slots=True)
class ProgramOutcome:
    """One (task, program); breakdown and delivered_at are set together, on
    delivery, so the program completed iff breakdown is not None. chain and
    first_tick are set when it joins a chain (module docstring)."""

    program_id: str
    attempts: int = 0
    server: int | None = None
    breakdown: LatencyBreakdown | None = None
    delivered_at: float | None = None
    task_outcome: TaskOutcome | None = field(default=None, repr=False, compare=False)
    chain: Dispatch | None = field(default=None, repr=False, compare=False)
    first_tick: int = field(default=-1, repr=False, compare=False)


@dataclass(slots=True)
class TaskOutcome:
    task: Task
    first_served_at: float | None = None
    completed_at: float | None = None
    programs: list[ProgramOutcome] = field(default_factory=list)


def _join(waiters: list[ProgramOutcome], chain: Dispatch, tick: int) -> tuple[ProgramOutcome, ...]:
    """Put waiters new to a chain on it from tick on."""
    for prog in waiters:
        prog.chain, prog.first_tick = chain, tick
    return tuple(waiters)


@dataclass(slots=True)
class Dispatch:
    """One program execution decided at a tick, wire or local, and the chain
    of its waiters (module docstring). The next tick re-aims a timed-out one
    in place, so it describes its tick only until its Timeout: a caller that
    keeps one across ticks copies what it needs first."""

    program: ProgramSpec
    consumer: int
    waiters: tuple[ProgramOutcome, ...] = ()  # credited when the result lands
    tick_index: int = field(init=False)
    server_id: int = field(init=False)
    local: bool = field(init=False)
    route: Route = field(init=False)  # as the offload choice priced it
    key: str = field(init=False)  # tick:server:program, as the trace prints it

    def aim(self, tick: int, server: int, route: Route) -> None:
        """Point the execution at server for tick, fresh or re-aimed."""
        self.tick_index, self.server_id, self.route = tick, server, route
        self.local = server == PLATFORM
        self.key = f"{tick}:{server}:{self.program.program_id}"


@dataclass(slots=True)
class TickOutcome:
    dispatches: tuple[Dispatch, ...]
    unserved: tuple[str, ...]  # task:program of each deferred pair
    messages: int  # bundled requests: distinct wire servers this tick


class Offloads:
    """Which node runs a program, decided once per key for one fleet.

    The server tables, fleet, programs and variance-free link are fixed;
    state_at(t) gives the flight state at t, which an offload choice prices
    a link leg at, and band_at(t) its link band, which the update loop reads
    once for each tick that serves work. choices and the servability memo
    are the memos of choose and first_unservable: each value is a pure
    function of its key and of the tables, fleet, programs and variance-free
    link, so one Offloads serves every update loop over those (a run
    plan's), and a loop that meets only keys an earlier one met makes no
    choice and matches no list.
    """

    def __init__(
        self,
        tables: Sequence[ProgramTableEntry],
        nodes: Mapping[int, NodeProfile],
        programs: Mapping[str, ProgramSpec],
        link: LinkModel,
        state_at: Callable[[float], FlightState],
        band_at: Callable[[float], Band],
    ):
        self.tables = tables
        self.nodes = nodes
        self.programs = programs
        self.link = link
        self.state_at = state_at
        self.band_at = band_at
        self.platform = nodes[PLATFORM]
        # chosen (server, route) per (program, excluded server, consumer, band)
        self.choices: dict[tuple[str, int | None, int, Band], tuple[int, Route]] = {}
        # first unservable program (None: all servable) per required_programs:
        # the tables are fixed, so each list is matched once
        self._unservable: dict[tuple[str, ...], str | None] = {}

    def choose(
        self, program_id: str, excluded_server: int | None, consumer: int,
        t: float, band: Band,
    ) -> tuple[int, Route]:
        """The argmin server for one dispatch at t and its route, computed
        once per key: the variance-free link reads the flight state only
        through its band, and the candidates depend only on the program and
        the exclusion. The band is band_at(t), read by the update loop; the
        FlightState is built, with state_at, only on a miss. The route holds
        the winner's predicted stage times, which depend on neither the band
        nor the exclusion, and its hop directions; a winner with no compute
        profile cannot be staged, and its refusal is not memoized, so every
        run sharing the memo raises it again."""
        key = (program_id, excluded_server, consumer, band)
        choice = self.choices.get(key)
        if choice is None:
            found = candidates_for(program_id, self.tables, self.platform)
            if excluded_server is not None:
                # exclusion lasts exactly one re-match, and never starves the
                # program: a sole capable server is retried even if it failed
                reduced = [c for c in found if c.server_id != excluded_server]
                found = reduced or found
            decision = select_server(
                self.programs[program_id], found, self.nodes, self.link,
                self.state_at(t), consumer=consumer,
            )
            server, predicted = decision.chosen_server, decision.predicted
            if server not in self.nodes:
                raise UnknownNode(server)
            choice = self.choices[key] = (server, (
                predicted.t_enc, predicted.t_dec, predicted.t_proc,
                None if server == PLATFORM else hop_direction(PLATFORM, server),
                None if consumer == server else hop_direction(server, consumer),
            ))
        return choice

    def first_unservable(self, task: Task) -> str | None:
        """The first program of task that no server can run, or None when
        every one has a capable server."""
        key = tuple(task.required_programs)
        try:
            return self._unservable[key]
        except KeyError:
            try:
                match_programs(task, self.tables, self.platform)
                missing = None
            except NoCapableServer as exc:
                missing = exc.program_id
            self._unservable[key] = missing
            return missing


class ProtocolState:
    """Mutable state of the update loop; driven by the engine's events.

    It owns the timeline position (t_pos, an index into phases, which only
    moves forward) and every task's outcome, by task id (outcomes). The
    phases and tasks are fixed for the whole run, and offloads decides
    which node runs each program and whether a task can be served at all.
    """

    def __init__(
        self,
        t_int: float,
        phases: Sequence[Phase],
        tasks: Sequence[Task],
        offloads: Offloads,
    ):
        if not t_int > 0:
            raise ValueError("t_int must be positive")
        if not phases:
            raise ValueError("a timeline needs at least one phase")
        self.t_int = float(t_int)
        self.phases = phases
        self.t_pos = 0
        self._last_pos = len(phases) - 1
        self.offloads = offloads
        self.current_tick = -1
        self.outstanding: dict[str, Dispatch] = {}
        # the last tick's timed-out entries, as on_timeout handed them over
        # (by entry key, in dispatch order): the next tick re-aims them
        self._retries: dict[str, Dispatch] = {}
        # task:program of every due task with an unservable program: the
        # tables are fixed, so such a task stays deferred for the whole run
        self._unserved: list[str] = []
        # what every idle tick returns: no dispatch, the deferred pairs, no
        # message; replaced only when a tick defers a new pair
        self._idle = TickOutcome((), (), 0)
        self.outcomes: dict[str, TaskOutcome] = {}
        for task in tasks:
            if task.task_id in self.outcomes:
                raise ValueError(f"task id {task.task_id!r} is repeated")
            outcome = self.outcomes[task.task_id] = TaskOutcome(task)
            outcome.programs = [
                ProgramOutcome(pid, task_outcome=outcome) for pid in task.required_programs
            ]
        self.completed_programs: set[str] = set()
        self.phase_log: list[tuple[float, int, int]] = []
        # conservation counters (entry granularity)
        self.requests_issued = 0
        self.request_messages = 0
        self.responses_received = 0
        self.timeouts = 0
        self.unserved_events = 0

    # ------------------------------------------------------------------ ticks

    def on_tick(self, t_i: float, due_tasks: Sequence[Task]) -> TickOutcome:
        """Serve due and retried work; returns every dispatch (wire and local)
        decided this tick and the number of bundled requests; each due task,
        deferred or not, is first served now.

        Every tick is checked against the interval grid and the open tick,
        advances current_tick and counts each deferred pair in
        unserved_events. An idle tick (no retry and no due task) stops
        there: it reads no band, dispatches nothing, sends no message and
        returns the one idle outcome, which changes only when a tick defers
        a new pair. Any other tick reads its link band once, with the
        offloads' band_at; a FlightState is built only when an offload
        choice is not yet memoized."""
        tick = self.current_tick + 1
        expected = tick * self.t_int
        if t_i != expected:
            raise ValueError(f"tick at t={t_i}, expected t={expected}")
        if self.outstanding:
            raise ValueError(
                f"tick {tick} opened with {len(self.outstanding)} entries of "
                f"tick {self.current_tick} outstanding"
            )
        self.current_tick = tick
        if not (due_tasks or self._retries):
            self.unserved_events += len(self._unserved)
            return self._idle

        # Retried programs come first (they are older), in timeout order, then
        # the programs of freshly due tasks in order of first appearance.
        # Tasks sharing a program share one dispatch, since entries are keyed
        # (tick, server, program): fresh maps a program to its first fresh
        # waiter's consumer and its waiters new to the chain; a retried
        # program keeps its retry's consumer.
        offloads = self.offloads
        band = offloads.band_at(t_i)
        retries, self._retries = self._retries, {}
        deferred = len(self._unserved)
        fresh: dict[str, tuple[int, list[ProgramOutcome]]] = {}
        for task in due_tasks:
            outcome = self.outcomes[task.task_id]
            outcome.first_served_at = t_i
            missing = offloads.first_unservable(task)
            if missing is not None:
                # a task with any unservable program is deferred whole
                self._unserved.append(f"{task.task_id}:{missing}")
                continue
            for prog in outcome.programs:
                joining = fresh.get(prog.program_id)
                if joining is None:
                    fresh[prog.program_id] = (task.consumer, [prog])
                else:
                    joining[1].append(prog)
        if len(self._unserved) != deferred:
            self._idle = TickOutcome((), tuple(self._unserved), 0)
        unserved = self._idle.unserved
        self.unserved_events += len(unserved)

        # Every program here passed the whole-task match (or was dispatched
        # before, against the same tables), so it has a capable server. A
        # retry is re-aimed in place at this tick, its failed server
        # excluded; it keeps its waiters, ahead of any that join it now.
        dispatches: list[Dispatch] = []
        for retry in retries.values():
            program_id = retry.program.program_id
            server, route = offloads.choose(program_id, retry.server_id, retry.consumer, t_i, band)
            retry.aim(tick, server, route)
            joining = fresh.pop(program_id, None) if fresh else None
            if joining is not None:
                retry.waiters += _join(joining[1], retry, tick)
            dispatches.append(retry)
        for program_id, (consumer, waiters) in fresh.items():
            server, route = offloads.choose(program_id, None, consumer, t_i, band)
            dispatch = Dispatch(offloads.programs[program_id], consumer)
            dispatch.aim(tick, server, route)
            dispatch.waiters = _join(waiters, dispatch, tick)
            dispatches.append(dispatch)

        # Each wire dispatch opens its entry; one bundled request goes to each
        # distinct wire server.
        servers: set[int] = set()
        for dispatch in dispatches:
            if not dispatch.local:
                self.outstanding[dispatch.key] = dispatch
                servers.add(dispatch.server_id)
        self.requests_issued += len(self.outstanding)
        self.request_messages += len(servers)
        return TickOutcome(tuple(dispatches), unserved, len(servers))

    # -------------------------------------------------------------- responses

    def on_response(self, key: str, t: float, breakdown: LatencyBreakdown) -> None:
        """Resolve one outstanding entry answered at t and credit its result."""
        dispatch = self.outstanding.pop(key, None)
        if dispatch is None:
            raise UnknownResponse(key)
        self.responses_received += 1
        self.note_result(dispatch, t, breakdown)

    def note_result(self, dispatch: Dispatch, t: float, breakdown: LatencyBreakdown) -> None:
        """Credit a result delivered at t to each waiter, in one walk: a
        task completes at t once every program of it has a breakdown. A wire
        result comes through on_response, which first resolves its entry."""
        self.completed_programs.add(dispatch.program.program_id)
        for prog in dispatch.waiters:
            prog.breakdown, prog.delivered_at = breakdown, t
            outcome = prog.task_outcome
            if all(p.breakdown is not None for p in outcome.programs):
                outcome.completed_at = t

    # --------------------------------------------------------------- timeouts

    def on_timeout(self) -> dict[str, Dispatch]:
        """Expire every still-outstanding entry, all of the one open tick, and
        hand them over whole, by entry key in dispatch order, as the next
        tick's retries; a fresh mapping takes their place. At the end of the
        run this resolves every open entry as a timeout, so the
        request/response/timeout conservation holds on truncated runs.
        """
        timed_out = self._retries = self.outstanding
        self.outstanding = {}
        self.timeouts += len(timed_out)
        return timed_out

    # ------------------------------------------------------------- settlement

    def settle(self) -> None:
        """Set each chained waiter's attempts and server from its chain
        (module docstring), delivered or not; called once the run's last
        on_timeout has resolved every entry."""
        for outcome in self.outcomes.values():
            for prog in outcome.programs:
                chain = prog.chain
                if chain is not None:
                    prog.attempts = chain.tick_index - prog.first_tick + 1
                    prog.server = chain.server_id

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
            outcome = self.outcomes.get(predicate.value)
            return outcome is not None and outcome.completed_at is not None
        raise ValueError(f"unknown predicate kind: {predicate.kind!r}")

    def try_advance(self, t: float) -> None:
        """Advance the timeline as far as completed phases allow, logging
        each step in phase_log.

        Gated: nothing moves while the open tick still has outstanding
        entries. The last phase is never left, so once the timeline reaches
        it every call returns at once, before the gate.
        """
        if self.t_pos == self._last_pos or self.outstanding:
            return
        while (
            self.t_pos < self._last_pos
            and self._predicate_holds(self.phases[self.t_pos].completes_when, t)
        ):
            self.t_pos += 1
            self.phase_log.append((t, self.t_pos - 1, self.t_pos))
