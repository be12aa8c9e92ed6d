"""Deterministic discrete-event kernel driving the update loop.

Events are totally ordered by (time, insertion sequence) and carry their
handler; all randomness is keyed off the run seed, so a fixed (scenario, seed)
pair replays to the byte.
The engine stages each dispatched execution with the stage times its
offload choice predicted, samples each link leg when it starts (each sample
carries its band), feeds deliveries and timeouts to the protocol state,
which owns the timeline position and every outcome, records the critical
moments, and emits a replay-complete line trace plus a metrics record.

Every event in the heap is live: it is handled and, on a traced run, writes
one record. A wire execution counts only while its entry is outstanding. Its
deadline is the next tick, where the Timeout that ends the entry is pushed
after the tick's input arrivals and before anything they schedule. So each
staged event is checked when it is scheduled: an input arrival that lands
after the deadline is doomed, and so is a compute completion or output
arrival that lands at or after it. A doomed event takes its seq, as if it
had been pushed and then dropped, but never enters the heap, so seqs have
gaps. A doomed input arrival still takes its execution's inst id and its
leg sample (keyed draw and samples.csv row), so inst ids have gaps too, but
builds no _Instance: nothing would read it. (A Timeout past the run window
is never pushed, and the flush ends its entries; every event that is not
dropped with it lands before that deadline.) So no event reads a wire
dispatch after its Timeout, and its retry may re-aim it in place.

An idle tick, with no due task and no retry, is a counter and a record: the
protocol checks its time and that no entry is open, advances current_tick,
counts the deferred pairs and returns its one idle outcome, reading no band;
the engine pushes the next Tick, checks the advancement gate (which returns
at once when the timeline is in its last phase) and writes the Tick record
with its `unserved=` list.

A run's seed-free constants are its RunPlan, built by plan(scenario) before
any event: the band reader, the program index, the incident's moments, and
the protocol's Offloads over the scenario's tables, fleet and programs and
the variance-free link, which memoizes each offload choice with its route
and the servability of each list of required programs. Each is a pure
function of the scenario fields the plan reads (_PLAN_FIELDS), none of them
the seed, the update interval or the link variance, so every run given the
same plan shares them: a sweep passes one plan to each run whose scenario it
fits. run builds a fresh plan when it is given none, and refuses, before any
event, a plan built from another object for any field it reads.

Every tick that serves work and every link leg reads its link band from
band_reader, built from the flight plan with the run's plan, before any
event. It keeps the waypoint times and one entry per stretch between them:
a band where the band cannot change (before the first waypoint, after the
last, on a rotating or a flat segment), and the start, span and rise of any
other segment, whose band at t comes from the altitude that flight_state_at
computes there, by _altitude's expression. So the band at every float t is
band_for of flight_state_at at t. A plan with a waypoint outside the
measured envelope is refused there with band_for's OutOfMeasuredRange;
between two waypoints inside it the interpolated altitude stays inside, so
every instant has a band. The protocol reads a tick's band through its
Offloads, which hold the plan's reader, and builds a FlightState only for an
offload choice it has not memoized; the engine reads a leg's band and
samples the leg by it.

A finished execution is delivered in one step, `_Sim._deliver`, from a
compute completion (the result is consumed where it is computed) or an
output arrival: it is credited, its record is written, then the advancement
gate is checked. The protocol credits each (task, program) outcome it waits
for, and settles attempts and server from each outcome's chain, the dispatch
it joined as its last retry left it, when _metrics asks.

A run made with `trace=False` (each replicate of a sweep) returns an empty
trace. It formats no record unless `birdsim.engine` logs at DEBUG
(`BIRDSIM_LOG=trace`), which logs each one, and it handles every event, seq,
push and keyed draw exactly as a traced run does, so its metrics are
byte-equal.

Work bounds, per run (tests/test_engine.py holds each on small rungs):
- requests <= ticks x programs: one dispatch per program per tick;
- outcomes with a chain = the sum of len(required_programs) over the
  servable due tasks: a waiter joins one chain, however often it is re-aimed;
- keyed draws <= 2 x staged + the wire dispatches to lossy servers;
- records <= tasks + waypoints + 2 x ticks + 3 x staged + 2;
- heap pushes = records - 1 on a traced run: every pushed event writes one
  record, and the Flush writes the last;
- band reads = the ticks with a due task or a retry + the link samples: an
  idle tick reads none;
- flight_state_at calls = select_server calls: one per offload choice that
  is not memoized;
- e2e_latency calls = the candidates that select_server calls price: the
  engine never prices a route, and every server of a loaded scenario has a
  compute profile (one without is priced by its advertised latency).
Per plan, over all the runs that share it (a run given no plan has its
own); the band reader is the plan's, and the two memos behind the last two
bounds are its Offloads':
- band_reader calls = 1;
- match_programs calls = the distinct required_programs lists matched;
- select_server calls <= programs x (servers + 1) x consumers x 3 bands, and
  a run whose every offload choice an earlier run on its plan made makes
  none.
"""

from __future__ import annotations

import heapq
import json
import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Sequence
from urllib.parse import quote

from .channel import (
    BAND_SPLIT_M,
    Band,
    Direction,
    FlightState,
    LinkModel,
    LinkSample,
    band_for,
    keyed_uniform,
    transfer_seconds,
)
from .model import (
    OBJECT_DETECTION,
    PLATFORM,
    VR_STITCHING,
    CriticalMoments,
    NodeKind,
    Origin,
    Task,
    record_moment,
)
from .pipeline import LatencyBreakdown
from .protocol import Dispatch, Offloads, ProtocolState, TaskOutcome
from .scenario import Scenario, Waypoint

log = logging.getLogger("birdsim.engine")

# Result kinds that count as "the agency can now see the scene": sensing
# streams, not planning outputs.
_MONITORING_KINDS = (OBJECT_DETECTION, VR_STITCHING)


class RunAborted(RuntimeError):
    """A module error surfaced mid-run; carries the trace up to the abort."""

    def __init__(self, message: str, trace: list[str]):
        super().__init__(message)
        self.trace = trace


# An event handler is called with the event's (t, seq) and its payload.
_Handler = Callable[[float, int, Any], None]


@dataclass(slots=True)
class _Instance:
    """One staged program execution (a dispatch in flight). Its stage times
    and the hop of its output are its dispatch's route; t_comm grows by each
    link leg as it is sampled. A wire execution carries its entry's
    deadline, a local one an infinite one."""

    inst_id: int
    dispatch: Dispatch
    t_comm: float
    deadline: float


class OutcomeStats(NamedTuple):
    tasks_completed: int
    mean_t_e2e: float | None  # None when no program completed
    mean_t_comm: float | None


@dataclass
class MetricsRecord:
    """Everything a run reports besides the event trace."""

    scenario_name: str
    seed: int
    duration: float
    t_int: float
    tasks: list[TaskOutcome]
    moments: CriticalMoments
    counts: dict[str, int]
    samples: list[LinkSample]
    phase_log: list[tuple[float, int, int]]
    final_t_pos: int

    def tasks_completed(self) -> int:
        return sum(1 for t in self.tasks if t.completed_at is not None)

    def outcome_stats(self) -> OutcomeStats:
        """The tasks completed and the mean t_e2e and t_comm over the
        completed programs, in one pass over the tasks."""
        tasks_completed = 0
        e2e: list[float] = []
        comm: list[float] = []
        for task in self.tasks:
            if task.completed_at is not None:
                tasks_completed += 1
            for prog in task.programs:
                b = prog.breakdown
                if b is not None:
                    e2e.append(b.t_e2e)
                    comm.append(b.t_comm)
        return OutcomeStats(
            tasks_completed,
            sum(e2e) / len(e2e) if e2e else None,
            sum(comm) / len(comm) if comm else None,
        )


@dataclass
class RunResult:
    metrics: MetricsRecord
    trace: list[str]


_waypoint_t = attrgetter("t")

# The leading fields of the records an execution's compute completion and
# output arrival write, formatted with its inst id, entry key and local flag
_COMPUTE_COMPLETE = "inst={} entry={} local={:d}"
_OUTPUT_ARRIVAL = "inst={} leg=output entry={}"


def flight_state_at(scenario: Scenario, t: float) -> FlightState:
    """Flight condition at mission time t.

    Altitude interpolates linearly between waypoints; the rotation flag is a
    step function holding each waypoint's value until the next. Before the
    first waypoint the first posture holds, after the last the last one does.
    """
    plan = scenario.flight_plan
    if t <= plan[0].t:
        wp = plan[0]
        return FlightState(t, wp.altitude, wp.rotating)
    i = bisect_right(plan, t, key=_waypoint_t)  # plan[i - 1].t <= t < plan[i].t
    if i == len(plan):
        wp = plan[-1]
        return FlightState(t, wp.altitude, wp.rotating)
    a, b = plan[i - 1], plan[i]
    return FlightState(t, _altitude(a, b, t), a.rotating)


def _altitude(a: Waypoint, b: Waypoint, t: float) -> float:
    """The altitude at t on the segment from waypoint a to b (a.t <= t < b.t)."""
    return a.altitude + (t - a.t) / (b.t - a.t) * (b.altitude - a.altitude)


def band_reader(plan: Sequence[Waypoint]) -> Callable[[float], Band]:
    """The link band at any mission time over a flight plan, as a function
    of t (module docstring). Each waypoint goes through band_for before its
    segment is stored, so a plan outside the measured envelope raises
    OutOfMeasuredRange. Raises ValueError for a plan whose times do not
    strictly increase or are not finite (load_scenario rejects both).
    """
    times = [wp.t for wp in plan]
    band = band_for(plan[0].altitude, plan[0].rotating)
    # segments[i] holds from times[i - 1] to times[i]: a band, or the
    # (a.t, a.altitude, span, rise) of a sloped segment that is not rotating
    segments: list[Band | tuple[float, float, float, float]] = [band]
    for a, b in zip(plan, plan[1:]):
        span, rise = b.t - a.t, b.altitude - a.altitude
        if not 0.0 < span < math.inf:
            raise ValueError(
                f"flight plan: waypoints at t={a.t!r} and t={b.t!r} are not "
                "strictly increasing and finite"
            )
        segments.append((a.t, a.altitude, span, rise) if rise and not a.rotating else band)
        band = band_for(b.altitude, b.rotating)
    segments.append(band)
    low, high = Band.LOW_ALTITUDE, Band.HIGH_ALTITUDE

    def band_at(t: float) -> Band:
        segment = segments[bisect_right(times, t)]
        if isinstance(segment, Band):
            return segment
        a_t, a_altitude, span, rise = segment
        # _altitude's expression, so the band is band_for of flight_state_at
        return low if a_altitude + (t - a_t) / span * rise < BAND_SPLIT_M else high

    return band_at


# The scenario fields a RunPlan reads: it fits a scenario whose fields these
# are the very objects it was built from.
_PLAN_FIELDS = (
    "flight_plan", "programs", "tables", "nodes", "bands", "floor_mbps",
    "one_way_fraction", "incident",
)


@dataclass(frozen=True, slots=True)
class RunPlan:
    """The seed-free constants of the runs of one scenario (module
    docstring). Its offloads fill their memos as the runs that share the
    plan make offload choices and match lists of required programs."""

    reads: tuple[Any, ...]  # the objects of _PLAN_FIELDS it was built from
    band_at: Callable[[float], Band]  # the link band of every instant; offloads reads it too
    prog_index: dict[str, int]  # a program's index, a loss draw's counter
    moments: CriticalMoments  # the incident's, before any event
    offloads: Offloads  # which node runs each program, shared by the runs

    def misfit(self, scenario: Scenario) -> str | None:
        """The first field the plan reads that is not, in scenario, the
        object the plan was built from; None when the plan fits."""
        for name, built_from in zip(_PLAN_FIELDS, self.reads):
            if getattr(scenario, name) is not built_from:
                return name
        return None


def plan(scenario: Scenario) -> RunPlan:
    """The run plan of scenario; raises what a run of it would raise while
    it sets up: the incident's moments out of order, a flight plan outside
    the measured envelope (band_reader), or a fleet without the platform
    (KeyError)."""
    moments = CriticalMoments()
    for which, value in (
        ("start", scenario.incident.start),
        ("observed", scenario.incident.observed),
        ("reported", scenario.incident.reported),
    ):
        if value is not None:
            moments = record_moment(moments, which, value)
    band_at = band_reader(scenario.flight_plan)
    return RunPlan(
        reads=tuple([getattr(scenario, name) for name in _PLAN_FIELDS]),
        band_at=band_at,
        prog_index={pid: i for i, pid in enumerate(scenario.programs)},
        moments=moments,
        # offload choices are priced on the variance-free link; the flight
        # state is looked up by its module-global name at each call
        offloads=Offloads(
            scenario.tables, scenario.nodes, scenario.programs,
            LinkModel(
                bands=scenario.bands,
                floor_mbps=scenario.floor_mbps,
                variance_scale=0.0,
                one_way_fraction=scenario.one_way_fraction,
            ),
            lambda t: flight_state_at(scenario, t),
            band_at,
        ),
    )


class _Sim:
    def __init__(self, scenario: Scenario, seed: int, trace: bool, run_plan: RunPlan | None):
        self.sc = scenario
        self.seed = seed
        self.link = LinkModel(
            bands=scenario.bands,
            noise_seed=seed,
            floor_mbps=scenario.floor_mbps,
            variance_scale=scenario.variance_scale,
            one_way_fraction=scenario.one_way_fraction,
        )
        if run_plan is None:
            run_plan = plan(scenario)
        else:
            misfit = run_plan.misfit(scenario)
            if misfit is not None:
                raise ValueError(
                    f"plan does not fit the scenario: its {misfit} is not the "
                    "object the plan was built from"
                )
        self.moments = run_plan.moments
        self.band_at = run_plan.band_at
        self.prog_index = run_plan.prog_index
        self.protocol = ProtocolState(
            scenario.t_int, scenario.phases, scenario.tasks, run_plan.offloads
        )
        battery = scenario.nodes[PLATFORM].battery_budget
        self.end = min(scenario.duration, battery if battery is not None else math.inf)
        # (t, seq) is unique, so heap order never compares two handlers
        self.heap: list[tuple[float, int, _Handler, Any]] = []
        self.seq = 0
        self.debug = log.isEnabledFor(logging.DEBUG)
        # every record is formatted into self.trace only if it is kept or logged
        self.keep = trace
        self.records = trace or self.debug
        self.trace: list[str] = []
        self.last_t = 0.0
        self.staged = 0  # program executions staged, numbered from 0
        self.delivered = 0
        self.samples: list[LinkSample] = []
        # (scenario index, task) of each task issued since the last Tick
        self.issued: list[tuple[int, Task]] = []
        # the deadline of the open tick's wire dispatches (module docstring)
        self.deadline = math.inf

    # ------------------------------------------------------------- scheduling

    def _push(
        self, t: float, handler: _Handler, payload: Any = None, live: bool = True
    ) -> None:
        # An event beyond the run window never runs and takes no seq: staged
        # work dropped here is never delivered, so the flush counts it
        # cancelled. A doomed event (not live) takes its seq but is never
        # pushed (module docstring).
        if t > self.end:
            return
        if live:
            heapq.heappush(self.heap, (t, self.seq, handler, payload))
        self.seq += 1

    def _schedule_initial(self) -> None:
        # Every TaskIssued is pushed before the tick-0 Tick, so at equal
        # times it runs first: a Tick finds every task issued at or before
        # its time in self.issued.
        for index, task in enumerate(self.sc.tasks):
            self._push(task.issue_time, self._on_task_issued, (index, task))
        for wp in self.sc.flight_plan:
            self._push(wp.t, self._on_flight_waypoint, wp)
        if self.sc.truck_arrival is not None:
            self._push(self.sc.truck_arrival, self._on_truck_arrival)
        self._push(0.0, self._on_tick, 0)

    # ------------------------------------------------------------------ trace

    def _emit(self, t: float, seq: int, kind: str, tail: str) -> None:
        """Append one trace record; tail holds its fields after `tpos=`.
        Called only when self.records is set."""
        line = f"t={t!r} seq={seq} kind={kind} tpos={self.protocol.t_pos} {tail}"
        self.trace.append(line)
        if self.debug:
            log.debug(line)

    # -------------------------------------------------------------- main loop

    def run(self) -> RunResult:
        seq = self.seq  # of the event being handled, for the Abort record
        try:
            self._schedule_initial()
            while self.heap:
                t, seq, handler, payload = heapq.heappop(self.heap)
                if t < self.last_t:
                    raise RuntimeError("event executed out of causal order")
                self.last_t = t
                handler(t, seq, payload)
            seq = self.seq
            self._flush()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            trace = self.trace if self.keep else []
            trace.append(
                f"t={self.last_t!r} seq={seq} kind=Abort "
                f"tpos={self.protocol.t_pos} error={quote(error, safe='')}"
            )
            raise RunAborted(error, list(trace)) from exc
        return RunResult(metrics=self._metrics(), trace=self.trace if self.keep else [])

    def _on_task_issued(self, t: float, seq: int, issued: tuple[int, Task]) -> None:
        self.issued.append(issued)
        if self.records:
            self._emit(t, seq, "TaskIssued", f"task={issued[1].task_id}")

    def _on_flight_waypoint(self, t: float, seq: int, wp: Waypoint) -> None:
        if self.records:
            self._emit(
                t, seq, "FlightWaypoint",
                f"altitude={wp.altitude!r} rotating={int(wp.rotating)}",
            )

    def _on_truck_arrival(self, t: float, seq: int, _: None) -> None:
        self.moments = record_moment(self.moments, "physical_awareness", t)
        if self.records:
            self._emit(t, seq, "TruckArrival", "moment=physical_awareness")

    # ------------------------------------------------------------------ ticks

    def _on_tick(self, t: float, seq: int, tick: int) -> None:
        # tasks due in the same tick are served in scenario order
        due: Sequence[Task] = ()
        if self.issued:
            due = [task for _, task in sorted(self.issued)]
            self.issued.clear()
        outcome = self.protocol.on_tick(t, due)
        # The next tick is also the deadline of this tick's wire dispatches:
        # their Timeout is pushed there, before that Tick, so it runs first
        # (protocol module docstring)
        next_t = self.deadline = (tick + 1) * self.protocol.t_int
        if not (due or outcome.dispatches):
            # an idle tick opens no entry and stages nothing (module docstring)
            if next_t < self.end:
                self._push(next_t, self._on_tick, tick + 1)
            self.protocol.try_advance(t)
            if self.records:
                self._emit(
                    t, seq, "Tick",
                    f"tick={tick} due= entries= locals= "
                    f"unserved={';'.join(outcome.unserved)} msgs=0",
                )
            return
        for dispatch in outcome.dispatches:
            if not dispatch.local:
                # u is in [0, 1), so only a positive loss can lose a dispatch
                loss = self.sc.loss.get(dispatch.server_id, 0.0)
                if loss > 0.0 and keyed_uniform(
                    self.seed,
                    dispatch.tick_index,
                    dispatch.server_id,
                    self.prog_index[dispatch.program.program_id],
                ) < loss:
                    continue  # never staged: its entry times out
            self._stage(dispatch, t)
        # outstanding now holds this tick's wire dispatches, lost ones too, in
        # dispatch order
        entries = self.protocol.outstanding
        if entries:
            self._push(next_t, self._on_timeout, tick)
        if next_t < self.end:
            self._push(next_t, self._on_tick, tick + 1)
        self.protocol.try_advance(t)
        if self.records:
            local_runs = [
                f"{d.program.program_id}@{d.consumer}" for d in outcome.dispatches if d.local
            ]
            self._emit(
                t, seq, "Tick",
                f"tick={tick} due={','.join([task.task_id for task in due])} "
                f"entries={';'.join(entries)} locals={';'.join(local_runs)} "
                f"unserved={';'.join(outcome.unserved)} msgs={outcome.messages}",
            )

    # ---------------------------------------------------------------- staging

    def _sample_leg(self, t: float, payload: float, direction: Direction) -> float:
        """Sample one link leg starting at t, in the band band_reader gives
        there, as pipeline.leg_sample prices a hop, and return its transfer
        seconds."""
        sample = self.link.sample(t, self.band_at(t), direction)
        self.samples.append(sample)
        return transfer_seconds(payload, sample)

    def _stage(self, dispatch: Dispatch, t: float) -> None:
        """Stage one execution dispatched at t with the stage times its
        offload choice predicted (dispatch.route): local work runs them back
        to back on the platform; wire work is encoded, then its input is sent
        to the executor. A doomed input arrival takes its inst id, its leg
        sample and its seq like any other, but builds no _Instance and never
        enters the heap."""
        t_enc, t_dec, t_proc, input_hop, _ = dispatch.route
        inst_id = self.staged
        self.staged += 1
        if input_hop is None:
            inst = _Instance(inst_id, dispatch, 0.0, math.inf)
            self._push(t + (t_enc + t_dec + t_proc), self._on_compute_complete, inst)
            return
        t_start = t + t_enc
        leg = self._sample_leg(t_start, dispatch.program.input_payload, input_hop)
        t_in = t_start + leg
        # an input landing on its deadline was pushed before the Timeout
        deadline = self.deadline
        if t_in <= deadline:
            inst = _Instance(inst_id, dispatch, leg, deadline)
            self._push(t_in, self._on_input_arrival, inst)
        else:
            self._push(t_in, self._on_input_arrival, None, False)

    # --------------------------------------------------------------- handlers

    def _on_input_arrival(self, t: float, seq: int, inst: _Instance) -> None:
        route = inst.dispatch.route
        t_done = t + route[1] + route[2]  # + t_dec + t_proc
        self._push(t_done, self._on_compute_complete, inst, t_done < inst.deadline)
        if self.records:
            self._emit(
                t, seq, "TransferComplete",
                f"inst={inst.inst_id} leg=input entry={inst.dispatch.key}",
            )

    def _on_compute_complete(self, t: float, seq: int, inst: _Instance) -> None:
        dispatch = inst.dispatch
        output = dispatch.route[4]  # the output hop
        # a result consumed where it was computed is delivered now
        if output is None:
            self._deliver(t, seq, inst, "ComputeComplete", _COMPUTE_COMPLETE)
            return
        leg = self._sample_leg(t, dispatch.program.output_payload, output)
        inst.t_comm += leg
        t_out = t + leg
        self._push(t_out, self._on_output_arrival, inst, t_out < inst.deadline)
        if self.records:
            self._emit(
                t, seq, "ComputeComplete",
                _COMPUTE_COMPLETE.format(inst.inst_id, dispatch.key, dispatch.local),
            )

    def _on_output_arrival(self, t: float, seq: int, inst: _Instance) -> None:
        self._deliver(t, seq, inst, "TransferComplete", _OUTPUT_ARRIVAL)

    def _deliver(self, t: float, seq: int, inst: _Instance, kind: str, record: str) -> None:
        """Deliver a finished execution at t, in this order:
        1. credit it: the protocol resolves its entry (a wire one) and
           credits its waiters; make the virtual awareness moment if this is
           the first sensing result at an agency node since the report;
        2. write the record of the event (t, seq): kind, then record
           formatted with the inst id, entry key and local flag, then
           `resolved=` (a wire one), `delivered=` and `moment=`;
        3. check the advancement gate. So the record's tpos is the position
           before any advance the delivery causes (docs/output-formats.md).
        """
        dispatch = inst.dispatch
        self.delivered += 1
        t_enc, t_dec, t_proc, _, _ = dispatch.route
        breakdown = LatencyBreakdown(t_enc, inst.t_comm, t_dec, t_proc)
        if dispatch.local:
            self.protocol.note_result(dispatch, t, breakdown)
        else:
            self.protocol.on_response(dispatch.key, t, breakdown)
        consumer_kind = self.sc.nodes[dispatch.consumer].kind
        reported = self.moments.reported
        aware = (
            dispatch.program.task_kind in _MONITORING_KINDS
            and consumer_kind in (NodeKind.ECS, NodeKind.GCS)
            and self.moments.virtual_awareness is None
            # a result before the report makes no one aware of the incident
            and (reported is None or t >= reported)
        )
        if aware:
            self.moments = record_moment(self.moments, "virtual_awareness", t)
        if self.records:
            tail = record.format(inst.inst_id, dispatch.key, dispatch.local)
            if not dispatch.local:
                tail += f" resolved={dispatch.key}"
            tail += f" delivered={dispatch.consumer}"
            self._emit(t, seq, kind, tail + " moment=virtual_awareness" if aware else tail)
        self.protocol.try_advance(t)

    def _on_timeout(self, t: float, seq: int, tick: int) -> None:
        timed_out = self.protocol.on_timeout()
        if self.records:
            self._emit(
                t, seq, "Timeout",
                f"tick={tick} timed_out={';'.join(timed_out)} "
                f"count={len(timed_out)}",
            )
        self.protocol.try_advance(t)

    # ------------------------------------------------------------------ flush

    def _flush(self) -> None:
        t = self.end
        flushed = self.protocol.on_timeout()
        self.protocol.try_advance(t)
        self.moments = record_moment(self.moments, "termination", t)
        if self.records:
            self._emit(
                t, self.seq, "Flush",
                f"flushed={';'.join(flushed)} "
                f"cancelled={self.staged - self.delivered}",
            )

    # ---------------------------------------------------------------- metrics

    def _metrics(self) -> MetricsRecord:
        p = self.protocol
        p.settle()
        counts = {
            "requests": p.requests_issued,
            "request_messages": p.request_messages,
            "responses": p.responses_received,
            "timeouts": p.timeouts,
            "unserved_events": p.unserved_events,
            # a staged execution ends either delivered or cancelled (timed
            # out, cut by the horizon or flushed), never both
            "cancelled": self.staged - self.delivered,
        }
        return MetricsRecord(
            scenario_name=self.sc.name,
            seed=self.seed,
            duration=self.sc.duration,
            t_int=self.sc.t_int,
            tasks=[p.outcomes[t.task_id] for t in self.sc.tasks],
            moments=self.moments,
            counts=counts,
            samples=self.samples,
            phase_log=list(p.phase_log),
            final_t_pos=p.t_pos,
        )


def run(
    scenario: Scenario, seed: int | None = None, *, trace: bool = True,
    plan: RunPlan | None = None,
) -> RunResult:
    """Simulate one scenario; deterministic for a fixed (scenario, seed).
    With trace=False the result's trace is empty and its metrics are the
    same. A run given a plan of the scenario shares its constants with the
    plan's other runs, and its artifacts are those of a run given none
    (module docstring); a plan that does not fit raises ValueError."""
    effective_seed = scenario.seed if seed is None else seed
    if log.isEnabledFor(logging.INFO):
        log.info("run scenario=%s seed=%d", scenario.name, effective_seed)
    sim = _Sim(scenario, effective_seed, trace, plan)
    result = sim.run()
    if log.isEnabledFor(logging.INFO):
        # every event scheduled within the window takes the next seq and is
        # handled unless it is doomed (module docstring)
        log.info(
            "done scenario=%s events=%d tasks=%d/%d",
            scenario.name,
            sim.seq,
            result.metrics.tasks_completed(),
            len(result.metrics.tasks),
        )
    return result


# ------------------------------------------------------------- serialization


def csv_cell(text: str) -> str:
    """A text cell: quoted, its double quotes doubled, when it holds `,`,
    `"` or a newline (a carriage return alone is not quoted)."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


METRICS_COLUMNS = [
    "task_id", "program_id", "origin", "consumer", "issue_time_s",
    "first_served_s", "attempts", "server", "t_enc_s", "t_comm_s", "t_dec_s",
    "t_proc_s", "t_e2e_s", "delivered_s", "status", "task_completed_s",
]


def metrics_to_csv(metrics: MetricsRecord) -> str:
    """Per-(task, program) table; column order is fixed and documented.

    Repeated cells are formatted once. The waiters a delivery credits share
    its breakdown and delivery time, so each delivery's six cells are
    memoized; so is each issue_time_s, first_served_s and task_completed_s
    cell of a time (the loader shares one float between the tasks that give
    its text), each quoted program id and each origin. The float memos key
    on identity, not value (0.0 and -0.0 are equal but print differently),
    and live only for this call, while every keyed object is alive.
    """
    times: dict[int, str] = {id(None): ""}
    deliveries: dict[tuple[int, int], str] = {}
    program_cells: dict[str, str] = {}
    origin_cell = _ORIGIN_CELL
    lines = [",".join(METRICS_COLUMNS) + "\n"]
    for outcome in metrics.tasks:
        task = outcome.task
        issued = task.issue_time
        issued_cell = times.get(id(issued))
        if issued_cell is None:
            issued_cell = times[id(issued)] = repr(issued)
        served = outcome.first_served_at
        served_cell = times.get(id(served))
        if served_cell is None:
            served_cell = times[id(served)] = repr(served)
        done = outcome.completed_at
        done_cell = times.get(id(done))
        if done_cell is None:
            done_cell = times[id(done)] = repr(done)
        task_id = csv_cell(task.task_id)
        task_cells = f"{origin_cell[task.origin]},{task.consumer!r},{issued_cell},{served_cell}"
        for prog in outcome.programs:
            program_id = prog.program_id
            program_cell = program_cells.get(program_id)
            if program_cell is None:
                program_cell = program_cells[program_id] = csv_cell(program_id)
            b = prog.breakdown
            at = prog.delivered_at
            key = (id(b), id(at))
            delivery = deliveries.get(key)
            if delivery is None:
                at_cell = "" if at is None else repr(at)
                if b is None:
                    delivery = f",,,,,{at_cell},pending"
                else:
                    delivery = (
                        f"{b.t_enc!r},{b.t_comm!r},{b.t_dec!r},{b.t_proc!r},"
                        f"{b.t_e2e!r},{at_cell},completed"
                    )
                deliveries[key] = delivery
            server = prog.server
            lines.append(
                f"{task_id},{program_cell},{task_cells},"
                f"{prog.attempts!r},{'' if server is None else repr(server)},"
                f"{delivery},{done_cell}\n"
            )
    return "".join(lines)


SAMPLES_COLUMNS = ["t_s", "band", "direction", "throughput_mbps", "one_way_delay_ms"]
# Enum.value is a property call; these tables read each text once
_ORIGIN_CELL = {origin: csv_cell(origin.value) for origin in Origin}
_BAND_CELL = {band: csv_cell(band.value) for band in Band}
_DIRECTION_CELL = {direction: csv_cell(direction.value) for direction in Direction}


def samples_to_csv(metrics: MetricsRecord) -> str:
    """One row per link sample, in draw order.

    A link returns its band's one-way delay as one float object for every
    sample of a band and direction, so each delay cell is formatted once per
    object. The memo keys on identity, not value (0.0 and -0.0 are equal
    but print differently), and lives only for this call, while every
    sample is alive.
    """
    band_cell, direction_cell = _BAND_CELL, _DIRECTION_CELL
    delays: dict[int, str] = {}
    lines = [",".join(SAMPLES_COLUMNS) + "\n"]
    for t, band, direction, throughput, one_way_delay in metrics.samples:
        delay_cell = delays.get(id(one_way_delay))
        if delay_cell is None:
            delay_cell = delays[id(one_way_delay)] = repr(one_way_delay)
        lines.append(
            f"{t!r},{band_cell[band]},{direction_cell[direction]},"
            f"{throughput!r},{delay_cell}\n"
        )
    return "".join(lines)


def summary_dict(metrics: MetricsRecord) -> dict:
    """Structured run summary; key order is fixed and documented."""
    moments = metrics.moments
    stats = metrics.outcome_stats()
    return {
        "scenario": metrics.scenario_name,
        "seed": metrics.seed,
        "duration_s": metrics.duration,
        "update_interval_s": metrics.t_int,
        "tasks_total": len(metrics.tasks),
        "tasks_completed": stats.tasks_completed,
        "mean_t_e2e_s": stats.mean_t_e2e,
        "mean_t_comm_s": stats.mean_t_comm,
        "counts": dict(metrics.counts),
        "moments": moments.as_dict(),
        "reported_to_virtual_s": moments.span("reported", "virtual_awareness"),
        "final_t_pos": metrics.final_t_pos,
        "phase_log": [list(entry) for entry in metrics.phase_log],
    }


def summary_to_json(metrics: MetricsRecord) -> str:
    return json.dumps(summary_dict(metrics), indent=2) + "\n"


def trace_to_text(trace: list[str]) -> str:
    return "\n".join(trace) + "\n"
