"""Deterministic discrete-event kernel driving the update loop.

Events are totally ordered by (time, insertion sequence); all randomness is
keyed off the run seed, so a fixed (scenario, seed) pair replays to the byte.
The engine stages each dispatched program through its pipeline legs, feeds
responses and timeouts to the protocol state, tracks the critical moments,
and emits a replay-complete line trace plus a metrics record.
"""

from __future__ import annotations

import csv
import heapq
import io
import json
import logging
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

from .channel import (
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
    VR_STITCHING,
    CriticalMoments,
    MissionTimeline,
    NodeKind,
    Origin,
    record_moment,
)

# Result kinds that count as "the agency can now see the scene": sensing
# streams, not planning outputs.
_MONITORING_KINDS = (OBJECT_DETECTION, VR_STITCHING)
from .pipeline import LatencyBreakdown, hop_direction, stage_time
from .protocol import Dispatch, ProtocolState, UpdateResponse
from .scenario import Scenario, Waypoint

log = logging.getLogger("birdsim.engine")


class RunAborted(RuntimeError):
    """A module error surfaced mid-run; carries the trace up to the abort."""

    def __init__(self, message: str, trace: list[str]):
        super().__init__(message)
        self.trace = trace


class EventKind(str, Enum):
    TICK = "Tick"
    TRANSFER_COMPLETE = "TransferComplete"
    COMPUTE_COMPLETE = "ComputeComplete"
    TIMEOUT = "Timeout"
    FLIGHT_WAYPOINT = "FlightWaypoint"
    TASK_ISSUED = "TaskIssued"
    TRUCK_ARRIVAL = "TruckArrival"


@dataclass(frozen=True)
class Event:
    t: float
    seq: int
    kind: EventKind
    tick: int = -1
    inst_id: int = -1
    leg: str = ""
    task_id: str = ""
    waypoint: Waypoint | None = None


@dataclass
class _Instance:
    """One staged program execution (a dispatch in flight)."""

    inst_id: int
    dispatch: Dispatch
    t_enc: float = 0.0
    t_comm: float = 0.0
    t_dec: float = 0.0
    t_proc: float = 0.0
    cancelled: bool = False

    def breakdown(self) -> LatencyBreakdown:
        return LatencyBreakdown(self.t_enc, self.t_comm, self.t_dec, self.t_proc)


@dataclass
class ProgramOutcome:
    task_id: str
    program_id: str
    attempts: int = 0
    server: int | None = None
    breakdown: LatencyBreakdown | None = None
    delivered_at: float | None = None
    status: str = "pending"


@dataclass
class TaskOutcome:
    task_id: str
    origin: Origin
    consumer: int
    issue_time: float
    first_served_at: float | None = None
    completed_at: float | None = None
    programs: list[ProgramOutcome] = field(default_factory=list)


@dataclass
class SampleLog:
    t: float
    band: Band
    sample: LinkSample


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
    samples: list[SampleLog]
    phase_log: list[tuple[float, int, int]]
    final_t_pos: int

    def completed(self) -> Iterator[ProgramOutcome]:
        for task in self.tasks:
            for prog in task.programs:
                if prog.status == "completed" and prog.breakdown is not None:
                    yield prog

    def mean_t_e2e(self) -> float | None:
        vals = [p.breakdown.t_e2e for p in self.completed()]
        return sum(vals) / len(vals) if vals else None

    def mean_t_comm(self) -> float | None:
        vals = [p.breakdown.t_comm for p in self.completed()]
        return sum(vals) / len(vals) if vals else None

    def tasks_completed(self) -> int:
        return sum(1 for t in self.tasks if t.completed_at is not None)


@dataclass
class RunResult:
    metrics: MetricsRecord
    trace: list[str]


def flight_state_at(scenario: Scenario, t: float) -> FlightState:
    """Flight condition at mission time t.

    Altitude interpolates linearly between waypoints; the rotation flag is a
    step function holding each waypoint's value until the next. Before the
    first waypoint the first posture holds, after the last the last one does.
    """
    plan = scenario.flight_plan
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


def _fmt_key(key: tuple[int, int, str]) -> str:
    return f"{key[0]}:{key[1]}:{key[2]}"


class _Sim:
    def __init__(self, scenario: Scenario, seed: int):
        self.sc = scenario
        self.seed = seed
        self.link = LinkModel(
            bands=scenario.bands,
            noise_seed=seed,
            attachment=0,
            floor_mbps=scenario.floor_mbps,
            variance_scale=scenario.variance_scale,
            one_way_fraction=scenario.one_way_fraction,
        )
        timeline = MissionTimeline(phases=list(scenario.phases))
        for which, value in (
            ("start", scenario.incident.start),
            ("observed", scenario.incident.observed),
            ("reported", scenario.incident.reported),
        ):
            if value is not None:
                timeline.moments = record_moment(timeline.moments, which, value)
        self.protocol = ProtocolState(scenario.t_int, timeline)
        # policy predictions use the variance-free link; built once per run
        self.mean_link = self.link.mean()
        battery = scenario.nodes[0].battery_budget
        self.end = min(scenario.duration, battery if battery is not None else math.inf)
        self.heap: list[tuple[float, int, Event]] = []
        self.seq = 0
        self.trace: list[str] = []
        self.last_t = 0.0
        self.instances: dict[int, _Instance] = {}
        self.live_by_key: dict[tuple[int, int, str], _Instance] = {}
        self.samples: list[SampleLog] = []
        self.cancelled = 0
        # (scenario index, task) by issue time; tasks before the cursor have
        # been handed to the protocol
        self.by_issue = sorted(enumerate(scenario.tasks), key=lambda p: p[1].issue_time)
        self.next_due = 0
        self.prog_index = {pid: i for i, pid in enumerate(scenario.programs)}
        self.task_outcomes: dict[str, TaskOutcome] = {}
        self.prog_outcomes: dict[tuple[str, str], ProgramOutcome] = {}
        for task in scenario.tasks:
            outcome = TaskOutcome(
                task_id=task.task_id,
                origin=task.origin,
                consumer=task.consumer,
                issue_time=task.issue_time,
            )
            for pid in task.required_programs:
                prog = ProgramOutcome(task_id=task.task_id, program_id=pid)
                outcome.programs.append(prog)
                self.prog_outcomes[(task.task_id, pid)] = prog
            self.task_outcomes[task.task_id] = outcome

    # ------------------------------------------------------------- scheduling

    def _push(self, t: float, kind: EventKind, **fields) -> None:
        event = Event(t=t, seq=self.seq, kind=kind, **fields)
        heapq.heappush(self.heap, (t, self.seq, event))
        self.seq += 1

    def _push_staged(self, t: float, kind: EventKind, **fields) -> bool:
        # Work that would land beyond the run window is cancelled and counted.
        if t > self.end:
            self.cancelled += 1
            return False
        self._push(t, kind, **fields)
        return True

    def _schedule_initial(self) -> None:
        for task in self.sc.tasks:
            if task.issue_time <= self.end:
                self._push(task.issue_time, EventKind.TASK_ISSUED, task_id=task.task_id)
        for wp in self.sc.flight_plan:
            if wp.t <= self.end:
                self._push(wp.t, EventKind.FLIGHT_WAYPOINT, waypoint=wp)
        if self.sc.truck_arrival is not None and self.sc.truck_arrival <= self.end:
            self._push(self.sc.truck_arrival, EventKind.TRUCK_ARRIVAL)
        self._push(0.0, EventKind.TICK, tick=0)

    # ------------------------------------------------------------------ trace

    def _emit(self, t: float, seq: int, kind: str, fields: list[tuple[str, str]]) -> None:
        parts = [f"t={t!r}", f"seq={seq}", f"kind={kind}",
                 f"tpos={self.protocol.timeline.t_pos}"]
        parts.extend(f"{name}={value}" for name, value in fields)
        line = " ".join(parts)
        self.trace.append(line)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(line)

    # -------------------------------------------------------------- main loop

    def run(self) -> RunResult:
        try:
            self._schedule_initial()
            while self.heap:
                t, seq, event = heapq.heappop(self.heap)
                if t < self.last_t:
                    raise RuntimeError("event executed out of causal order")
                self.last_t = t
                self._dispatch(event)
            self._flush()
        except RunAborted:
            raise
        except Exception as exc:
            self.trace.append(
                f"t={self.last_t!r} seq={self.seq} kind=Abort "
                f"error={type(exc).__name__}: {exc}"
            )
            raise RunAborted(f"{type(exc).__name__}: {exc}", list(self.trace)) from exc
        return RunResult(metrics=self._metrics(), trace=self.trace)

    def _dispatch(self, event: Event) -> None:
        if event.kind is EventKind.TICK:
            self._on_tick(event)
        elif event.kind is EventKind.TRANSFER_COMPLETE:
            self._on_transfer_complete(event)
        elif event.kind is EventKind.COMPUTE_COMPLETE:
            self._on_compute_complete(event)
        elif event.kind is EventKind.TIMEOUT:
            self._on_timeout(event)
        elif event.kind is EventKind.TASK_ISSUED:
            self._emit(event.t, event.seq, event.kind.value, [("task", event.task_id)])
        elif event.kind is EventKind.FLIGHT_WAYPOINT:
            wp = event.waypoint
            assert wp is not None
            self._emit(
                event.t, event.seq, event.kind.value,
                [("altitude", repr(wp.altitude)), ("rotating", str(int(wp.rotating)))],
            )
        elif event.kind is EventKind.TRUCK_ARRIVAL:
            tl = self.protocol.timeline
            tl.moments = record_moment(tl.moments, "physical_awareness", event.t)
            self._emit(event.t, event.seq, event.kind.value,
                       [("moment", "physical_awareness")])

    # ------------------------------------------------------------------ ticks

    def _on_tick(self, event: Event) -> None:
        t, tick = event.t, event.tick
        state = flight_state_at(self.sc, t)
        start = self.next_due
        while (
            self.next_due < len(self.by_issue)
            and self.by_issue[self.next_due][1].issue_time <= t
        ):
            self.next_due += 1
        # tasks due in the same tick are served in scenario order
        due = [task for _, task in sorted(self.by_issue[start:self.next_due])]
        outcome = self.protocol.on_tick(
            t, due, self.sc.tables, self.sc.nodes, self.sc.programs, self.mean_link,
            state,
        )
        for task_id in outcome.served_tasks:
            self.task_outcomes[task_id].first_served_at = t
        wire_issued = False
        for dispatch in outcome.dispatches:
            for waiter in dispatch.waiters:
                prog = self.prog_outcomes[(waiter, dispatch.program.program_id)]
                prog.attempts += 1
                prog.server = dispatch.server_id
            if dispatch.local:
                self._stage_local(dispatch, t)
                continue
            wire_issued = True
            lost = (
                keyed_uniform(
                    self.seed,
                    dispatch.tick_index,
                    dispatch.server_id,
                    self.prog_index[dispatch.program.program_id],
                )
                < self.sc.loss.get(dispatch.server_id, 0.0)
            )
            if not lost:
                self._stage_wire(dispatch, t, state)
        if wire_issued:
            deadline = self.protocol.tick_time(tick + 1)
            if deadline <= self.end:
                self._push(deadline, EventKind.TIMEOUT, tick=tick)
        next_t = self.protocol.tick_time(tick + 1)
        if next_t < self.end:
            self._push(next_t, EventKind.TICK, tick=tick + 1)
        self.protocol.try_advance(t)
        entries = ";".join(
            _fmt_key(d.key) for d in outcome.dispatches if not d.local
        )
        locals_ = ";".join(
            f"{d.program.program_id}@{d.consumer}"
            for d in outcome.dispatches
            if d.local
        )
        self._emit(
            t, event.seq, "Tick",
            [
                ("tick", str(tick)),
                ("due", ",".join(outcome.served_tasks)),
                ("entries", entries),
                ("locals", locals_),
                ("unserved", ";".join(f"{a}:{b}" for a, b in outcome.unserved)),
                ("msgs", str(len(outcome.requests))),
            ],
        )

    # ---------------------------------------------------------------- staging

    def _sample_leg(
        self, t: float, payload: float, sender: int, receiver: int
    ) -> float:
        state = flight_state_at(self.sc, t)
        direction = hop_direction(sender, receiver, self.link.attachment)
        sample = self.link.sample_throughput(
            t, state.altitude, state.rotating, direction
        )
        self.samples.append(
            SampleLog(t=t, band=band_for(state.altitude, state.rotating), sample=sample)
        )
        return transfer_seconds(payload, sample)

    def _stage_local(self, dispatch: Dispatch, t: float) -> None:
        platform = self.sc.nodes[self.link.attachment]
        inst = self._new_instance(dispatch)
        if dispatch.consumer == self.link.attachment:
            inst.t_proc = stage_time(dispatch.program.compute_cost, platform)
            delay = inst.t_proc
        else:
            # local execution feeding a remote consumer still encodes/decodes
            inst.t_enc = stage_time(dispatch.program.encode_cost, platform)
            inst.t_dec = stage_time(dispatch.program.decode_cost, platform)
            inst.t_proc = stage_time(dispatch.program.compute_cost, platform)
            delay = inst.t_enc + inst.t_dec + inst.t_proc
        self._push_staged(t + delay, EventKind.COMPUTE_COMPLETE, inst_id=inst.inst_id)

    def _stage_wire(self, dispatch: Dispatch, t: float, state: FlightState) -> None:
        platform = self.sc.nodes[self.link.attachment]
        inst = self._new_instance(dispatch)
        self.live_by_key[dispatch.key] = inst
        inst.t_enc = stage_time(dispatch.program.encode_cost, platform)
        t_start = t + inst.t_enc
        leg = self._sample_leg(
            t_start, dispatch.program.input_payload, self.link.attachment,
            dispatch.server_id,
        )
        inst.t_comm += leg
        self._push_staged(
            t_start + leg, EventKind.TRANSFER_COMPLETE, inst_id=inst.inst_id,
            leg="input",
        )

    def _new_instance(self, dispatch: Dispatch) -> _Instance:
        inst = _Instance(inst_id=len(self.instances), dispatch=dispatch)
        self.instances[inst.inst_id] = inst
        return inst

    # --------------------------------------------------------------- handlers

    def _on_transfer_complete(self, event: Event) -> None:
        inst = self.instances[event.inst_id]
        if inst.cancelled:
            return
        dispatch = inst.dispatch
        if event.leg == "input":
            server = self.sc.nodes[dispatch.server_id]
            inst.t_dec = stage_time(dispatch.program.decode_cost, server)
            inst.t_proc = stage_time(dispatch.program.compute_cost, server)
            self._push_staged(
                event.t + inst.t_dec + inst.t_proc,
                EventKind.COMPUTE_COMPLETE,
                inst_id=inst.inst_id,
            )
            self._emit(
                event.t, event.seq, "TransferComplete",
                [("inst", str(inst.inst_id)), ("leg", "input"),
                 ("entry", _fmt_key(dispatch.key))],
            )
            return
        fields = [("inst", str(inst.inst_id)), ("leg", "output"),
                  ("entry", _fmt_key(dispatch.key))]
        fields += self._deliver(inst, event.t)
        self._emit(event.t, event.seq, "TransferComplete", fields)
        self.protocol.try_advance(event.t)

    def _on_compute_complete(self, event: Event) -> None:
        inst = self.instances[event.inst_id]
        if inst.cancelled:
            return
        dispatch = inst.dispatch
        executor = dispatch.server_id
        fields = [("inst", str(inst.inst_id)), ("entry", _fmt_key(dispatch.key)),
                  ("local", str(int(dispatch.local)))]
        if dispatch.consumer != executor:
            leg = self._sample_leg(
                event.t, dispatch.program.output_payload, executor, dispatch.consumer
            )
            inst.t_comm += leg
            self._push_staged(
                event.t + leg, EventKind.TRANSFER_COMPLETE, inst_id=inst.inst_id,
                leg="output",
            )
            self._emit(event.t, event.seq, "ComputeComplete", fields)
            return
        # result is consumed where it was computed: delivery happens now
        fields += self._deliver(inst, event.t)
        self._emit(event.t, event.seq, "ComputeComplete", fields)
        self.protocol.try_advance(event.t)

    def _deliver(self, inst: _Instance, t: float) -> list[tuple[str, str]]:
        """Credit a finished execution; returns extra trace fields."""
        dispatch = inst.dispatch
        fields: list[tuple[str, str]] = []
        if dispatch.local:
            completed = self.protocol.note_local_result(dispatch, t)
        else:
            server = self.sc.nodes[dispatch.server_id]
            response = UpdateResponse(
                tick_index=dispatch.tick_index,
                server_id=dispatch.server_id,
                program_id=dispatch.program.program_id,
                result_payload=dispatch.program.output_payload,
                server_location=server.location if server.mobile else None,
                completed_at=t,
            )
            _, completed = self.protocol.on_response(response)
            self.live_by_key.pop(dispatch.key, None)
            fields.append(("resolved", _fmt_key(dispatch.key)))
        fields.append(("delivered", str(dispatch.consumer)))
        breakdown = inst.breakdown()
        for waiter in dispatch.waiters:
            prog = self.prog_outcomes[(waiter, dispatch.program.program_id)]
            prog.breakdown = breakdown
            prog.delivered_at = t
            prog.status = "completed"
            prog.server = dispatch.server_id
        for task_id in completed:
            outcome = self.task_outcomes[task_id]
            outcome.completed_at = self.protocol.completed_tasks[task_id]
        consumer_kind = self.sc.nodes[dispatch.consumer].kind
        timeline = self.protocol.timeline
        if (
            dispatch.program.task_kind in _MONITORING_KINDS
            and consumer_kind in (NodeKind.ECS, NodeKind.GCS)
            and timeline.moments.virtual_awareness is None
        ):
            timeline.moments = record_moment(timeline.moments, "virtual_awareness", t)
            fields.append(("moment", "virtual_awareness"))
        return fields

    def _on_timeout(self, event: Event) -> None:
        timed_out = self.protocol.on_timeout(event.tick, event.t)
        for dispatch in timed_out:
            inst = self.live_by_key.pop(dispatch.key, None)
            if inst is not None:
                inst.cancelled = True
                self.cancelled += 1
        self._emit(
            event.t, event.seq, "Timeout",
            [
                ("tick", str(event.tick)),
                ("timed_out", ";".join(_fmt_key(d.key) for d in timed_out)),
                ("count", str(len(timed_out))),
            ],
        )
        self.protocol.try_advance(event.t)

    # ------------------------------------------------------------------ flush

    def _flush(self) -> None:
        t = self.end
        flushed = self.protocol.flush_outstanding(t)
        for dispatch in flushed:
            inst = self.live_by_key.pop(dispatch.key, None)
            if inst is not None:
                inst.cancelled = True
                self.cancelled += 1
        self.protocol.try_advance(t)
        timeline = self.protocol.timeline
        timeline.moments = record_moment(timeline.moments, "termination", t)
        self._emit(
            t, self.seq, "Flush",
            [
                ("flushed", ";".join(_fmt_key(d.key) for d in flushed)),
                ("cancelled", str(self.cancelled)),
            ],
        )

    # ---------------------------------------------------------------- metrics

    def _metrics(self) -> MetricsRecord:
        p = self.protocol
        counts = {
            "requests": p.requests_issued,
            "request_messages": p.request_messages,
            "responses": p.responses_received,
            "timeouts": p.timeouts,
            "unserved_events": p.unserved_events,
            "cancelled": self.cancelled,
        }
        return MetricsRecord(
            scenario_name=self.sc.name,
            seed=self.seed,
            duration=self.sc.duration,
            t_int=self.sc.t_int,
            tasks=[self.task_outcomes[t.task_id] for t in self.sc.tasks],
            moments=p.timeline.moments,
            counts=counts,
            samples=self.samples,
            phase_log=list(p.phase_log),
            final_t_pos=p.timeline.t_pos,
        )


def run(scenario: Scenario, seed: int | None = None) -> RunResult:
    """Simulate one scenario; deterministic for a fixed (scenario, seed)."""
    effective_seed = scenario.seed if seed is None else seed
    if log.isEnabledFor(logging.INFO):
        log.info("run scenario=%s seed=%d", scenario.name, effective_seed)
    result = _Sim(scenario, effective_seed).run()
    if log.isEnabledFor(logging.INFO):
        log.info(
            "done scenario=%s events=%d tasks=%d/%d",
            scenario.name,
            len(result.trace),
            result.metrics.tasks_completed(),
            len(result.metrics.tasks),
        )
    return result


# ------------------------------------------------------------- serialization


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


METRICS_COLUMNS = [
    "task_id", "program_id", "origin", "consumer", "issue_time_s",
    "first_served_s", "attempts", "server", "t_enc_s", "t_comm_s", "t_dec_s",
    "t_proc_s", "t_e2e_s", "delivered_s", "status", "task_completed_s",
]


def metrics_to_csv(metrics: MetricsRecord) -> str:
    """Per-(task, program) table; column order is fixed and documented."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for task in metrics.tasks:
        for prog in task.programs:
            b = prog.breakdown
            writer.writerow([
                task.task_id,
                prog.program_id,
                task.origin.value,
                task.consumer,
                _cell(task.issue_time),
                _cell(task.first_served_at),
                prog.attempts,
                _cell(prog.server),
                _cell(b.t_enc if b else None),
                _cell(b.t_comm if b else None),
                _cell(b.t_dec if b else None),
                _cell(b.t_proc if b else None),
                _cell(b.t_e2e if b else None),
                _cell(prog.delivered_at),
                prog.status,
                _cell(task.completed_at),
            ])
    return buf.getvalue()


SAMPLES_COLUMNS = ["t_s", "band", "direction", "throughput_mbps", "one_way_delay_ms"]


def samples_to_csv(metrics: MetricsRecord) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SAMPLES_COLUMNS)
    for row in metrics.samples:
        writer.writerow([
            _cell(row.t),
            row.band.value,
            row.sample.direction.value,
            _cell(row.sample.throughput),
            _cell(row.sample.one_way_delay),
        ])
    return buf.getvalue()


def summary_dict(metrics: MetricsRecord) -> dict:
    """Structured run summary; key order is fixed and documented."""
    moments = metrics.moments
    return {
        "scenario": metrics.scenario_name,
        "seed": metrics.seed,
        "duration_s": metrics.duration,
        "update_interval_s": metrics.t_int,
        "tasks_total": len(metrics.tasks),
        "tasks_completed": metrics.tasks_completed(),
        "mean_t_e2e_s": metrics.mean_t_e2e(),
        "mean_t_comm_s": metrics.mean_t_comm(),
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
