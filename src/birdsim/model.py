"""Domain types for the offloading simulator.

Mission participants (aerial platform, edge and ground servers), offloadable
programs, tasks, the mission timeline's phases, and the incident's critical
moments.
All times are seconds on a single mission clock whose epoch is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum


class NodeKind(str, Enum):
    UAV5GP = "uav5gp"
    ECS = "ecs"
    GCS = "gcs"


class Origin(str, Enum):
    COMMANDER_ORDER = "commander_order"
    TIMELINE_IMPLIED = "timeline_implied"


# Task kinds the engine treats as sensing streams; any other non-empty label
# is also accepted.
OBJECT_DETECTION = "object_detection"
VR_STITCHING = "vr_stitching"

# Node id of the one aerial platform: the source of every offloaded input and
# the wireless end of every link leg.
PLATFORM = 0

# Rotary-wing endurance: commercial platforms must be back on the ground well
# under 20 minutes, so no mission may plan past this battery ceiling.
PRE_ARRIVAL_BUDGET_S = 1200.0


class OrderingViolation(Exception):
    """A critical-moment timestamp would break the moment ordering."""


class AlreadySet(Exception):
    """A critical moment can be recorded only once."""


@dataclass(frozen=True)
class NodeProfile:
    """One mission participant: the aerial platform or a server.

    load_scenario checks the fleet's rules; a hand-built profile is taken as
    given. location and mobile are carried but not simulated: no link leg or
    decision reads them.
    """

    node_id: int
    kind: NodeKind
    compute_capacity: float  # abstract work-units per second
    location: tuple[float, float, float] = (0.0, 0.0, 0.0)
    mobile: bool = False
    cached_programs: frozenset[str] = frozenset()
    battery_budget: float | None = None  # flight seconds, aerial nodes only


def default_profiles() -> dict[int, NodeProfile]:
    """Canonical three-participant fleet.

    Compute capacities are strictly ordered: the ground station outclasses the
    edge server, which outclasses the aerial platform.
    """
    return {
        0: NodeProfile(
            node_id=0,
            kind=NodeKind.UAV5GP,
            compute_capacity=25.0,
            location=(0.0, 0.0, 0.0),
            mobile=True,
            battery_budget=PRE_ARRIVAL_BUDGET_S,
        ),
        1: NodeProfile(
            node_id=1,
            kind=NodeKind.ECS,
            compute_capacity=100.0,
            location=(500.0, 0.0, 0.0),
            mobile=True,
        ),
        2: NodeProfile(
            node_id=2,
            kind=NodeKind.GCS,
            compute_capacity=400.0,
            location=(5000.0, 0.0, 0.0),
            mobile=False,
        ),
    }


@dataclass(frozen=True)
class ProgramSpec:
    """An offloadable program and its cost/payload profile."""

    program_id: str
    task_kind: str
    compute_cost: float  # work-units
    input_payload: float  # bits shipped to the executor
    output_payload: float  # bits shipped back to the consumer
    encode_cost: float = 0.0  # work-units spent packaging the input
    decode_cost: float = 0.0  # work-units spent unpacking at the executor

    def __post_init__(self) -> None:
        if not self.program_id:
            raise ValueError("program_id must be non-empty")
        if not self.task_kind:
            raise ValueError("task_kind must be non-empty")
        for name in (
            "compute_cost",
            "input_payload",
            "output_payload",
            "encode_cost",
            "decode_cost",
        ):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class Task:
    """A unit of mission work naming the programs it needs.

    consumer is the node where results are used; monitoring feeds point it at
    a ground/edge station, everything else defaults to the aerial platform.
    """

    task_id: str
    required_programs: tuple[str, ...]
    origin: Origin = Origin.COMMANDER_ORDER
    issue_time: float = 0.0
    consumer: int = PLATFORM

    def __post_init__(self) -> None:
        if not self.task_id:
            raise ValueError("task_id must be non-empty")
        if not self.required_programs:
            raise ValueError("a task requires at least one program")
        if len(set(self.required_programs)) < len(self.required_programs):
            raise ValueError("a task requires each program once")
        if not self.issue_time >= 0:
            raise ValueError("issue_time must be >= 0")


@dataclass(frozen=True)
class PhasePredicate:
    """Declarative completion condition for a timeline phase.

    kind: "elapsed" (mission time >= value), "program_result" (a result for
    program value has been delivered), "task_completed" (task value finished),
    "always", or "never".
    """

    kind: str
    value: float | str | None = None

    _KINDS = ("elapsed", "program_result", "task_completed", "always", "never")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown predicate kind: {self.kind!r}")
        if self.kind == "elapsed":
            if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
                raise ValueError("elapsed predicate needs a numeric value")
            if not abs(self.value) < math.inf:
                raise ValueError(f"elapsed predicate needs a finite value, got {self.value}")
        if self.kind in ("program_result", "task_completed") and not self.value:
            raise ValueError(f"{self.kind} predicate needs a target id")


@dataclass(frozen=True)
class Phase:
    """One mission phase; completes_when=None means it never self-completes."""

    phase_id: str
    completes_when: PhasePredicate | None = None


# The six critical moments, in canonical report order.
MOMENT_NAMES = (
    "start",
    "observed",
    "reported",
    "virtual_awareness",
    "physical_awareness",
    "termination",
)


@dataclass(frozen=True)
class CriticalMoments:
    """Timestamps of the incident's pivotal instants; None until recorded."""

    start: float | None = None
    observed: float | None = None
    reported: float | None = None
    virtual_awareness: float | None = None
    physical_awareness: float | None = None
    termination: float | None = None

    def as_dict(self) -> dict[str, float | None]:
        return {name: getattr(self, name) for name in MOMENT_NAMES}

    def span(self, first: str, second: str) -> float | None:
        """Seconds from moment `first` to moment `second`, if both are set."""
        a, b = getattr(self, first), getattr(self, second)
        if a is None or b is None:
            return None
        return b - a


def _ordering_issue(m: CriticalMoments) -> str | None:
    # Chain over the incident onset; awareness and termination bound below.
    chain = [("start", m.start), ("observed", m.observed), ("reported", m.reported)]
    known = [(name, t) for name, t in chain if t is not None]
    for (a_name, a), (b_name, b) in zip(known, known[1:]):
        if a > b:
            return f"{a_name} must not come after {b_name}"
    for name in ("virtual_awareness", "physical_awareness"):
        t = getattr(m, name)
        if t is not None and m.reported is not None and t < m.reported:
            return f"{name} cannot precede reported"
    if m.termination is not None:
        others = [
            (name, getattr(m, name))
            for name in MOMENT_NAMES[:-1]
            if getattr(m, name) is not None
        ]
        for name, t in others:
            if m.termination < t:
                return f"termination cannot precede {name}"
    return None


def record_moment(moments: CriticalMoments, which: str, t: float) -> CriticalMoments:
    """Return a copy of `moments` with moment `which` recorded at time t.

    Raises AlreadySet if the moment was recorded before and OrderingViolation
    if the new timestamp would break the moment ordering.
    """
    if which not in MOMENT_NAMES:
        raise ValueError(f"unknown moment: {which!r}")
    if not t >= 0:
        raise ValueError("moment timestamps must be >= 0")
    if getattr(moments, which) is not None:
        raise AlreadySet(which)
    candidate = replace(moments, **{which: t})
    issue = _ordering_issue(candidate)
    if issue is not None:
        raise OrderingViolation(f"{which}={t}: {issue}")
    return candidate
