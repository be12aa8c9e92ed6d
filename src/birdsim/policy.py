"""Server selection: for each required program, pick the candidate with the
smallest predicted end-to-end latency.

Predictions use the variance-free link (regime means), so decisions are
reproducible and independent of sampling noise. Ties break to the lower
predicted communication time, then to the lower server index. With the tables
and fleet fixed, the choice is a pure function of (program, excluded server,
consumer, link band), and protocol.Offloads memoizes it per run plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .channel import FlightState, LinkModel
from .model import PLATFORM, NodeProfile, ProgramSpec, Task
from .pipeline import LatencyBreakdown, PipelinePlacement, comm_time, e2e_latency, stage_time


class NoCapableServer(LookupError):
    """No candidate can run a required program."""

    def __init__(self, program_id: str):
        super().__init__(f"no capable server for program {program_id!r}")
        self.program_id = program_id


@dataclass(frozen=True)
class ProgramTableEntry:
    """One row of a server's advertised program table."""

    server_id: int
    program_id: str
    capable: bool = True
    advertised_latency: float = 0.0  # server's own decode+process estimate, s

    def __post_init__(self) -> None:
        if not self.advertised_latency >= 0:
            raise ValueError("advertised_latency must be >= 0")


@dataclass(frozen=True)
class OffloadDecision:
    chosen_server: int
    predicted: LatencyBreakdown
    candidates_considered: int


def candidates_for(
    program_id: str,
    tables: Sequence[ProgramTableEntry],
    platform: NodeProfile,
) -> list[ProgramTableEntry]:
    """All capable candidates for one program.

    The platform itself is a candidate iff it holds the program in its cache;
    its entry is synthesized since it never advertises to itself.
    """
    found = []
    if program_id in platform.cached_programs:
        found.append(
            ProgramTableEntry(server_id=platform.node_id, program_id=program_id)
        )
    found.extend(
        e
        for e in tables
        if e.program_id == program_id and e.capable and e.server_id != platform.node_id
    )
    return found


def match_programs(
    task: Task,
    tables: Sequence[ProgramTableEntry],
    platform: NodeProfile,
) -> dict[str, list[ProgramTableEntry]]:
    """Candidates per required program; raises NoCapableServer if any program
    has none."""
    matched: dict[str, list[ProgramTableEntry]] = {}
    for program_id in task.required_programs:
        found = candidates_for(program_id, tables, platform)
        if not found:
            raise NoCapableServer(program_id)
        matched[program_id] = found
    return matched


def _predict(
    program: ProgramSpec,
    entry: ProgramTableEntry,
    nodes: Mapping[int, NodeProfile],
    mean_link: LinkModel,
    state: FlightState,
    consumer: int,
) -> LatencyBreakdown:
    placement = PipelinePlacement(
        source=PLATFORM, executor=entry.server_id, consumer=consumer
    )
    if entry.server_id in nodes:
        return e2e_latency(program, placement, nodes, mean_link, state)
    # No compute profile: the server's advertised figure stands in for its
    # decode+process share; encode and the communication legs are still
    # modeled.
    return LatencyBreakdown(
        t_enc=stage_time(program.encode_cost, nodes[placement.source]),
        t_comm=comm_time(program, placement, mean_link, state),
        t_dec=0.0,
        t_proc=entry.advertised_latency,
    )


def select_server(
    program: ProgramSpec,
    candidates: Sequence[ProgramTableEntry],
    nodes: Mapping[int, NodeProfile],
    link: LinkModel,
    state: FlightState,
    consumer: int = PLATFORM,
) -> OffloadDecision:
    """Exhaustive argmin over the candidates by predicted latency.

    The candidate order never matters: the winner minimizes
    (t_e2e, t_comm, server_id).
    """
    usable = [c for c in candidates if c.capable]
    if not usable:
        raise NoCapableServer(program.program_id)
    mean_link = link.mean()
    best: tuple[float, float, int] | None = None
    best_entry = None
    best_predicted = None
    for entry in usable:
        predicted = _predict(program, entry, nodes, mean_link, state, consumer)
        rank = (predicted.t_e2e, predicted.t_comm, entry.server_id)
        if best is None or rank < best:
            best, best_entry, best_predicted = rank, entry, predicted
    assert best_entry is not None and best_predicted is not None
    return OffloadDecision(
        chosen_server=best_entry.server_id,
        predicted=best_predicted,
        candidates_considered=len(usable),
    )
