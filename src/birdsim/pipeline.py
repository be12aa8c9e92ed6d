"""End-to-end latency calculus for one program execution.

A placement names where the input originates, where the program runs, and
where the result is used. The end-to-end figure is the exact sum of four
stages: encode at the source, communication over the wireless hops, decode at
the executor, and processing at the executor. A fully local placement skips
everything but processing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .channel import Direction, FlightState, LinkModel
from .model import PLATFORM, NodeProfile, ProgramSpec


class UnknownNode(KeyError):
    """A placement references a node id with no profile."""


@dataclass(frozen=True)
class PipelinePlacement:
    source: int
    executor: int
    consumer: int

    @property
    def local(self) -> bool:
        return self.source == self.executor == self.consumer


@dataclass(frozen=True)
class LatencyBreakdown:
    """Four stage times plus their exact sum."""

    t_enc: float
    t_comm: float
    t_dec: float
    t_proc: float
    t_e2e: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("t_enc", "t_comm", "t_dec", "t_proc"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        total = self.t_enc + self.t_comm + self.t_dec + self.t_proc
        object.__setattr__(self, "t_e2e", total)


def stage_time(cost: float, node: NodeProfile) -> float:
    """Seconds node needs for cost work-units."""
    if cost < 0:
        raise ValueError("cost must be >= 0")
    if not node.compute_capacity > 0:
        raise ValueError(f"node {node.node_id} has no positive compute capacity")
    return cost / node.compute_capacity


def hop_direction(sender: int, receiver: int) -> Direction:
    """Link direction for one hop.

    Uplink iff the aerial platform is transmitting; everything else
    (platform receiving, or server-to-server backhaul) rides the downlink
    parameters.
    """
    if sender == receiver:
        raise ValueError("a hop needs distinct endpoints")
    return Direction.UL if sender == PLATFORM else Direction.DL


def _node(nodes: Mapping[int, NodeProfile], node_id: int) -> NodeProfile:
    try:
        return nodes[node_id]
    except KeyError:
        raise UnknownNode(node_id) from None


def comm_time(
    program: ProgramSpec,
    placement: PipelinePlacement,
    link: LinkModel,
    state: FlightState,
) -> float:
    """Seconds on the wireless legs of one execution.

    Each hop whose endpoints differ is charged one sampled transfer; a leg
    from a node to itself moves nothing and costs nothing.
    """
    t_comm = 0.0
    if placement.executor != placement.source:
        t_comm += link.transfer_time(
            program.input_payload,
            state.t,
            state.altitude,
            state.rotating,
            hop_direction(placement.source, placement.executor),
        )
    if placement.consumer != placement.executor:
        t_comm += link.transfer_time(
            program.output_payload,
            state.t,
            state.altitude,
            state.rotating,
            hop_direction(placement.executor, placement.consumer),
        )
    return t_comm


def e2e_latency(
    program: ProgramSpec,
    placement: PipelinePlacement,
    nodes: Mapping[int, NodeProfile],
    link: LinkModel,
    state: FlightState,
) -> LatencyBreakdown:
    """Predict the four-stage latency of one program execution.

    Local placements cost only processing. Otherwise encode is charged to the
    source, decode and processing to the executor, and the wireless legs as
    comm_time charges them.
    """
    executor = _node(nodes, placement.executor)
    if placement.local:
        return LatencyBreakdown(
            t_enc=0.0,
            t_comm=0.0,
            t_dec=0.0,
            t_proc=stage_time(program.compute_cost, executor),
        )
    source = _node(nodes, placement.source)
    _node(nodes, placement.consumer)
    t_comm = comm_time(program, placement, link, state)
    return LatencyBreakdown(
        t_enc=stage_time(program.encode_cost, source),
        t_comm=t_comm,
        t_dec=stage_time(program.decode_cost, executor),
        t_proc=stage_time(program.compute_cost, executor),
    )
