"""End-to-end latency calculus for one program execution.

A placement names where the input originates, where the program runs, and
where the result is used. The end-to-end figure is the exact sum of four
stages: encode at the source, communication over the wireless hops, decode at
the executor, and processing at the executor. A fully local placement skips
everything but processing. e2e_latency prices one placement, and the
offload choice is its only caller in the package: the engine stages each
execution with the stage times that its choice's prediction priced for it,
so the two differ only in when each leg is sampled: the prediction samples
both legs with leg_sample at the flight state of the deciding tick (on the
variance-free link it is given), the engine samples each leg in its
hop_direction when it starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .channel import Direction, FlightState, LinkModel, LinkSample, transfer_seconds
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
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        total = self.t_enc + self.t_comm + self.t_dec + self.t_proc
        object.__setattr__(self, "t_e2e", total)


def stage_time(cost: float, node: NodeProfile) -> float:
    """Seconds node needs for cost work-units."""
    if not cost >= 0:
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


def leg_sample(link: LinkModel, state: FlightState, sender: int, receiver: int) -> LinkSample:
    """The link sample that prices the hop from sender to receiver at state."""
    direction = hop_direction(sender, receiver)
    return link.sample_throughput(state.t, state.altitude, state.rotating, direction)


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
    t_in = t_out = 0.0
    if placement.executor != placement.source:
        sample = leg_sample(link, state, placement.source, placement.executor)
        t_in = transfer_seconds(program.input_payload, sample)
    if placement.consumer != placement.executor:
        sample = leg_sample(link, state, placement.executor, placement.consumer)
        t_out = transfer_seconds(program.output_payload, sample)
    return 0.0 + t_in + t_out


def e2e_latency(
    program: ProgramSpec,
    placement: PipelinePlacement,
    nodes: Mapping[int, NodeProfile],
    link: LinkModel,
    state: FlightState,
) -> LatencyBreakdown:
    """Predict the four-stage latency of one program execution.

    A local placement costs processing only. Any other placement is charged
    encode at the source, decode and processing at the executor, and the
    wireless legs as comm_time charges them. The executor, then the source
    and the consumer, must have a profile (UnknownNode), and the stage times
    are checked before any leg is sampled.
    """
    executor = _node(nodes, placement.executor)
    if placement.local:
        return LatencyBreakdown(0.0, 0.0, 0.0, stage_time(program.compute_cost, executor))
    source = _node(nodes, placement.source)
    _node(nodes, placement.consumer)
    t_enc = stage_time(program.encode_cost, source)
    t_dec = stage_time(program.decode_cost, executor)
    t_proc = stage_time(program.compute_cost, executor)
    return LatencyBreakdown(t_enc, comm_time(program, placement, link, state), t_dec, t_proc)
