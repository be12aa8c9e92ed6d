"""Span tracing of birdsim's layers from outside the package.

Each public function is replaced, for the duration of a `patched` block, by
a wrapper installed where its caller looks it up: the module global or class
attribute the caller reads. A wrapper records a span (call count and wall
time) and charges it to its parent span, so a span's self time is its
duration minus the spans of its child calls, and the self times of all spans
under a root add up to the root's duration.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from types import SimpleNamespace

from birdsim import channel, cli, engine, policy, protocol

# (owner, attribute, span name). The span name's prefix is the layer.
MISSION_PATCHES = (
    (engine, "flight_state_at", "engine.flight_state"),
    (engine, "keyed_uniform", "channel.keyed_draw"),
    (channel, "keyed_normal", "channel.keyed_draw"),
    (channel.LinkModel, "sample_throughput", "channel.sample_throughput"),
    (protocol.ProtocolState, "on_tick", "protocol.on_tick"),
    (protocol.ProtocolState, "on_timeout", "protocol.on_timeout"),
    (protocol.ProtocolState, "try_advance", "protocol.try_advance"),
    (protocol.ProtocolState, "on_response", "protocol.on_response"),
    (protocol, "select_server", "policy.select_server"),
    (protocol, "candidates_for", "policy.candidates_for"),
    (policy, "candidates_for", "policy.candidates_for"),
    (protocol, "match_programs", "policy.match_programs"),
    (policy, "e2e_latency", "pipeline.e2e_latency"),
)
SWEEP_PATCHES = (
    (cli, "load_scenario", "cli.load_scenario"),
    (cli, "run", "cli.run"),
    (cli, "apply_sweep_value", "cli.apply_sweep_value"),
)


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._child_s: list[float] = []  # child time of each open span

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)[0]

        return traced

    def root(self, name, fn, *args):
        """Call fn as a root span; returns (result, span seconds)."""
        return self._span(name, fn, args, {})

    def _span(self, name, fn, args, kwargs):
        self.calls[name] += 1
        self._child_s.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span = perf_counter() - start
            self.self_s[name] += span - self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += span
        return result, span

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


@contextmanager
def patched(tracer: Tracer, patches, count_heap_pushes: bool = False):
    """Install tracer wrappers for `patches`; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    if count_heap_pushes:
        saved.append((engine, "heapq", engine.heapq))

        def heappush(heap, item):
            tracer.counts["heap_pushes"] += 1
            heapq.heappush(heap, item)

        engine.heapq = SimpleNamespace(heappush=heappush, heappop=heapq.heappop)
    try:
        for owner, attr, name in patches:
            original = owner.__dict__[attr]
            wrapper = tracer.wrap(name, original)
            if attr == "select_server":
                wrapper = _observe_candidates(tracer, wrapper)
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _observe_candidates(tracer: Tracer, wrapper):
    def select_server(*args, **kwargs):
        decision = wrapper(*args, **kwargs)
        tracer.counts["candidates"] += decision.candidates_considered
        return decision

    return select_server
