"""Deterministic simulator for latency-aware task offloading over an aerial
5G link.

A mission scenario places programs on a small fleet (aerial platform, edge
server, ground control), moves each result through an encode / transfer /
decode / process pipeline over a measured-throughput channel model, and
tracks the mission timeline's critical moments. Runs are reproducible to the
byte for a fixed (scenario, seed) pair.
"""

from .channel import (
    Band,
    Direction,
    FlightState,
    LinkBandParams,
    LinkModel,
    OutOfMeasuredRange,
    default_link_params,
)
from .engine import (
    RunAborted,
    metrics_to_csv,
    run,
    samples_to_csv,
    summary_to_json,
    trace_to_text,
)
from .model import (
    NodeKind,
    NodeProfile,
    Origin,
    Phase,
    PhasePredicate,
    ProgramSpec,
    Task,
    default_profiles,
)
from .pipeline import (
    PipelinePlacement,
    UnknownNode,
    e2e_latency,
)
from .policy import (
    NoCapableServer,
    ProgramTableEntry,
    candidates_for,
    select_server,
)
from .scenario import (
    DanglingReference,
    Incident,
    InvariantViolation,
    Scenario,
    ScenarioError,
    SchemaError,
    Waypoint,
    load_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "Band",
    "DanglingReference",
    "Direction",
    "FlightState",
    "Incident",
    "InvariantViolation",
    "LinkBandParams",
    "LinkModel",
    "NoCapableServer",
    "NodeKind",
    "NodeProfile",
    "Origin",
    "OutOfMeasuredRange",
    "Phase",
    "PhasePredicate",
    "PipelinePlacement",
    "ProgramSpec",
    "ProgramTableEntry",
    "RunAborted",
    "Scenario",
    "ScenarioError",
    "SchemaError",
    "Task",
    "UnknownNode",
    "Waypoint",
    "candidates_for",
    "default_link_params",
    "default_profiles",
    "e2e_latency",
    "load_scenario",
    "metrics_to_csv",
    "run",
    "samples_to_csv",
    "select_server",
    "summary_to_json",
    "trace_to_text",
]
