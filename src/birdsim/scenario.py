"""Scenario files: schema, validation, and loading.

A scenario is a YAML document (JSON also parses) describing the fleet, the
programs and their server tables, the tasks, the mission timeline, the flight
plan, link overrides, and the incident's seed moments. See
docs/scenario-schema.md for the full schema; every validation error carries
the path of the offending field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

import yaml

from .channel import (
    MAX_ALTITUDE_M,
    Band,
    LinkBandParams,
    default_link_params,
)
from .model import (
    PRE_ARRIVAL_BUDGET_S,
    NodeKind,
    NodeProfile,
    Origin,
    Phase,
    PhasePredicate,
    ProgramSpec,
    Task,
    validate_fleet,
)
from .policy import ProgramTableEntry


class ScenarioError(Exception):
    """Base for everything load_scenario can reject."""


class SchemaError(ScenarioError):
    """Malformed document: wrong type, missing field, unknown key."""


class DanglingReference(ScenarioError):
    """A field references a program, node, or task that does not exist."""


class InvariantViolation(ScenarioError):
    """Well-formed document whose values break a domain rule."""


# libyaml builds the same documents as the pure-Python parser, several times
# faster; PyYAML without it falls back to the pure-Python one.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def read_yaml(path: Path) -> Any:
    """Parse one YAML (or JSON) file; SchemaError names the path when the
    text does not parse."""
    try:
        return yaml.load(path.read_text(), Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise SchemaError(f"{path}: not parseable: {exc}") from None


_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


@dataclass(frozen=True)
class Waypoint:
    t: float
    altitude: float
    rotating: bool = False


@dataclass(frozen=True)
class Incident:
    start: float | None = None
    observed: float | None = None
    reported: float | None = None


@dataclass(frozen=True)
class Scenario:
    """A fully validated simulation input."""

    name: str
    duration: float
    nodes: dict[int, NodeProfile]
    programs: dict[str, ProgramSpec]
    tables: tuple[ProgramTableEntry, ...] = ()
    tasks: tuple[Task, ...] = ()
    phases: tuple[Phase, ...] = (Phase("mission"),)
    flight_plan: tuple[Waypoint, ...] = (Waypoint(0.0, 0.0),)
    t_int: float = 1.0
    seed: int = 0
    bands: Mapping[Band, LinkBandParams] = field(default_factory=default_link_params)
    floor_mbps: float = 1.0
    one_way_fraction: float = 0.5
    variance_scale: float = 1.0
    incident: Incident = Incident()
    truck_arrival: float | None = None
    loss: Mapping[int, float] = field(default_factory=dict)
    site: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""


# --------------------------------------------------------------- doc walking


def _type_name(value: Any) -> str:
    return type(value).__name__


def _as_map(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected a mapping, got {_type_name(value)}")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list, got {_type_name(value)}")
    return value


def _reject_unknown(doc: Mapping, allowed: set[str], path: str) -> None:
    unknown = [k for k in doc if k not in allowed]
    if unknown:
        raise SchemaError(f"{path}: unknown key {unknown[0]!r}")


def _num(doc: Mapping, key: str, path: str, *, default=None, required=False,
         minimum=None, positive=False) -> float | None:
    if key not in doc:
        if required:
            raise SchemaError(f"{path}.{key}: required")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}.{key}: expected a number, got {_type_name(value)}")
    value = float(value)
    if positive and not value > 0:
        raise SchemaError(f"{path}.{key}: must be positive")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}.{key}: must be >= {minimum}")
    return value


def _int(doc: Mapping, key: str, path: str, *, default=None, required=False,
         minimum=None) -> int | None:
    if key not in doc:
        if required:
            raise SchemaError(f"{path}.{key}: required")
        return default
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}.{key}: expected an integer, got {_type_name(value)}")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}.{key}: must be >= {minimum}")
    return value


def _bool(doc: Mapping, key: str, path: str, *, default=False) -> bool:
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise SchemaError(f"{path}.{key}: expected a boolean, got {_type_name(value)}")
    return value


def _str(doc: Mapping, key: str, path: str, *, default=None, required=False) -> str | None:
    if key not in doc:
        if required:
            raise SchemaError(f"{path}.{key}: required")
        return default
    value = doc[key]
    if not isinstance(value, str):
        raise SchemaError(f"{path}.{key}: expected a string, got {_type_name(value)}")
    return value


def _ident(doc: Mapping, key: str, path: str) -> str:
    value = _str(doc, key, path, required=True)
    if not _ID_RE.match(value):
        raise SchemaError(
            f"{path}.{key}: identifiers must match {_ID_RE.pattern}"
        )
    return value


# ------------------------------------------------------------------ sections


def _parse_nodes(doc: Mapping, programs: dict[str, ProgramSpec]) -> dict[int, NodeProfile]:
    nodes: dict[int, NodeProfile] = {}
    for i, raw in enumerate(_as_list(doc.get("nodes"), "nodes")):
        path = f"nodes[{i}]"
        raw = _as_map(raw, path)
        _reject_unknown(
            raw,
            {"node_id", "kind", "compute_capacity", "location", "mobile",
             "cached_programs", "battery_budget_s"},
            path,
        )
        node_id = _int(raw, "node_id", path, required=True, minimum=0)
        kind_raw = _str(raw, "kind", path, required=True)
        try:
            kind = NodeKind(kind_raw)
        except ValueError:
            raise SchemaError(
                f"{path}.kind: expected one of {[k.value for k in NodeKind]}"
            ) from None
        location = raw.get("location", [0.0, 0.0, 0.0])
        loc_list = _as_list(location, f"{path}.location")
        if len(loc_list) != 3 or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in loc_list
        ):
            raise SchemaError(f"{path}.location: expected [x, y, z] numbers")
        cached = _as_list(raw.get("cached_programs", []), f"{path}.cached_programs")
        for j, pid in enumerate(cached):
            if not isinstance(pid, str):
                raise SchemaError(f"{path}.cached_programs[{j}]: expected a string")
            if pid not in programs:
                raise DanglingReference(
                    f"{path}.cached_programs[{j}]: unknown program {pid!r}"
                )
        if node_id in nodes:
            raise InvariantViolation(f"{path}.node_id: duplicate node id {node_id}")
        battery = _num(raw, "battery_budget_s", path)
        if battery is None and kind is NodeKind.UAV5GP:
            battery = PRE_ARRIVAL_BUDGET_S
        nodes[node_id] = NodeProfile(
            node_id=node_id,
            kind=kind,
            compute_capacity=_num(raw, "compute_capacity", path, required=True) or 0.0,
            location=tuple(float(v) for v in loc_list),
            mobile=_bool(raw, "mobile", path),
            cached_programs=frozenset(cached),
            battery_budget=battery,
        )
    issue = validate_fleet(nodes)
    if issue is not None:
        raise InvariantViolation(f"nodes: {issue}")
    return nodes


def _parse_programs(doc: Mapping) -> dict[str, ProgramSpec]:
    programs: dict[str, ProgramSpec] = {}
    for i, raw in enumerate(_as_list(doc.get("programs", []), "programs")):
        path = f"programs[{i}]"
        raw = _as_map(raw, path)
        _reject_unknown(
            raw,
            {"program_id", "task_kind", "compute_cost", "input_payload_bits",
             "output_payload_bits", "encode_cost", "decode_cost"},
            path,
        )
        program_id = _ident(raw, "program_id", path)
        if program_id in programs:
            raise InvariantViolation(f"{path}.program_id: duplicate {program_id!r}")
        try:
            programs[program_id] = ProgramSpec(
                program_id=program_id,
                task_kind=_str(raw, "task_kind", path, default="other") or "other",
                compute_cost=_num(raw, "compute_cost", path, default=0.0, minimum=0.0),
                input_payload=_num(raw, "input_payload_bits", path, default=0.0, minimum=0.0),
                output_payload=_num(raw, "output_payload_bits", path, default=0.0, minimum=0.0),
                encode_cost=_num(raw, "encode_cost", path, default=0.0, minimum=0.0),
                decode_cost=_num(raw, "decode_cost", path, default=0.0, minimum=0.0),
            )
        except ValueError as exc:
            raise InvariantViolation(f"{path}: {exc}") from None
    return programs


def _parse_tables(
    doc: Mapping, programs: dict[str, ProgramSpec], nodes: dict[int, NodeProfile]
) -> tuple[ProgramTableEntry, ...]:
    entries = []
    for i, raw in enumerate(_as_list(doc.get("tables", []), "tables")):
        path = f"tables[{i}]"
        raw = _as_map(raw, path)
        _reject_unknown(
            raw, {"server_id", "program_id", "capable", "advertised_latency_s"}, path
        )
        server_id = _int(raw, "server_id", path, required=True, minimum=0)
        program_id = _str(raw, "program_id", path, required=True)
        if program_id not in programs:
            raise DanglingReference(f"{path}.program_id: unknown program {program_id!r}")
        if server_id not in nodes:
            raise DanglingReference(f"{path}.server_id: unknown node {server_id}")
        if server_id == 0:
            raise InvariantViolation(
                f"{path}.server_id: the platform's capabilities come from its "
                "cached_programs, not a table entry"
            )
        entries.append(
            ProgramTableEntry(
                server_id=server_id,
                program_id=program_id,
                capable=_bool(raw, "capable", path, default=True),
                advertised_latency=_num(
                    raw, "advertised_latency_s", path, default=0.0, minimum=0.0
                ),
            )
        )
    return tuple(entries)


def _parse_tasks(
    doc: Mapping, programs: dict[str, ProgramSpec], nodes: dict[int, NodeProfile]
) -> tuple[Task, ...]:
    tasks = []
    seen = set()
    for i, raw in enumerate(_as_list(doc.get("tasks", []), "tasks")):
        path = f"tasks[{i}]"
        raw = _as_map(raw, path)
        _reject_unknown(
            raw,
            {"task_id", "required_programs", "origin", "issue_time_s", "consumer"},
            path,
        )
        task_id = _ident(raw, "task_id", path)
        if task_id in seen:
            raise InvariantViolation(f"{path}.task_id: duplicate {task_id!r}")
        seen.add(task_id)
        required = _as_list(raw.get("required_programs"), f"{path}.required_programs")
        if not required:
            raise SchemaError(f"{path}.required_programs: must be non-empty")
        for j, pid in enumerate(required):
            if not isinstance(pid, str):
                raise SchemaError(f"{path}.required_programs[{j}]: expected a string")
            if pid not in programs:
                raise DanglingReference(
                    f"{path}.required_programs[{j}]: unknown program {pid!r}"
                )
        origin_raw = _str(raw, "origin", path, default=Origin.COMMANDER_ORDER.value)
        try:
            origin = Origin(origin_raw)
        except ValueError:
            raise SchemaError(
                f"{path}.origin: expected one of {[o.value for o in Origin]}"
            ) from None
        consumer = _int(raw, "consumer", path, default=0, minimum=0)
        if consumer not in nodes:
            raise DanglingReference(f"{path}.consumer: unknown node {consumer}")
        tasks.append(
            Task(
                task_id=task_id,
                required_programs=tuple(required),
                origin=origin,
                issue_time=_num(raw, "issue_time_s", path, default=0.0, minimum=0.0),
                consumer=consumer,
            )
        )
    return tuple(tasks)


def _parse_predicate(raw: Any, path: str, programs, task_ids) -> PhasePredicate:
    if isinstance(raw, str):
        if raw not in ("always", "never"):
            raise SchemaError(f"{path}: expected 'always', 'never', or a mapping")
        return PhasePredicate(raw)
    raw = _as_map(raw, path)
    if len(raw) != 1:
        raise SchemaError(f"{path}: expected exactly one predicate key")
    key, value = next(iter(raw.items()))
    if key == "elapsed_s":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaError(f"{path}.elapsed_s: expected a number")
        return PhasePredicate("elapsed", float(value))
    if key == "program_result":
        if value not in programs:
            raise DanglingReference(f"{path}.program_result: unknown program {value!r}")
        return PhasePredicate("program_result", value)
    if key == "task_completed":
        if value not in task_ids:
            raise DanglingReference(f"{path}.task_completed: unknown task {value!r}")
        return PhasePredicate("task_completed", value)
    raise SchemaError(f"{path}: unknown predicate key {key!r}")


def _parse_timeline(doc: Mapping, programs, tasks) -> tuple[Phase, ...]:
    raw_list = doc.get("timeline")
    if raw_list is None:
        return (Phase("mission"),)
    task_ids = {t.task_id for t in tasks}
    phases = []
    seen = set()
    for i, raw in enumerate(_as_list(raw_list, "timeline")):
        path = f"timeline[{i}]"
        raw = _as_map(raw, path)
        _reject_unknown(raw, {"phase_id", "implied_task_kinds", "completes_when"}, path)
        phase_id = _ident(raw, "phase_id", path)
        if phase_id in seen:
            raise InvariantViolation(f"{path}.phase_id: duplicate {phase_id!r}")
        seen.add(phase_id)
        kinds = _as_list(raw.get("implied_task_kinds", []), f"{path}.implied_task_kinds")
        for j, kind in enumerate(kinds):
            if not isinstance(kind, str) or not kind:
                raise SchemaError(
                    f"{path}.implied_task_kinds[{j}]: expected a non-empty string"
                )
        predicate = None
        if "completes_when" in raw:
            predicate = _parse_predicate(
                raw["completes_when"], f"{path}.completes_when", programs, task_ids
            )
        phases.append(
            Phase(
                phase_id=phase_id,
                implied_task_kinds=tuple(kinds),
                completes_when=predicate,
            )
        )
    if not phases:
        raise SchemaError("timeline: must be non-empty when present")
    return tuple(phases)


def _parse_flight_plan(doc: Mapping) -> tuple[Waypoint, ...]:
    raw_list = doc.get("flight_plan")
    if raw_list is None:
        return (Waypoint(0.0, 0.0),)
    waypoints = []
    for i, raw in enumerate(_as_list(raw_list, "flight_plan")):
        path = f"flight_plan[{i}]"
        raw = _as_map(raw, path)
        _reject_unknown(raw, {"t_s", "altitude_m", "rotating"}, path)
        t = _num(raw, "t_s", path, required=True, minimum=0.0)
        altitude = _num(raw, "altitude_m", path, required=True)
        if altitude < 0 or altitude > MAX_ALTITUDE_M:
            raise InvariantViolation(
                f"{path}.altitude_m: {altitude} outside the measured envelope "
                f"[0, {MAX_ALTITUDE_M}] m"
            )
        waypoints.append(Waypoint(t, altitude, _bool(raw, "rotating", path)))
    if not waypoints:
        raise SchemaError("flight_plan: must be non-empty when present")
    for a, b in zip(waypoints, waypoints[1:]):
        if b.t <= a.t:
            raise InvariantViolation("flight_plan: waypoint times must strictly increase")
    return tuple(waypoints)


def _parse_link(doc: Mapping):
    raw = _as_map(doc.get("link", {}), "link")
    _reject_unknown(
        raw, {"bands", "floor_mbps", "one_way_fraction", "variance_scale"}, "link"
    )
    bands = default_link_params()
    overrides = _as_map(raw.get("bands", {}), "link.bands")
    key_by_band = {b.value: b for b in Band}
    for band_key, fields_raw in overrides.items():
        if band_key not in key_by_band:
            raise SchemaError(
                f"link.bands: unknown regime {band_key!r}, expected one of "
                f"{sorted(key_by_band)}"
            )
        band = key_by_band[band_key]
        path = f"link.bands.{band_key}"
        fields_raw = _as_map(fields_raw, path)
        _reject_unknown(
            fields_raw,
            {"dl_mean_mbps", "ul_mean_mbps", "rtt_mean_ms", "dl_std_mbps", "ul_std_mbps"},
            path,
        )
        base = bands[band]
        try:
            bands[band] = LinkBandParams(
                band=band,
                dl_mean=_num(fields_raw, "dl_mean_mbps", path, default=base.dl_mean),
                ul_mean=_num(fields_raw, "ul_mean_mbps", path, default=base.ul_mean),
                rtt_mean=_num(fields_raw, "rtt_mean_ms", path, default=base.rtt_mean),
                dl_std=_num(fields_raw, "dl_std_mbps", path, default=base.dl_std),
                ul_std=_num(fields_raw, "ul_std_mbps", path, default=base.ul_std),
            )
        except ValueError as exc:
            raise InvariantViolation(f"{path}: {exc}") from None
    floor = _num(raw, "floor_mbps", "link", default=1.0, positive=True)
    fraction = _num(raw, "one_way_fraction", "link", default=0.5, positive=True)
    if fraction > 1:
        raise SchemaError("link.one_way_fraction: must be in (0, 1]")
    variance = _num(raw, "variance_scale", "link", default=1.0, minimum=0.0)
    return bands, floor, fraction, variance


def _parse_loss(doc: Mapping, nodes: dict[int, NodeProfile]) -> dict[int, float]:
    raw = _as_map(doc.get("loss", {}), "loss")
    loss: dict[int, float] = {}
    for key, value in raw.items():
        path = f"loss.{key}"
        if isinstance(key, bool) or not isinstance(key, int):
            raise SchemaError(f"{path}: server keys must be integers")
        if key not in nodes:
            raise DanglingReference(f"{path}: unknown node {key}")
        if key == 0:
            raise InvariantViolation(f"{path}: local execution cannot be lossy")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not 0 <= value <= 1:
            raise SchemaError(f"{path}: expected a probability in [0, 1]")
        loss[key] = float(value)
    return loss


def _parse_incident(doc: Mapping, duration: float) -> Incident:
    raw = _as_map(doc.get("incident", {}), "incident")
    _reject_unknown(raw, {"start_s", "observed_s", "reported_s"}, "incident")
    incident = Incident(
        start=_num(raw, "start_s", "incident", minimum=0.0),
        observed=_num(raw, "observed_s", "incident", minimum=0.0),
        reported=_num(raw, "reported_s", "incident", minimum=0.0),
    )
    chain = [
        ("start_s", incident.start),
        ("observed_s", incident.observed),
        ("reported_s", incident.reported),
    ]
    known = [(name, t) for name, t in chain if t is not None]
    for (a_name, a), (b_name, b) in zip(known, known[1:]):
        if a > b:
            raise InvariantViolation(f"incident: {a_name} must not come after {b_name}")
    for name, t in known:
        if t > duration:
            raise InvariantViolation(f"incident.{name}: beyond the mission duration")
    return incident


_TOP_KEYS = {
    "name", "description", "seed", "duration_s", "update_interval_s", "site",
    "incident", "truck_arrival_s", "nodes", "link", "programs", "tables",
    "tasks", "timeline", "flight_plan", "loss",
}


def load_scenario(source: str | Path | Mapping) -> Scenario:
    """Load and validate a scenario from a file path or an already-parsed
    mapping.

    Raises SchemaError for malformed documents, DanglingReference for broken
    ids, and InvariantViolation for domain-rule violations; messages name the
    offending field's path.
    """
    if isinstance(source, Mapping):
        doc: Any = source
    else:
        path = Path(source)
        if not path.exists():
            raise SchemaError(f"scenario file not found: {path}")
        doc = read_yaml(path)
    doc = _as_map(doc, "scenario")
    _reject_unknown(doc, _TOP_KEYS, "scenario")

    name = _str(doc, "name", "scenario", required=True)
    if not name:
        raise SchemaError("scenario.name: must be non-empty")
    duration = _num(doc, "duration_s", "scenario", required=True, positive=True)
    t_int = _num(doc, "update_interval_s", "scenario", default=1.0, positive=True)
    seed = _int(doc, "seed", "scenario", default=0, minimum=0)

    programs = _parse_programs(doc)
    nodes = _parse_nodes(doc, programs)
    tables = _parse_tables(doc, programs, nodes)
    tasks = _parse_tasks(doc, programs, nodes)
    phases = _parse_timeline(doc, programs, tasks)
    flight_plan = _parse_flight_plan(doc)
    bands, floor, fraction, variance = _parse_link(doc)
    loss = _parse_loss(doc, nodes)
    incident = _parse_incident(doc, duration)

    battery = nodes[0].battery_budget
    if battery is not None and duration > battery:
        raise InvariantViolation(
            f"scenario.duration_s: {duration} exceeds the platform battery "
            f"budget {battery}"
        )
    truck = _num(doc, "truck_arrival_s", "scenario", minimum=0.0)
    if truck is not None and incident.reported is not None and truck < incident.reported:
        raise InvariantViolation(
            "scenario.truck_arrival_s: physical response cannot precede the report"
        )

    site = _as_map(doc.get("site", {}), "site")

    return Scenario(
        name=name,
        duration=duration,
        nodes=nodes,
        programs=programs,
        tables=tables,
        tasks=tasks,
        phases=phases,
        flight_plan=flight_plan,
        t_int=t_int,
        seed=seed,
        bands=bands,
        floor_mbps=floor,
        one_way_fraction=fraction,
        variance_scale=variance,
        incident=incident,
        truck_arrival=truck,
        loss=loss,
        site=dict(site),
        description=_str(doc, "description", "scenario", default="") or "",
    )
