"""Scenario files: schema, validation, and loading.

A scenario is a YAML document (JSON also parses) describing the fleet, the
programs and their server tables, the tasks, the mission timeline, the flight
plan, link overrides, and the incident's seed moments. See
docs/scenario-schema.md for the full schema; every validation error carries
the path of the offending field.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Any, Collection, Iterator, Mapping

import yaml
from yaml import (
    AliasEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError

from .channel import (
    MAX_ALTITUDE_M,
    SEED_BOUND,
    Band,
    LinkBandParams,
    default_link_params,
)
from .model import (
    PLATFORM,
    PRE_ARRIVAL_BUDGET_S,
    NodeKind,
    NodeProfile,
    Origin,
    Phase,
    PhasePredicate,
    ProgramSpec,
    Task,
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


# The parser whose events _build_document turns into a document: libyaml's
# when PyYAML has it, several times faster than the pure-Python one, which
# emits the same events. Its resolver and SafeConstructor's scalar
# constructors give each scalar its SafeLoader value.
YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_CORE = "tag:yaml.org,2002:"
_STR, _MAP, _SEQ, _MERGE_TAG = (_CORE + t for t in ("str", "map", "seq", "merge"))
_SCALARS = {_CORE + t for t in ("null", "bool", "int", "float", "binary", "timestamp")}

_KEY = object()  # a mapping's next value is a key
_APPEND = object()  # a sequence's next value is an item
_MERGE = object()  # the `<<` key; a mapping's next value is merged into it


class _Open:
    """A mapping or sequence whose end event has not come yet. `value` is
    the dict or list it becomes, made at its start so that an alias inside
    it can refer to it. `state` is _APPEND, _KEY, _MERGE or the key whose
    value comes next; `merges` holds the mappings that `<<` gave it."""

    __slots__ = ("value", "state", "merges")

    def __init__(self, value, state):
        self.value, self.state = value, state
        self.merges: list[dict] = []


def _unhashable(event) -> ConstructorError:
    return ConstructorError("while constructing a mapping", None, "found unhashable key",
                            event.start_mark)


def _no_constructor(tag: str, event) -> ConstructorError:
    """The error for a tag that nothing builds on this event's node."""
    return ConstructorError(None, None, f"could not determine a constructor for the tag {tag!r}",
                            event.start_mark)


def _scalar(loader, tag: str, text: str, event) -> Any:
    """The value SafeLoader gives a scalar with this resolved tag and text.
    A text its tag cannot read (`!!int x`) is a ConstructorError."""
    if tag == _STR:
        return text
    if tag == _MERGE_TAG:
        return _MERGE
    if tag not in _SCALARS:
        raise _no_constructor(tag, event)
    try:
        return loader.yaml_constructors[tag](loader, yaml.ScalarNode(tag, text))
    except yaml.YAMLError:
        raise
    except Exception as exc:
        raise ConstructorError(None, None, f"cannot read {text!r} as {tag}: {exc}",
                               event.start_mark) from None


def _open(event) -> _Open:
    """The mapping or sequence that a start event opens."""
    tag = event.tag
    if type(event) is MappingStartEvent:
        if tag is None or tag == "!" or tag == _MAP:
            return _Open({}, _KEY)
    elif tag is None or tag == "!" or tag == _SEQ:
        return _Open([], _APPEND)
    raise _no_constructor(tag, event)


def _close(frame: _Open) -> Any:
    """The finished value of frame, whose end event has come. Merged
    mappings come first, in the order `<<` gave them, and its own keys win."""
    items = frame.value
    if frame.merges:
        own = dict(items)
        items.clear()
        for merged in frame.merges:
            items.update(merged)
        items.update(own)
    return items


def _merge(frame: _Open, value: Any, event) -> None:
    """Queue the value of a `<<` key for merging: a mapping, or a list of
    mappings of which the earlier win."""
    if type(value) is dict:
        frame.merges.append(value)
    elif type(value) is list and all(type(m) is dict for m in value):
        frame.merges.extend(reversed(value))
    else:
        raise ConstructorError("while constructing a mapping", None,
                               "expected a mapping or list of mappings for merging, "
                               f"but found {type(value).__name__}", event.start_mark)


def _add_anchor(anchors: dict, event, value: Any) -> None:
    if event.anchor in anchors:
        raise ComposerError(None, None, f"found duplicate anchor {event.anchor!r}",
                            event.start_mark)
    anchors[event.anchor] = value


def _build_document(loader) -> Any:
    """The single document of loader's stream, None if it is empty, built
    from the parser's events into what SafeLoader builds from mappings,
    sequences and the core scalar tags, with anchors, aliases and merge
    keys. Any other tag, `!!set`, `!!omap` and `!!pairs` among them, and
    the `=` key are a ConstructorError. Within this one load, each distinct
    scalar event is resolved and built once. An untagged plain scalar is
    keyed by its text alone: the resolver reads nothing else of it, since
    SafeLoader has no path resolvers. Every other scalar is keyed by (tag,
    text, implicit), a tuple that no text equals, so a quoted `'1'` or a
    `!!str 1` never reads as an earlier plain `1`."""
    get_event, resolve = loader.get_event, loader.resolve
    scalars: dict = {}  # text or (tag, text, implicit) -> value
    anchors: dict = {}
    stack: list[_Open] = []
    top: _Open | None = None
    get_event()  # the stream's start
    if type(get_event()) is StreamEndEvent:
        return None
    while True:
        event = get_event()
        kind = type(event)
        if kind is ScalarEvent:
            text, tag, implicit = event.value, event.tag, event.implicit
            key = text if tag is None and implicit[0] else (tag, text, implicit)
            try:
                value = scalars[key]
            except KeyError:
                if tag is None or tag == "!":
                    tag = resolve(yaml.ScalarNode, text, implicit)
                value = scalars[key] = _scalar(loader, tag, text, event)
            if value is _MERGE and (top is None or top.state is not _KEY):
                raise _no_constructor(_MERGE_TAG, event)
            if event.anchor is not None:
                _add_anchor(anchors, event, value)
        elif kind is AliasEvent:
            try:
                value = anchors[event.anchor]
            except KeyError:
                raise ComposerError(None, None, f"found undefined alias {event.anchor!r}",
                                    event.start_mark) from None
            if top is not None and top.state is _KEY:
                if isinstance(value, (list, dict)):
                    raise _unhashable(event)
            elif value is _MERGE:
                raise _no_constructor(_MERGE_TAG, event)
        elif kind is MappingStartEvent or kind is SequenceStartEvent:
            if top is not None and top.state is _KEY:
                raise _unhashable(event)
            top = _open(event)
            stack.append(top)
            if event.anchor is not None:
                _add_anchor(anchors, event, top.value)
            continue
        else:  # the end of a mapping or a sequence
            value = _close(stack.pop())
            top = stack[-1] if stack else None
        if top is None:
            break
        state = top.state
        if state is _APPEND:
            top.value.append(value)
        elif state is _KEY:
            top.state = value
        elif state is _MERGE:
            _merge(top, value, event)
            top.state = _KEY
        else:
            top.value[state] = value
            top.state = _KEY
    get_event()  # the document's end
    event = get_event()
    if type(event) is not StreamEndEvent:
        raise ComposerError("expected a single document in the stream", None,
                            "but found another document", event.start_mark)
    return value


_JSON_START = re.compile(r"\s*\{")


def _not_json(constant: str) -> float:
    raise ValueError(f"{constant} is not a JSON number")


def read_yaml(path: Path) -> Any:
    """Parse one YAML (or JSON) file; SchemaError names the path when the
    file cannot be read as UTF-8 text or the text does not parse. A text
    that starts with `{` and is JSON is read as JSON, where `1e-05` is a
    number (YAML 1.1 reads it as a string); NaN and Infinity are left to
    the YAML reading."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not readable: {exc}") from None
    if _JSON_START.match(text):
        try:
            return json.loads(text, parse_constant=_not_json)
        except (ValueError, RecursionError):
            pass
    try:
        loader = YAML_LOADER(text)
        try:
            return _build_document(loader)
        finally:
            loader.dispose()
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


def _real(value: Any, path: str) -> float:
    """value as a finite float: a number, not a bool, and neither NaN nor
    infinite. An int beyond float range counts as infinite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {_type_name(value)}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise SchemaError(f"{path}: must be finite, got {value}")
    return value


# The keys each mapping of a scenario or sweep spec accepts, by section: a
# list section's entry holds the keys of each item. Any other key is a
# SchemaError. docs/scenario-schema.md lists the same keys, and a test holds
# the two together. incident's keys are in the order their moments must come.
SECTION_KEYS: dict[str, Collection[str]] = {
    "scenario": {
        "name", "description", "seed", "duration_s", "update_interval_s", "site",
        "incident", "truck_arrival_s", "nodes", "link", "programs", "tables",
        "tasks", "timeline", "flight_plan", "loss",
    },
    "nodes": {"node_id", "kind", "compute_capacity", "location", "mobile",
              "cached_programs", "battery_budget_s"},
    "programs": {"program_id", "task_kind", "compute_cost", "input_payload_bits",
                 "output_payload_bits", "encode_cost", "decode_cost"},
    "tables": {"server_id", "program_id", "capable", "advertised_latency_s"},
    "tasks": {"task_id", "required_programs", "origin", "issue_time_s", "consumer"},
    "timeline": {"phase_id", "implied_task_kinds", "completes_when"},
    "flight_plan": {"t_s", "altitude_m", "rotating"},
    "link": {"bands", "floor_mbps", "one_way_fraction", "variance_scale"},
    "link.bands.<band>": {"dl_mean_mbps", "ul_mean_mbps", "rtt_mean_ms", "dl_std_mbps",
                          "ul_std_mbps"},
    "incident": ("start_s", "observed_s", "reported_s"),
    "sweep": {"parameter", "values", "replicates", "base_seed"},
}


def _section(value: Any, path: str, keys: Collection[str]) -> dict:
    """value as a mapping that holds no key but keys, a SECTION_KEYS entry."""
    value = _as_map(value, path)
    for key in value:
        if key not in keys:
            raise SchemaError(f"{path}: unknown key {key!r}")
    return value


def _records(items: Any, section: str) -> Iterator[tuple[str, dict]]:
    """(path, mapping) of each item of a list section, its keys checked."""
    keys = SECTION_KEYS[section]
    for i, raw in enumerate(_as_list(items, section)):
        path = f"{section}[{i}]"
        yield path, _section(raw, path, keys)


def _absent(key: str, path: str, default: Any, required: bool) -> Any:
    """The value of a missing key: its default, unless the key is required."""
    if required:
        raise SchemaError(f"{path}.{key}: required")
    return default


def _num(doc: Mapping, key: str, path: str, *, default=None, required=False,
         minimum=None, positive=False) -> float | None:
    if key not in doc:
        return _absent(key, path, default, required)
    value = _real(doc[key], f"{path}.{key}")
    if positive and not value > 0:
        raise SchemaError(f"{path}.{key}: must be positive")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{path}.{key}: must be >= {minimum}")
    return value


def _int(doc: Mapping, key: str, path: str, *, default=None, required=False,
         minimum=None) -> int | None:
    if key not in doc:
        return _absent(key, path, default, required)
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
        return _absent(key, path, default, required)
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


# the value -> member table of each enum whose members a field or a key names
_MEMBERS = {choices: {c.value: c for c in choices} for choices in (NodeKind, Origin, Band)}


def _choice(doc: Mapping, key: str, path: str, choices: type[Enum], *, default=None,
            required=False) -> Enum:
    """A string field naming one member of the enum choices. A default
    member finds itself: each choices is a str enum, equal to its value."""
    value = _str(doc, key, path, default=default, required=required)
    try:
        return _MEMBERS[choices][value]
    except KeyError:
        raise SchemaError(
            f"{path}.{key}: expected one of {[c.value for c in choices]}"
        ) from None


def _program_ids(raw: Any, path: str, programs: Mapping, *, unique=False) -> list[str]:
    """A list of known program ids; with unique, no id may repeat."""
    ids = _as_list(raw, path)
    for j, pid in enumerate(ids):
        if not isinstance(pid, str):
            raise SchemaError(f"{path}[{j}]: expected a string")
        if pid not in programs:
            raise DanglingReference(f"{path}[{j}]: unknown program {pid!r}")
        if unique and pid in ids[:j]:
            raise InvariantViolation(f"{path}[{j}]: duplicate program {pid!r}")
    return ids


# ------------------------------------------------------------------ sections


def _parse_nodes(doc: Mapping, programs: dict[str, ProgramSpec]) -> dict[int, NodeProfile]:
    nodes: dict[int, NodeProfile] = {}
    for path, raw in _records(doc.get("nodes"), "nodes"):
        node_id = _int(raw, "node_id", path, required=True, minimum=0)
        if node_id in nodes:
            raise InvariantViolation(f"{path}.node_id: duplicate node id {node_id}")
        kind = _choice(raw, "kind", path, NodeKind, required=True)
        if (node_id == PLATFORM) != (kind is NodeKind.UAV5GP):
            raise InvariantViolation(
                f"{path}.kind: node {PLATFORM}, and only node {PLATFORM}, is the "
                f"aerial platform ({NodeKind.UAV5GP.value}); node {node_id} is "
                f"{kind.value}"
            )
        loc_list = _as_list(raw.get("location", [0.0, 0.0, 0.0]), f"{path}.location")
        if len(loc_list) != 3:
            raise SchemaError(f"{path}.location: expected [x, y, z], got {len(loc_list)} items")
        location = tuple(_real(v, f"{path}.location[{j}]") for j, v in enumerate(loc_list))
        capacity = _num(raw, "compute_capacity", path, required=True)
        if not capacity > 0:
            raise InvariantViolation(f"{path}.compute_capacity: must be positive")
        battery = _num(raw, "battery_budget_s", path)
        if kind is not NodeKind.UAV5GP:
            if battery is not None:
                raise InvariantViolation(
                    f"{path}.battery_budget_s: applies only to the aerial platform"
                )
        elif battery is None:
            battery = PRE_ARRIVAL_BUDGET_S
        elif not 0 < battery <= PRE_ARRIVAL_BUDGET_S:
            raise InvariantViolation(
                f"{path}.battery_budget_s: must be in (0, {PRE_ARRIVAL_BUDGET_S}], "
                f"got {battery}"
            )
        cached = _program_ids(raw.get("cached_programs", []), f"{path}.cached_programs",
                              programs)
        nodes[node_id] = NodeProfile(
            node_id=node_id,
            kind=kind,
            compute_capacity=capacity,
            location=location,
            mobile=_bool(raw, "mobile", path),
            cached_programs=frozenset(cached),
            battery_budget=battery,
        )
    if PLATFORM not in nodes:
        raise InvariantViolation(
            f"nodes: the aerial platform (node {PLATFORM}, {NodeKind.UAV5GP.value}) "
            "is required"
        )
    return nodes


def _parse_programs(doc: Mapping) -> dict[str, ProgramSpec]:
    programs: dict[str, ProgramSpec] = {}
    for path, raw in _records(doc.get("programs", []), "programs"):
        program_id = _ident(raw, "program_id", path)
        if program_id in programs:
            raise InvariantViolation(f"{path}.program_id: duplicate {program_id!r}")
        task_kind = _str(raw, "task_kind", path, default="other")
        if not task_kind:
            raise SchemaError(f"{path}.task_kind: must be non-empty")
        programs[program_id] = ProgramSpec(
            program_id=program_id,
            task_kind=task_kind,
            compute_cost=_num(raw, "compute_cost", path, default=0.0, minimum=0.0),
            input_payload=_num(raw, "input_payload_bits", path, default=0.0, minimum=0.0),
            output_payload=_num(raw, "output_payload_bits", path, default=0.0, minimum=0.0),
            encode_cost=_num(raw, "encode_cost", path, default=0.0, minimum=0.0),
            decode_cost=_num(raw, "decode_cost", path, default=0.0, minimum=0.0),
        )
    return programs


def _parse_tables(
    doc: Mapping, programs: dict[str, ProgramSpec], nodes: dict[int, NodeProfile]
) -> tuple[ProgramTableEntry, ...]:
    entries = []
    for path, raw in _records(doc.get("tables", []), "tables"):
        server_id = _int(raw, "server_id", path, required=True, minimum=0)
        program_id = _str(raw, "program_id", path, required=True)
        if program_id not in programs:
            raise DanglingReference(f"{path}.program_id: unknown program {program_id!r}")
        if server_id not in nodes:
            raise DanglingReference(f"{path}.server_id: unknown node {server_id}")
        if server_id == PLATFORM:
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
    for path, raw in _records(doc.get("tasks", []), "tasks"):
        task_id = _ident(raw, "task_id", path)
        if task_id in seen:
            raise InvariantViolation(f"{path}.task_id: duplicate {task_id!r}")
        seen.add(task_id)
        # an empty list has no item to reject, so it is reported after them
        required = _program_ids(raw.get("required_programs"), f"{path}.required_programs",
                                programs, unique=True)
        if not required:
            raise SchemaError(f"{path}.required_programs: must be non-empty")
        origin = _choice(raw, "origin", path, Origin, default=Origin.COMMANDER_ORDER)
        consumer = _int(raw, "consumer", path, default=PLATFORM, minimum=0)
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
        return PhasePredicate("elapsed", _num(raw, key, path))
    if key in ("program_result", "task_completed"):
        value = _str(raw, key, path)
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
    for path, raw in _records(raw_list, "timeline"):
        phase_id = _ident(raw, "phase_id", path)
        if phase_id in seen:
            raise InvariantViolation(f"{path}.phase_id: duplicate {phase_id!r}")
        seen.add(phase_id)
        # accepted and checked, but no run reads them
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
        phases.append(Phase(phase_id=phase_id, completes_when=predicate))
    if not phases:
        raise SchemaError("timeline: must be non-empty when present")
    return tuple(phases)


def _parse_flight_plan(doc: Mapping) -> tuple[Waypoint, ...]:
    raw_list = doc.get("flight_plan")
    if raw_list is None:
        return (Waypoint(0.0, 0.0),)
    waypoints = []
    for path, raw in _records(raw_list, "flight_plan"):
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
    raw = _section(doc.get("link", {}), "link", SECTION_KEYS["link"])
    bands = default_link_params()
    overrides = _as_map(raw.get("bands", {}), "link.bands")
    key_by_band = _MEMBERS[Band]
    for band_key, fields_raw in overrides.items():
        if band_key not in key_by_band:
            raise SchemaError(
                f"link.bands: unknown regime {band_key!r}, expected one of "
                f"{sorted(key_by_band)}"
            )
        band = key_by_band[band_key]
        path = f"link.bands.{band_key}"
        fields_raw = _section(fields_raw, path, SECTION_KEYS["link.bands.<band>"])
        base = bands[band]
        try:
            bands[band] = LinkBandParams(
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


def _node_key(key: Any) -> Any:
    """A mapping key as a node id where it is one: JSON object keys are
    strings, so the canonical decimal string of an int stands for the int."""
    if isinstance(key, str):
        try:
            if str(int(key)) == key:
                return int(key)
        except ValueError:
            pass
    return key


def _parse_loss(doc: Mapping, nodes: dict[int, NodeProfile]) -> dict[int, float]:
    raw = _as_map(doc.get("loss", {}), "loss")
    loss: dict[int, float] = {}
    for key, value in raw.items():
        path = f"loss.{key}"
        server = _node_key(key)
        if isinstance(server, bool) or not isinstance(server, int):
            raise SchemaError(f"{path}: server keys must be integers")
        if server in loss:
            raise SchemaError(f"{path}: server {server} is listed twice")
        if server not in nodes:
            raise DanglingReference(f"{path}: unknown node {server}")
        if server == PLATFORM:
            raise InvariantViolation(f"{path}: local execution cannot be lossy")
        loss[server] = _real(value, path)
        if not 0 <= loss[server] <= 1:
            raise SchemaError(f"{path}: expected a probability in [0, 1]")
    return loss


def _parse_incident(doc: Mapping, duration: float) -> Incident:
    names = SECTION_KEYS["incident"]
    raw = _section(doc.get("incident", {}), "incident", names)
    times = [_num(raw, name, "incident", minimum=0.0) for name in names]
    known = [(name, t) for name, t in zip(names, times) if t is not None]
    for (a_name, a), (b_name, b) in zip(known, known[1:]):
        if a > b:
            raise InvariantViolation(f"incident: {a_name} must not come after {b_name}")
    for name, t in known:
        if t > duration:
            raise InvariantViolation(f"incident.{name}: beyond the mission duration")
    return Incident(*times)


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
    doc = _section(doc, "scenario", SECTION_KEYS["scenario"])

    name = _str(doc, "name", "scenario", required=True)
    if not name:
        raise SchemaError("scenario.name: must be non-empty")
    duration = _num(doc, "duration_s", "scenario", required=True, positive=True)
    t_int = _num(doc, "update_interval_s", "scenario", default=1.0, positive=True)
    seed = _int(doc, "seed", "scenario", default=0, minimum=0)
    if seed >= SEED_BOUND:
        raise SchemaError("scenario.seed: must be < 2**128")

    programs = _parse_programs(doc)
    nodes = _parse_nodes(doc, programs)
    tables = _parse_tables(doc, programs, nodes)
    tasks = _parse_tasks(doc, programs, nodes)
    phases = _parse_timeline(doc, programs, tasks)
    flight_plan = _parse_flight_plan(doc)
    bands, floor, fraction, variance = _parse_link(doc)
    loss = _parse_loss(doc, nodes)
    incident = _parse_incident(doc, duration)

    battery = nodes[PLATFORM].battery_budget
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

    # accepted and checked, but no run reads them
    _as_map(doc.get("site", {}), "site")
    _str(doc, "description", "scenario")

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
    )


# ---------------------------------------------------------------- sweep spec


def _scale_payloads(scenario: Scenario, scale: float) -> Scenario:
    return replace(scenario, programs={
        pid: replace(p, input_payload=p.input_payload * scale,
                     output_payload=p.output_payload * scale)
        for pid, p in scenario.programs.items()
    })


# Each sweepable parameter: the values it admits (the rule as text, its
# check) and how a value overrides the scenario.
SWEEP_PARAMETERS = {
    "update_interval": ("> 0", lambda v: v > 0, lambda sc, v: replace(sc, t_int=v)),
    "payload_scale": (">= 0", lambda v: v >= 0, _scale_payloads),
    # the value is a constant mission altitude in meters
    "altitude_profile": (
        f"within [0, {MAX_ALTITUDE_M}] m", lambda v: 0 <= v <= MAX_ALTITUDE_M,
        lambda sc, v: replace(sc, flight_plan=(Waypoint(0.0, v),)),
    ),
    "link_variance_scale": (">= 0", lambda v: v >= 0, lambda sc, v: replace(sc, variance_scale=v)),
}


def apply_sweep_value(scenario: Scenario, parameter: str, value: float) -> Scenario:
    """Return a copy of the scenario with one swept parameter overridden;
    load_sweep_spec has checked the value's range. An unknown parameter
    raises KeyError."""
    return SWEEP_PARAMETERS[parameter][2](scenario, value)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter experiment plan: values × replicates; replicate r runs
    at seed base_seed + r. load_sweep_spec checks every rule."""

    parameter: str
    values: tuple[float, ...]
    replicates: int
    base_seed: int = 0


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Load and check a sweep-spec file, every value against its parameter's
    range, before any run. Messages start with the file and name the field
    as sweep.<field>."""
    p = Path(path)
    if not p.exists():
        raise SchemaError(f"sweep spec file not found: {p}")
    doc = read_yaml(p)
    try:
        doc = _section(doc, "sweep", SECTION_KEYS["sweep"])
        parameter = _str(doc, "parameter", "sweep", required=True)
        if parameter not in SWEEP_PARAMETERS:
            raise SchemaError(
                f"sweep.parameter: expected one of {list(SWEEP_PARAMETERS)}, got {parameter!r}"
            )
        rule, admits, _ = SWEEP_PARAMETERS[parameter]
        values = []
        for i, raw in enumerate(_as_list(doc.get("values"), "sweep.values")):
            value = _real(raw, f"sweep.values[{i}]")
            if not admits(value):
                raise InvariantViolation(
                    f"sweep.values[{i}]: {parameter} must be {rule}, got {value}"
                )
            values.append(value)
        if not values:
            raise SchemaError("sweep.values: must be non-empty")
        replicates = _int(doc, "replicates", "sweep", default=1, minimum=1)
        base_seed = _int(doc, "base_seed", "sweep", default=0, minimum=0)
        if base_seed + replicates - 1 >= SEED_BOUND:
            raise SchemaError("sweep.base_seed: base_seed + replicates - 1 must be < 2**128")
    except ScenarioError as exc:
        raise type(exc)(f"{p}: {exc}") from None
    return SweepSpec(parameter, tuple(values), replicates, base_seed)
