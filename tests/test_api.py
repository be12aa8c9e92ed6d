"""The public API: the exported names are pinned and resolve, the README's
Python examples run as written, bad arguments are rejected with a pinned
type and message, and no module of the package, its tests, its benchmark or
its tools imports a name it never uses."""

import ast
import contextlib
import io
import math
import re
from dataclasses import replace
from pathlib import Path

import pytest

import birdsim
from birdsim import (
    Band,
    FlightState,
    LinkBandParams,
    LinkModel,
    NoCapableServer,
    NodeKind,
    NodeProfile,
    PhasePredicate,
    ProgramSpec,
    ProgramTableEntry,
    Task,
    default_link_params,
    default_profiles,
    load_scenario,
    run,
    select_server,
)
from birdsim import engine
from birdsim.cli import feasibility_report
from birdsim.model import CriticalMoments, record_moment
from birdsim.pipeline import LatencyBreakdown, stage_time
from birdsim.scenario import apply_sweep_value

from conftest import BUNDLED_SCENARIO

ROOT = Path(__file__).resolve().parent.parent
README_EXAMPLES = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
SOURCE = Path(birdsim.__file__).parent

# What README and the acceptance tests import, the two types needed to build a
# Scenario by hand, and the exceptions the public functions raise.
PUBLIC_API = [
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


def test_the_public_api_is_pinned():
    assert sorted(birdsim.__all__) == PUBLIC_API


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from birdsim import *", namespace)
    assert len(set(birdsim.__all__)) == len(birdsim.__all__)
    assert set(birdsim.__all__) <= set(namespace)


def test_readme_documents_the_python_api():
    assert README_EXAMPLES


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)))
def test_readme_python_example_runs(index, monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples use repository-relative paths
    code = compile(README_EXAMPLES[index], f"README.md python example {index + 1}", "exec")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(code, {})
    assert out.getvalue()


def test_readme_imports_only_public_names():
    imported = {
        alias.name
        for example in README_EXAMPLES
        for node in ast.walk(ast.parse(example))
        if isinstance(node, ast.ImportFrom) and node.module == "birdsim"
        for alias in node.names
    }
    assert imported
    assert imported <= set(PUBLIC_API)


def _all_but_rotation():
    return {b: p for b, p in default_link_params().items() if b is not Band.ROTATION}


def _bundled_with_task_2_named_monitor():
    sc = load_scenario(BUNDLED_SCENARIO)
    tasks = list(sc.tasks)
    tasks[1] = replace(tasks[1], task_id="monitor")
    return replace(sc, tasks=tuple(tasks))


# Each field a run plan reads, and a change of the bundled mission that makes
# only that field another object, of an equal value or not
_PLAN_MISFITS = {
    "flight_plan": lambda sc: apply_sweep_value(sc, "altitude_profile", 30.0),
    "programs": lambda sc: apply_sweep_value(sc, "payload_scale", 1.0),
    "tables": lambda sc: replace(sc, tables=tuple(list(sc.tables))),
    "nodes": lambda sc: replace(sc, nodes=dict(sc.nodes)),
    "bands": lambda sc: replace(sc, bands=dict(sc.bands)),
    "floor_mbps": lambda sc: replace(sc, floor_mbps=sc.floor_mbps * 2),
    "one_way_fraction": lambda sc: replace(sc, one_way_fraction=sc.one_way_fraction / 2),
    "incident": lambda sc: replace(sc, incident=replace(sc.incident)),
}


def _run_on_the_bundled_plan(field):
    sc = load_scenario(BUNDLED_SCENARIO)
    run(_PLAN_MISFITS[field](sc), plan=engine.plan(sc))


def _only_incapable_rows():
    program = ProgramSpec("p", "object_detection", 1.0, 1.0, 1.0)
    select_server(program, [ProgramTableEntry(1, "p", capable=False)],
                  default_profiles(), LinkModel(noise_seed=0), FlightState(0.0, 10.0))


IDLE_SERVER = NodeProfile(node_id=3, kind=NodeKind.ECS, compute_capacity=0.0)
NAN = float("nan")  # fails every range check written `not x >= 0`


@pytest.mark.parametrize("call, error, message", [
    (lambda: LinkModel(bands=_all_but_rotation()), ValueError,
     "bands missing regimes: ['rotation']"),
    (lambda: LinkModel(floor_mbps=0.0), ValueError, "floor_mbps must be positive"),
    (lambda: LinkModel(variance_scale=-0.5), ValueError, "variance_scale must be >= 0"),
    (lambda: LinkModel(one_way_fraction=0.0), ValueError,
     "one_way_fraction must be in (0, 1]"),
    (lambda: LinkModel(one_way_fraction=1.5), ValueError,
     "one_way_fraction must be in (0, 1]"),
    (_only_incapable_rows, NoCapableServer, "no capable server for program 'p'"),
    (lambda: stage_time(-1.0, default_profiles()[1]), ValueError, "cost must be >= 0"),
    (lambda: stage_time(1.0, IDLE_SERVER), ValueError,
     "node 3 has no positive compute capacity"),
    (lambda: record_moment(CriticalMoments(), "start", -1.0), ValueError,
     "moment timestamps must be >= 0"),
    (lambda: ProgramTableEntry(1, "p", advertised_latency=-0.5), ValueError,
     "advertised_latency must be >= 0"),
    (lambda: ProgramSpec("", "object_detection", 1.0, 1.0, 1.0), ValueError,
     "program_id must be non-empty"),
    (lambda: ProgramSpec("p", "", 1.0, 1.0, 1.0), ValueError,
     "task_kind must be non-empty"),
    (lambda: ProgramSpec("p", "object_detection", 1.0, 1.0, 1.0, decode_cost=-1.0),
     ValueError, "decode_cost must be >= 0"),
    (lambda: Task("", ("p",)), ValueError, "task_id must be non-empty"),
    (lambda: Task("t", ()), ValueError, "a task requires at least one program"),
    (lambda: Task("t", ("p",), issue_time=-1.0), ValueError, "issue_time must be >= 0"),
    (lambda: Task("t", ("p", "q", "p")), ValueError, "a task requires each program once"),
    (lambda: Task("t", ("p",), issue_time=NAN), ValueError, "issue_time must be >= 0"),
    (lambda: ProgramSpec("p", "object_detection", NAN, 1.0, 1.0), ValueError,
     "compute_cost must be >= 0"),
    (lambda: ProgramSpec("p", "object_detection", 1.0, 1.0, NAN), ValueError,
     "output_payload must be >= 0"),
    (lambda: ProgramTableEntry(1, "p", advertised_latency=NAN), ValueError,
     "advertised_latency must be >= 0"),
    (lambda: LinkBandParams(10.0, 10.0, 20.0, dl_std=NAN), ValueError,
     "dl_std must be >= 0"),
    (lambda: LinkBandParams(10.0, 10.0, 20.0, ul_std=NAN), ValueError,
     "ul_std must be >= 0"),
    (lambda: LinkModel(variance_scale=NAN), ValueError, "variance_scale must be >= 0"),
    (lambda: LatencyBreakdown(0.1, NAN, 0.1, 0.1), ValueError, "t_comm must be >= 0"),
    (lambda: stage_time(NAN, default_profiles()[1]), ValueError, "cost must be >= 0"),
    (lambda: record_moment(CriticalMoments(), "start", NAN), ValueError,
     "moment timestamps must be >= 0"),
    (lambda: PhasePredicate("sometimes"), ValueError,
     "unknown predicate kind: 'sometimes'"),
    (lambda: PhasePredicate("elapsed", "soon"), ValueError,
     "elapsed predicate needs a numeric value"),
    (lambda: PhasePredicate("elapsed", True), ValueError,
     "elapsed predicate needs a numeric value"),
    (lambda: PhasePredicate("elapsed", NAN), ValueError,
     "elapsed predicate needs a finite value, got nan"),
    (lambda: PhasePredicate("elapsed", -math.inf), ValueError,
     "elapsed predicate needs a finite value, got -inf"),
    (lambda: LinkModel(noise_seed=-1), ValueError,
     "noise_seed must be an int in [0, 2**128), got -1"),
    (lambda: LinkModel(noise_seed=2**128), ValueError,
     f"noise_seed must be an int in [0, 2**128), got {2**128}"),
    (lambda: LinkModel(noise_seed=1.5), ValueError,
     "noise_seed must be an int in [0, 2**128), got 1.5"),
    (lambda: run(load_scenario(BUNDLED_SCENARIO), 2**128 + 42), ValueError,
     f"noise_seed must be an int in [0, 2**128), got {2**128 + 42}"),
    (lambda: run(load_scenario(BUNDLED_SCENARIO), True), ValueError,
     "noise_seed must be an int in [0, 2**128), got True"),
    (lambda: PhasePredicate("program_result"), ValueError,
     "program_result predicate needs a target id"),
    (lambda: PhasePredicate("task_completed", ""), ValueError,
     "task_completed predicate needs a target id"),
    (lambda: run(_bundled_with_task_2_named_monitor()), ValueError,
     "task id 'monitor' is repeated"),
    (lambda: feasibility_report(25.0, Band.LOW_ALTITUDE, {}), ValueError,
     "bands missing regimes: ['low', 'high', 'rotation']"),
    *[(lambda field=field: _run_on_the_bundled_plan(field), ValueError,
       f"plan does not fit the scenario: its {field} is not the object the plan "
       "was built from") for field in _PLAN_MISFITS],
], ids=["link-bands-missing", "link-floor-zero", "link-variance-negative",
        "link-one-way-zero", "link-one-way-above-one", "select-only-incapable",
        "stage-cost-negative", "stage-capacity-zero", "moment-negative",
        "table-latency-negative", "program-id-empty", "program-kind-empty",
        "program-cost-negative", "task-id-empty", "task-no-programs",
        "task-issue-negative", "task-program-repeated", "task-issue-nan",
        "program-cost-nan", "program-payload-nan", "table-latency-nan",
        "band-dl-std-nan", "band-ul-std-nan", "link-variance-nan",
        "breakdown-nan", "stage-cost-nan", "moment-nan", "predicate-unknown-kind", "predicate-elapsed-text",
        "predicate-elapsed-bool", "predicate-elapsed-nan", "predicate-elapsed-infinite",
        "link-seed-negative", "link-seed-past-key", "link-seed-float", "run-seed-past-key",
        "run-seed-bool",
        "predicate-program-no-target", "predicate-task-empty-target",
        "run-task-id-repeated", "feasibility-bands-empty",
        *[f"run-plan-of-another-{field.replace('_', '-')}" for field in _PLAN_MISFITS]])
def test_bad_arguments_are_rejected_with_their_message(call, error, message):
    with pytest.raises(Exception) as err:
        call()
    assert type(err.value) is error
    assert str(err.value) == message


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


# __init__.py imports names only to re-export them
CHECKED_MODULES = [
    *(pytest.param(p, id=p.name)
      for p in sorted(SOURCE.glob("*.py")) if p.name != "__init__.py"),
    *(pytest.param(p, id=f"{folder}/{p.name}")
      for folder in ("tests", "bench", "tools")
      for p in sorted((ROOT / folder).glob("*.py"))),
]


@pytest.mark.parametrize("path", CHECKED_MODULES)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_no_module_imports_a_private_name_from_a_sibling():
    private = [
        f"{path.name}:{node.lineno}: {alias.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
