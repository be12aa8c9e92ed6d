"""The public API: the exported names are pinned and resolve, the README's
Python examples run as written, and no module of the package, its tests,
its benchmark or its tools imports a name it never uses."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import birdsim

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
