"""The public API: every exported name resolves, and the README's Python
examples run as written."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import birdsim

ROOT = Path(__file__).resolve().parent.parent
README_EXAMPLES = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)


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
