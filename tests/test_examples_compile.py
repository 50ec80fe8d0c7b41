"""Examples stay importable/compilable; the ones that define thread code
also run end to end, so a thread written in an outdated style fails here."""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert {"quickstart.py", "graph_analytics.py", "coherence_comparison.py",
            "granularity_tuning.py", "custom_application.py"} <= names


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles(path):
    py_compile.compile(str(path), doraise=True)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_has_main_guard_and_docstring(path):
    source = path.read_text()
    assert '__main__' in source
    assert source.lstrip().startswith(('#!/usr/bin/env python\n"""', '"""'))


#: Examples that define their own thread code (tasks with ``execute``).
THREAD_CODE_EXAMPLES = ("quickstart.py", "custom_application.py")


@pytest.mark.parametrize("name", THREAD_CODE_EXAMPLES)
def test_thread_code_example_runs(name):
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(root / "examples" / name)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
