"""Smoke tests for the example scripts."""

import os
import py_compile
import runpy
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def _example_paths():
    return sorted(
        os.path.join(EXAMPLES_DIR, name)
        for name in os.listdir(EXAMPLES_DIR)
        if name.endswith(".py")
    )


def test_at_least_five_examples():
    assert len(_example_paths()) >= 5


@pytest.mark.parametrize("path", _example_paths(), ids=os.path.basename)
def test_examples_compile(path):
    py_compile.compile(path, doraise=True)


def test_benchmarks_and_examples_resolve_their_imports():
    """The benches and examples import program names no other test
    reaches: collect every bench, and import every example without
    running its ``__main__`` block, so a removed name fails here."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--collect-only", "-q",
         "-p", "no:cacheprovider"],
        cwd=os.path.dirname(src),
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for path in _example_paths():
        runpy.run_path(path, run_name="example")


def test_quickstart_runs(capsys, monkeypatch):
    path = os.path.join(EXAMPLES_DIR, "quickstart.py")
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert "F-M min-cut" in out
    assert "functional repl" in out


def test_replication_analysis_runs(capsys, monkeypatch):
    path = os.path.join(EXAMPLES_DIR, "replication_analysis.py")
    monkeypatch.setattr(sys, "argv", [path])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert "G_m  = -1" in out
    assert "G_X2 = +2" in out


def test_shootout_runs_small(capsys, monkeypatch):
    path = os.path.join(EXAMPLES_DIR, "partitioner_shootout.py")
    monkeypatch.setattr(sys, "argv", [path, "s5378", "0.08"])
    runpy.run_path(path, run_name="__main__")
    out = capsys.readouterr().out
    assert "DAC'94" in out
