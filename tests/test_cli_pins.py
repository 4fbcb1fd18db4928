"""Pins of what the circuit commands print.

``repro stats``, ``map``, ``analyze`` (circuit and ``--metrics`` forms)
and ``delta gen|diff`` each resolve a circuit and print a report of it.
Every case here runs one command line and compares its exit code,
stdout and stderr with ``tests/golden/cli_pins.json``: any drift in the
netlist a (circuit, scale, seed) resolves to, or in how a command
renders it, fails here.

Regenerate (only when a change of output is intended) from the repo
root::

    PYTHONPATH=src:. python tests/test_cli_pins.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from typing import Dict, List, Tuple

import pytest

from repro.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "cli_pins.json")

#: A small, valid repro-obs-events/1 stream with fixed numbers.
TRACE_LINES = [
    {"v": 1, "ts": 100.0, "kind": "meta", "name": "stream",
     "schema": "repro-obs-events/1", "python": "3", "pid": 1},
    {"v": 1, "ts": 100.5, "kind": "span", "name": "kway.carve", "id": 2,
     "parent": 1, "depth": 1, "dur_s": 0.25, "attrs": {"level": 0}},
    {"v": 1, "ts": 101.0, "kind": "span", "name": "kway.run", "id": 1,
     "parent": None, "depth": 0, "dur_s": 1.5, "attrs": {"k": 3}},
    {"v": 1, "ts": 101.0, "kind": "event", "name": "runner.attempt",
     "fields": {"engine": "fm+functional", "attempt": 1, "outcome": "ok"}},
    {"v": 1, "ts": 101.1, "kind": "counter", "name": "fm.runs", "value": 4},
    {"v": 1, "ts": 101.1, "kind": "gauge", "name": "kway.k", "value": 3},
    {"v": 1, "ts": 101.1, "kind": "histogram", "name": "fm.pass_seconds",
     "count": 2, "sum": 0.3, "min": 0.1, "max": 0.2,
     "buckets": [[0.1, 1], [1.0, 1], [None, 0]]},
]


def _write_inputs(root: str) -> None:
    """The files the cases read: a ``.bench`` circuit and its ECO edit,
    a valid trace, an invalid one and one with a malformed span."""
    from repro.netlist.bench_io import save_bench
    from repro.netlist.benchmarks import benchmark_circuit
    from repro.netlist.gates import GateType

    netlist = benchmark_circuit("s5378", scale=0.1, seed=3)
    save_bench(netlist, os.path.join(root, "pin.bench"))
    gate = next(g for g in netlist.gates() if g.gtype is GateType.AND)
    gate.gtype = GateType.OR
    save_bench(netlist, os.path.join(root, "pin_eco.bench"))
    with open(os.path.join(root, "trace.jsonl"), "w", encoding="utf-8") as fh:
        for line in TRACE_LINES:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    with open(os.path.join(root, "bad.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(TRACE_LINES[0]) + "\n")
        fh.write('{"v": 2, "ts": 101.0, "kind": "counter", "name": "x", "value": 1}\n')
    with open(os.path.join(root, "malformed.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(TRACE_LINES[0]) + "\n")
        fh.write('{"v": 1, "kind": "span", "name": "x"}\n')


def _cases() -> Dict[str, List[str]]:
    """Case id -> argv; ``{dir}`` stands for the inputs' directory."""
    cases: Dict[str, List[str]] = {}
    for spec, circuit in (("name", "s5378"), ("bench", "{dir}/pin.bench")):
        for seed_id, seed in (("default", []), ("seed7", ["--seed", "7"])):
            base = [circuit, "--scale", "0.1", *seed]
            for command in ("stats", "map", "analyze"):
                cases[f"{command}-{spec}-{seed_id}"] = [command, *base]
                cases[f"{command}-{spec}-{seed_id}-json"] = [command, *base, "--json"]
            cases[f"delta-gen-{spec}-{seed_id}"] = [
                "delta", "gen", *base, "--fraction", "0.05", "--delta-seed", "3"
            ]
    for seed_id, seed in (("default", []), ("seed7", ["--seed", "7"])):
        cases[f"delta-diff-name-{seed_id}"] = [
            "delta", "diff", "s5378", "s5378", "--scale", "0.1", *seed
        ]
        cases[f"delta-diff-bench-{seed_id}"] = [
            "delta", "diff", "{dir}/pin.bench", "{dir}/pin_eco.bench", *seed
        ]
    for trace in ("trace", "bad", "malformed"):
        argv = ["analyze", "--metrics", f"{{dir}}/{trace}.jsonl"]
        cases[f"analyze-metrics-{trace}"] = argv
        cases[f"analyze-metrics-{trace}-json"] = [*argv, "--json"]
    return cases


CASES = _cases()


def _run(argv: List[str], root: str) -> Tuple[int, str, str]:
    """``(exit code, stdout, stderr)`` of one command line."""
    argv = [arg.replace("{dir}", root) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().replace(root, "{dir}"), err.getvalue().replace(
        root, "{dir}"
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> str:
    root = str(tmp_path_factory.mktemp("cli_pins"))
    _write_inputs(root)
    return root


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_circuit_command_output_is_pinned(case, inputs, golden):
    code, out, err = _run(CASES[case], inputs)
    assert {"code": code, "stdout": out, "stderr": err} == golden[case]


def _regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        _write_inputs(root)
        pins = {}
        for case, argv in sorted(CASES.items()):
            code, out, err = _run(argv, root)
            pins[case] = {"code": code, "stdout": out, "stderr": err}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pins)} pins to {GOLDEN_PATH}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
