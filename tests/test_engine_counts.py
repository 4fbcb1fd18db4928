"""Pins of the replication engine's work on the flat golden run.

CI's ``ledger-drift`` job runs ``repro partition s5378 --scale 0.25
--threshold 1`` (seed 1994) and gates its result against the flat ledger
golden.  That gate reads the solution, not the work the engine did to
find it.  These pins hold the engine's own ``repl.*`` counters for that
run (runs, passes, committed moves by kind, ``sgain`` upkeep), so a
change that keeps the result but quietly loses a saving -- the exact
pass stop, say -- fails a gate that names the engine layer.  Here the
run is made in-process through the CLI with ``--metrics-out``; CI reads
the same counters from its traced run's ``traced.jsonl``.

Regenerate (only when a change of the engine's work is intended) from
the repo root::

    PYTHONPATH=src python tests/test_engine_counts.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from typing import Dict

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "engine_counts.json")


def stream_counters(path: str) -> Dict[str, int]:
    """The final ``repl.*`` counter values of a JSONL trace stream."""
    counters = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["kind"] == "counter" and record["name"].startswith("repl."):
                counters[record["name"]] = record["value"]
    return counters


def engine_counters(command: str) -> Dict[str, int]:
    """The ``repl.*`` counters of one traced ``repro <command>`` run."""
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traced.jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*command.split(), "--metrics-out", path]) == 0
        return stream_counters(path)


def test_flat_golden_run_engine_counters_match_their_pins():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert engine_counters(golden["command"]) == golden["counters"]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    golden["counters"] = engine_counters(golden["command"])
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    print()
