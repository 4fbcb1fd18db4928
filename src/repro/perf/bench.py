"""Timing helpers and the ``BENCH_partition.json`` report format.

The perf harness (``benchmarks/bench_fm_hot.py``) times the optimized
partitioning core against the frozen reference engines
(:mod:`repro.partition.reference`) *in the same process*, so the speedup
ratios are machine-fair.  Results are written as ``BENCH_partition.json``
and gated against a checked-in baseline.

**Regression gating.**  Raw wall-clock is not comparable across machines,
so the gate normalizes by the reference engine measured in the same run:
a circuit regresses when its *speedup ratio* (reference seconds / fast
seconds, the median over interleaved pairs, see :func:`paired_timing`)
drops more than ``threshold`` below the baseline ratio.  This is
equivalent to gating machine-speed-corrected wall-clock:

    fast_now <= fast_base * (1 + threshold) * (ref_now / ref_base)
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Default allowed relative slowdown before the perf gate fails.
DEFAULT_THRESHOLD = 0.30

#: Default report filename.
REPORT_NAME = "BENCH_partition.json"

#: Append-only bench trajectory (one JSONL entry per bench run).
HISTORY_NAME = "BENCH_partition_history.jsonl"

#: Schema tag stamped into every history entry.
HISTORY_SCHEMA_NAME = "repro-bench-history/1"


def _anchored_path(filename: str, anchor: Optional[str]) -> str:
    """``<repo root>/<filename>``, found by walking up to pyproject.toml.

    Falls back to the current working directory when no project root is
    found, so the file still lands somewhere predictable.
    """
    here = os.path.dirname(os.path.abspath(anchor or __file__))
    probe = here
    while True:
        if os.path.isfile(os.path.join(probe, "pyproject.toml")):
            return os.path.join(probe, filename)
        parent = os.path.dirname(probe)
        if parent == probe:
            return os.path.join(os.getcwd(), filename)
        probe = parent


def default_report_path(anchor: Optional[str] = None) -> str:
    """Default destination for ``BENCH_partition.json``: the repo root."""
    return _anchored_path(REPORT_NAME, anchor)


def default_history_path(anchor: Optional[str] = None) -> str:
    """Default destination for the bench trajectory JSONL: the repo root."""
    return _anchored_path(HISTORY_NAME, anchor)


def time_call(fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Wall-clock one call; returns ``(seconds, result)``."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def speedup(ref_seconds: float, fast_seconds: float) -> float:
    """Reference-over-fast ratio; > 1 means the fast path wins."""
    if fast_seconds <= 0.0:
        return float("inf")
    return ref_seconds / fast_seconds


def paired_timing(
    fast: Callable[[], Any], ref: Callable[[], Any], repeats: int = 1
) -> Tuple[Dict[str, float], Any, Any]:
    """Time ``fast`` and ``ref`` in ``repeats`` back-to-back pairs.

    Each pair times both calls under the same machine load, alternating
    which goes first, so a slow spell moves both sides of that pair's
    ratio; the median over pairs then drops a disturbed pair.  Returns
    ``(stats, fast result, ref result)`` with the median ``fast_seconds``
    and ``ref_seconds`` and, as ``speedup``, the median per-pair ratio.
    """
    fast_times: List[float] = []
    ref_times: List[float] = []
    ratios: List[float] = []
    fast_result = ref_result = None
    for i in range(max(1, repeats)):
        if i % 2 == 0:
            fast_s, fast_result = time_call(fast)
            ref_s, ref_result = time_call(ref)
        else:
            ref_s, ref_result = time_call(ref)
            fast_s, fast_result = time_call(fast)
        fast_times.append(fast_s)
        ref_times.append(ref_s)
        ratios.append(speedup(ref_s, fast_s))
    stats = {
        "fast_seconds": statistics.median(fast_times),
        "ref_seconds": statistics.median(ref_times),
        "speedup": statistics.median(ratios),
    }
    return stats, fast_result, ref_result


def make_report(
    scale: float,
    circuits: Dict[str, Dict[str, Any]],
) -> Dict[str, Any]:
    """Assemble the ``BENCH_partition.json`` payload."""
    return {
        "schema": "repro-bench-partition/1",
        "scale": scale,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "circuits": circuits,
    }


def _git_stamp() -> str:
    """The current git revision, or ``"unknown"``.

    Bench runs happen outside checkouts too (tarball installs, bare CI
    caches); the trajectory keeps appending with an explicit marker
    instead of crashing or writing ``null``.
    """
    try:
        from repro.obs.ledger import git_revision

        rev = git_revision()
    except Exception:
        return "unknown"
    return rev if rev else "unknown"


def history_entry(report: Dict[str, Any]) -> Dict[str, Any]:
    """One timestamped trajectory line distilled from a bench report."""
    now = time.time()
    return {
        "schema": HISTORY_SCHEMA_NAME,
        "ts": now,
        "iso_ts": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(now)) + "Z",
        "git_rev": _git_stamp(),
        "scale": report.get("scale"),
        "python": report.get("python"),
        "machine": report.get("machine"),
        "circuits": {
            name: {
                section: {
                    "ref_seconds": sec.get("ref_seconds"),
                    "fast_seconds": sec.get("fast_seconds"),
                    "speedup": sec.get("speedup"),
                }
                for section, sec in entry.items()
                if isinstance(sec, dict) and "ref_seconds" in sec
            }
            for name, entry in report.get("circuits", {}).items()
        },
    }


def append_history(path: str, report: Dict[str, Any]) -> Dict[str, Any]:
    """Append one :func:`history_entry` line to the trajectory file."""
    entry = history_entry(report)
    with open(path, "a") as fh:
        json.dump(entry, fh, sort_keys=True)
        fh.write("\n")
    return entry


def write_report(
    path: str, report: Dict[str, Any], history_path: Optional[str] = None
) -> None:
    """Write the JSON report; also append to the trajectory when given.

    ``BENCH_partition.json`` is overwritten in place, so on its own the
    repo carries no perf *trajectory*; passing ``history_path`` (usually
    :func:`default_history_path`) appends one timestamped, git-stamped
    entry per run to ``BENCH_partition_history.jsonl``.
    """
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if history_path:
        append_history(history_path, report)


def load_report(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def check_regressions(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[str]:
    """Compare a fresh report against the baseline; returns violations.

    Every circuit/section in the *baseline* must appear in the current
    report -- a missing one is a coverage violation, not a silent pass
    (otherwise trimming the bench config would defeat the gate).  Extra
    circuits in the current report are fine (new coverage).  Pairs with a
    sub-10ms reference timing are skipped as measurement noise.  An empty
    list means the gate passes.
    """
    problems: List[str] = []
    if current.get("scale") != baseline.get("scale"):
        return [
            f"scale mismatch: current {current.get('scale')} vs "
            f"baseline {baseline.get('scale')}; refresh the baseline"
        ]
    cur_circuits = current.get("circuits", {})
    for name, base in sorted(baseline.get("circuits", {}).items()):
        entry = cur_circuits.get(name)
        if entry is None:
            problems.append(
                f"{name}: in baseline but missing from current report "
                "(coverage lost; re-run the full bench or refresh the baseline)"
            )
            continue
        for section in ("kway", "fm", "replication", "multilevel", "incremental"):
            cur_sec = entry.get(section)
            base_sec = base.get(section)
            if not base_sec:
                continue
            if not cur_sec:
                problems.append(
                    f"{name}/{section}: in baseline but missing from current "
                    "report (coverage lost)"
                )
                continue
            if base_sec["ref_seconds"] < 0.01 or cur_sec["ref_seconds"] < 0.01:
                continue  # too fast to measure reliably
            base_ratio = base_sec["speedup"]
            cur_ratio = cur_sec["speedup"]
            floor = base_ratio / (1.0 + threshold)
            if cur_ratio < floor:
                problems.append(
                    f"{name}/{section}: speedup {cur_ratio:.2f}x fell below "
                    f"{floor:.2f}x (baseline {base_ratio:.2f}x, "
                    f"threshold {threshold:.0%})"
                )
    return problems
