"""Table III: best/average cut-set gains from functional replication.

The paper's first experiment: bipartition every benchmark into two
equal-sized partitions, terminal constraints completely relaxed, 20 runs
per circuit, threshold T = 0 (maximum replication).  Reported per circuit:
best and average cut of plain F-M min-cut, best and average cut of F-M
min-cut + functional replication, and the percentage reductions.  The
paper's aggregate numbers: 34.6% average best-cut reduction, 32.7% average
average-cut reduction, +34% CPU.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.results import BipartitionReport
from repro.experiments.common import (
    TableResult,
    geomean_percent,
    run_manifest,
)
from repro.netlist.benchmarks import RECORDED_SEED


def manifest(
    circuits: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = RECORDED_SEED,
    runs: int = 20,
    threshold: int = 0,
) -> Dict[str, Any]:
    """Table III as a ``repro-batch-manifest/1`` document.

    One bipartition job per (circuit, algorithm); the threshold applies
    to the replication runs, plain F-M runs at the request default.
    """
    from repro.batch.manifest import MANIFEST_SCHEMA_NAME
    from repro.netlist.benchmarks import BENCHMARK_NAMES

    jobs: List[Dict[str, Any]] = []
    for circuit in circuits or BENCHMARK_NAMES:
        jobs.append({"circuit": circuit, "algorithm": "fm"})
        jobs.append(
            {"circuit": circuit, "algorithm": "fm+functional", "threshold": threshold}
        )
    return {
        "schema": MANIFEST_SCHEMA_NAME,
        "name": "table3",
        "defaults": {"verb": "bipartition", "seed": seed, "scale": scale, "runs": runs},
        "jobs": jobs,
    }


def reports_from_batch(report: Any) -> Dict[str, Dict[str, BipartitionReport]]:
    """``{circuit: {algorithm: BipartitionReport}}`` from a finished
    Table III batch, circuits in manifest order."""
    data: Dict[str, Dict[str, BipartitionReport]] = {}
    for outcome in report.outcomes:
        if outcome.verb == "bipartition" and outcome.report is not None:
            data.setdefault(outcome.circuit, {})[outcome.report.algorithm] = (
                outcome.report
            )
    return data


def run(
    circuits: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = RECORDED_SEED,
    runs: int = 20,
    threshold: int = 0,
) -> TableResult:
    """Run the Table III batch on every core and build the table."""
    batch = run_manifest(manifest(circuits, scale, seed, runs, threshold))
    return table(reports_from_batch(batch), scale, runs, threshold)


def table(
    data: Dict[str, Dict[str, BipartitionReport]],
    scale: float,
    runs: int,
    threshold: int,
) -> TableResult:
    """Table III from per-circuit reports of both algorithms."""
    rows: List[List[object]] = []
    best_reds: List[float] = []
    avg_reds: List[float] = []
    cpu_ratios: List[float] = []
    for name, pair in data.items():
        fm, fr = pair["fm"], pair["fm+functional"]
        best_red = 100.0 * (fm.best_cut - fr.best_cut) / fm.best_cut if fm.best_cut else 0.0
        avg_red = 100.0 * (fm.avg_cut - fr.avg_cut) / fm.avg_cut if fm.avg_cut else 0.0
        best_reds.append(best_red)
        avg_reds.append(avg_red)
        if fm.elapsed_seconds > 0:
            cpu_ratios.append(fr.elapsed_seconds / fm.elapsed_seconds)
        rows.append(
            [
                name,
                fm.best_cut,
                round(fm.avg_cut, 1),
                fr.best_cut,
                round(fr.avg_cut, 1),
                best_red,
                avg_red,
            ]
        )
    rows.append(
        [
            "Avg",
            "",
            "",
            "",
            "",
            geomean_percent(best_reds),
            geomean_percent(avg_reds),
        ]
    )
    notes = [
        f"{runs} runs per circuit, equal-size partitions, relaxed terminals, T={threshold}",
    ]
    if cpu_ratios:
        notes.append(
            f"replication CPU overhead: x{sum(cpu_ratios) / len(cpu_ratios):.2f} "
            "(paper: +34% on a SparcStation; ours recomputes gains in Python)"
        )
    return TableResult(
        title=f"Table III: cut-set gains from functional replication (scale={scale})",
        headers=[
            "Circuit",
            "FM best",
            "FM avg",
            "FR best",
            "FR avg",
            "Best red %",
            "Avg red %",
        ],
        rows=rows,
        notes=notes,
    )
