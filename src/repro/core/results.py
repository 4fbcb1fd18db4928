"""Serializable result records for the two end-to-end experiments."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Tuple

from repro.obs.ledger import quality_from_bipartition, quality_from_kway_report


@dataclass
class BipartitionReport:
    """Outcome of a multi-run min-cut bipartitioning experiment (Table III)."""

    circuit: str
    algorithm: str  # "fm" | "fm+functional" | "fm+traditional"
    runs: int
    cuts: List[int]
    replicated_counts: List[int]
    elapsed_seconds: float
    n_cells: int
    #: Fewer runs completed than were asked for (a deadline or a
    #: cancellation wound the sweep down early).
    truncated: bool = False

    @property
    def best_cut(self) -> int:
        return min(self.cuts)

    @property
    def avg_cut(self) -> float:
        return sum(self.cuts) / len(self.cuts)

    @property
    def avg_replicated(self) -> float:
        if not self.replicated_counts:
            return 0.0
        return sum(self.replicated_counts) / len(self.replicated_counts)

    def as_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "algorithm": self.algorithm,
            "runs": self.runs,
            "best_cut": self.best_cut,
            "avg_cut": round(self.avg_cut, 2),
            "avg_replicated": round(self.avg_replicated, 2),
            "elapsed_s": round(self.elapsed_seconds, 3),
            "cells": self.n_cells,
        }


@dataclass
class KWayReport:
    """Outcome of one heterogeneous k-way partitioning run (Tables IV-VII)."""

    circuit: str
    threshold: float
    k: int
    total_cost: float
    device_counts: Dict[str, int]
    avg_clb_utilization: float
    avg_iob_utilization: float
    replicated_fraction: float
    n_cells: int
    n_instances: int
    feasible: bool
    elapsed_seconds: float

    def as_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["threshold"] = "inf" if self.threshold == float("inf") else self.threshold
        return data


def kway_report_from_solution(
    solution: Any, threshold: float, elapsed_seconds: float
) -> KWayReport:
    """The :class:`KWayReport` row of a full
    :class:`~repro.partition.kway.KWaySolution`."""
    return KWayReport(
        circuit=solution.name,
        threshold=float(threshold),
        k=solution.k,
        total_cost=solution.cost.total_cost,
        device_counts=solution.cost.device_counts,
        avg_clb_utilization=solution.cost.avg_clb_utilization,
        avg_iob_utilization=solution.cost.avg_iob_utilization,
        replicated_fraction=solution.replicated_fraction,
        n_cells=solution.n_original_cells,
        n_instances=solution.n_instances,
        feasible=solution.feasible,
        elapsed_seconds=elapsed_seconds,
    )


def solve_row(
    verb: str, solution: Any, threshold: float, elapsed_seconds: float
) -> Tuple[Any, Dict[str, Any]]:
    """``(table row, ledger quality vector)`` of one solve of ``verb``.

    A k-way solution's row is its :class:`KWayReport`; a bipartition
    solve returns its :class:`BipartitionReport`, which is its own row.
    """
    if verb == "partition":
        report = kway_report_from_solution(solution, threshold, elapsed_seconds)
        return report, quality_from_kway_report(report)
    return solution, quality_from_bipartition(solution)


def dump_reports(reports: List[object], path: str) -> None:
    """Write a list of report dataclasses to a JSON file."""
    payload = [r.as_dict() for r in reports]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
