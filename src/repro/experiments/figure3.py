"""Figure 3: distribution of cells vs. replication potential.

The paper's figure stacks, per circuit, the fraction of cells with
psi = 0 (single-output), psi = 0* (multi-output with zero potential) and
psi = 1, 2, 3, ...  The observed shape to reproduce: slightly under half of
all cells are single-output on average, about 10% are multi-output with
psi = 0, and the rest have psi >= 1.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.experiments.common import TableResult, load_suite
from repro.netlist.benchmarks import RECORDED_SEED
from repro.replication.potential import PotentialDistribution, cell_distribution


def distributions(
    circuits: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = RECORDED_SEED,
) -> List[PotentialDistribution]:
    return [
        cell_distribution(sc.hg_full, name=sc.name)
        for sc in load_suite(circuits, scale, seed)
    ]


def run(
    circuits: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = RECORDED_SEED,
    max_psi: int = 5,
) -> TableResult:
    dists = distributions(circuits, scale, seed)
    headers = ["Circuit", "cells", "psi=0 (1-out) %", "psi=0* %"] + [
        f"psi={p} %" for p in range(1, max_psi)
    ] + [f"psi>={max_psi} %"]
    rows = []
    for dist in dists:
        row: List[object] = [
            dist.name,
            dist.n_cells,
            100.0 * dist.fraction(dist.single_output_zero),
            100.0 * dist.fraction(dist.multi_output_zero),
        ]
        for p in range(1, max_psi):
            row.append(100.0 * dist.fraction(dist.by_potential.get(p, 0)))
        tail = sum(c for p, c in dist.by_potential.items() if p >= max_psi)
        row.append(100.0 * dist.fraction(tail))
        rows.append(row)
    return TableResult(
        title=f"Figure 3: cell distribution vs replication potential (scale={scale})",
        headers=headers,
        rows=rows,
    )


def ascii_histogram(dist: PotentialDistribution, width: int = 50) -> str:
    """One circuit's distribution as an ASCII bar chart (Figure 3 style)."""
    lines = [f"{dist.name} ({dist.n_cells} cells)"]
    for label, count, frac in dist.rows():
        bar = "#" * int(round(frac * width))
        lines.append(f"  {label:>16} {100 * frac:5.1f}% {bar}")
    return "\n".join(lines)
