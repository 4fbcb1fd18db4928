"""Table II: benchmark circuit characteristics after XC3000 mapping.

Columns exactly as in the paper: #CLBs, #IOBs, #DFF, #NETs, #PINs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.common import TableResult, load_suite
from repro.netlist.benchmarks import RECORDED_SEED
from repro.netlist.stats import mapped_stats


def run(
    circuits: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = RECORDED_SEED,
) -> TableResult:
    rows = []
    for sc in load_suite(circuits, scale, seed):
        stats = mapped_stats(sc.mapped)
        rows.append(
            [
                stats.name,
                stats.n_clbs,
                stats.n_iobs,
                stats.n_dff,
                stats.n_nets,
                stats.n_pins,
            ]
        )
    return TableResult(
        title=f"Table II: benchmark characteristics after mapping (scale={scale})",
        headers=["Circuit", "#CLBs", "#IOBs", "#DFF", "#NETs", "#PINs"],
        rows=rows,
        notes=["circuits are synthetic equivalents built to the published ISCAS profiles"],
    )
