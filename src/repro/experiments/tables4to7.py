"""Tables IV-VII: the k-way heterogeneous partitioning T-sweep.

One sweep (each circuit partitioned at T = infinity, 0, 1, 2, 3) feeds four
paper tables:

* **Table IV** -- percentage of replicated cells per T, plus CPU seconds;
* **Table V**  -- average CLB utilization per T vs. the no-replication
  baseline (paper: 77% baseline rising to at most 83%);
* **Table VI** -- total device cost per T vs. baseline (cost reduced for
  nearly every circuit at >= 1 setting of T);
* **Table VII** -- average IOB utilization per T vs. baseline (the
  interconnect measure of eq. 2; paper: 77% down to 67% on average).

The sweep is one batch manifest (:func:`sweep_manifest`, one partition
job per circuit and threshold) run through
:func:`repro.experiments.common.run_manifest`; :func:`reports_from_batch`
turns the finished batch into the ``{(circuit, T): KWayReport}`` dict
the table builders take, and :func:`sweep` does both.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.batch.manifest import MANIFEST_SCHEMA_NAME, threshold_label
from repro.core.results import KWayReport
from repro.experiments.common import TableResult, run_manifest
from repro.netlist.benchmarks import BENCHMARK_NAMES
from repro.request import MAPPING_SEED, VERB_PARAMS, threshold_json

INF = float("inf")
#: The paper's threshold settings: the baseline plus T = 0..3 (its Table IV
#: note: "T = 0 includes multi-output cells with psi = 0").
DEFAULT_THRESHOLDS: Tuple[float, ...] = (INF, 0, 1, 2, 3)

#: The declared k-way request defaults the sweep's settings default to.
_DEFAULTS = VERB_PARAMS["partition"]


def sweep_manifest(
    circuits: Optional[Sequence[str]] = None,
    scale: float = _DEFAULTS["scale"],
    seed: int = MAPPING_SEED,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    n_solutions: int = _DEFAULTS["n_solutions"],
    seeds_per_carve: int = _DEFAULTS["seeds_per_carve"],
    devices_per_carve: int = _DEFAULTS["devices_per_carve"],
    scales: Optional[Dict[str, float]] = None,
    name: str = "tables4to7",
) -> Dict[str, Any]:
    """The T-sweep as a ``repro-batch-manifest/1`` document.

    One partition job per (circuit, threshold); ``scales`` overrides the
    global ``scale`` per circuit (the recording scales of
    :mod:`repro.experiments.record`).  ``T = inf`` is spelled ``"inf"``
    (strict JSON).  :func:`sweep` runs it; ``repro batch manifest``
    writes it to a file.
    """
    names = tuple(circuits) if circuits else BENCHMARK_NAMES
    jobs: List[Dict[str, Any]] = []
    for circuit in names:
        for t in thresholds:
            jobs.append(
                {
                    "circuit": circuit,
                    "scale": (scales or {}).get(circuit, scale),
                    "threshold": threshold_json(t),
                }
            )
    return {
        "schema": MANIFEST_SCHEMA_NAME,
        "name": name,
        "defaults": {
            "verb": "partition",
            "seed": seed,
            "n_solutions": n_solutions,
            "seeds_per_carve": seeds_per_carve,
            "devices_per_carve": devices_per_carve,
        },
        "jobs": jobs,
    }


def reports_from_batch(report: Any) -> Dict[Tuple[str, float], KWayReport]:
    """``{(circuit, T): KWayReport}`` from a finished sweep batch.

    Jobs without a report (failed/skipped) are left out -- the table
    builders fail loudly on the missing key rather than render a hole.
    """
    data: Dict[Tuple[str, float], KWayReport] = {}
    for outcome in report.outcomes:
        if outcome.verb == "partition" and outcome.report is not None:
            data[(outcome.circuit, outcome.report.threshold)] = outcome.report
    return data


def sweep(
    circuits: Optional[Sequence[str]] = None,
    scale: float = _DEFAULTS["scale"],
    seed: int = MAPPING_SEED,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    **settings: Any,
) -> Dict[Tuple[str, float], KWayReport]:
    """Run the T-sweep through the batch scheduler on every core;
    ``settings`` are :func:`sweep_manifest`'s carve settings.

    A repeated sweep on the same cache replays bit-identical reports,
    the CPU-seconds columns included (a hit reports the original solve
    time).
    """
    batch = run_manifest(sweep_manifest(circuits, scale, seed, thresholds, **settings))
    return reports_from_batch(batch)


def _circuit_names(data: Dict[Tuple[str, float], KWayReport]) -> List[str]:
    seen: Dict[str, None] = {}
    for name, _ in data:
        seen.setdefault(name, None)
    return list(seen)


def _infeasible_notes(data: Dict[Tuple[str, float], KWayReport]) -> List[str]:
    """One note naming every (circuit, T) whose solution is infeasible:
    such a solution still has a cost and utilizations, so its row
    prints like any other."""
    rows = [
        f"{name} T={threshold_label(t)}"
        for (name, t), report in data.items()
        if not report.feasible
    ]
    if not rows:
        return []
    return [
        "infeasible (a block exceeds its device's CLB or IOB limit): "
        + ", ".join(rows)
    ]


def table4(data: Dict[Tuple[str, float], KWayReport], scale: float) -> TableResult:
    """Table IV: % replicated cells per T and CPU seconds."""
    thresholds = [t for t in DEFAULT_THRESHOLDS if t != INF]
    headers = ["Circuit"] + [f"T={threshold_label(t)} %" for t in thresholds] + [
        "CPU s (T=1)",
        "CPU s (no repl)",
    ]
    rows: List[List[object]] = []
    sums = [0.0] * len(thresholds)
    names = _circuit_names(data)
    for name in names:
        row: List[object] = [name]
        for i, t in enumerate(thresholds):
            pct = 100.0 * data[(name, t)].replicated_fraction
            sums[i] += pct
            row.append(pct)
        row.append(round(data[(name, 1)].elapsed_seconds, 2))
        row.append(round(data[(name, INF)].elapsed_seconds, 2))
        rows.append(row)
    rows.append(["Avg"] + [s / len(names) for s in sums] + ["", ""])
    return TableResult(
        title=f"Table IV: percentage of replicated cells and CPU cost (scale={scale})",
        headers=headers,
        rows=rows,
        notes=["T=0 includes multi-output cells with psi=0 (paper's note)"]
        + _infeasible_notes(data),
    )


def table5(data: Dict[Tuple[str, float], KWayReport], scale: float) -> TableResult:
    """Table V: average CLB utilization per T vs the no-replication baseline."""
    thresholds = [1.0, 2.0, 3.0]
    headers = ["Circuit", "Util in [3] %"] + [
        col for t in thresholds for col in (f"T={int(t)} %", f"T={int(t)} incr")
    ]
    rows: List[List[object]] = []
    base_sum = 0.0
    t_sums = [0.0] * len(thresholds)
    names = _circuit_names(data)
    for name in names:
        base = 100.0 * data[(name, INF)].avg_clb_utilization
        base_sum += base
        row: List[object] = [name, base]
        for i, t in enumerate(thresholds):
            util = 100.0 * data[(name, t)].avg_clb_utilization
            t_sums[i] += util
            row.extend([util, util - base])
        rows.append(row)
    avg_row: List[object] = ["Avg", base_sum / len(names)]
    for i in range(len(thresholds)):
        avg = t_sums[i] / len(names)
        avg_row.extend([avg, avg - base_sum / len(names)])
    rows.append(avg_row)
    return TableResult(
        title=f"Table V: average CLB utilization after partitioning (scale={scale})",
        headers=headers,
        rows=rows,
        notes=_infeasible_notes(data),
    )


def table6(data: Dict[Tuple[str, float], KWayReport], scale: float) -> TableResult:
    """Table VI: total design cost per T vs the no-replication baseline."""
    thresholds = [1.0, 2.0, 3.0]
    headers = ["Circuit", "Cost in [3]"] + [
        col for t in thresholds for col in (f"T={int(t)}", f"T={int(t)} red %")
    ]
    rows: List[List[object]] = []
    names = _circuit_names(data)
    red_sums = [0.0] * len(thresholds)
    for name in names:
        base = data[(name, INF)].total_cost
        row: List[object] = [name, base]
        for i, t in enumerate(thresholds):
            cost = data[(name, t)].total_cost
            red = 100.0 * (base - cost) / base if base else 0.0
            red_sums[i] += red
            row.extend([cost, red])
        rows.append(row)
    avg_row: List[object] = ["Avg", ""]
    for i in range(len(thresholds)):
        avg_row.extend(["", red_sums[i] / len(names)])
    rows.append(avg_row)
    return TableResult(
        title=f"Table VI: total design cost after partitioning (scale={scale})",
        headers=headers,
        rows=rows,
        notes=_infeasible_notes(data),
    )


def table7(data: Dict[Tuple[str, float], KWayReport], scale: float) -> TableResult:
    """Table VII: average IOB utilization per T vs the baseline (eq. 2)."""
    thresholds = [1.0, 2.0, 3.0]
    headers = ["Circuit", "Util in [3] %"] + [
        col for t in thresholds for col in (f"T={int(t)} %", f"T={int(t)} red %")
    ]
    rows: List[List[object]] = []
    names = _circuit_names(data)
    base_sum = 0.0
    t_sums = [0.0] * len(thresholds)
    for name in names:
        base = 100.0 * data[(name, INF)].avg_iob_utilization
        base_sum += base
        row: List[object] = [name, base]
        for i, t in enumerate(thresholds):
            util = 100.0 * data[(name, t)].avg_iob_utilization
            t_sums[i] += util
            red = 100.0 * (base - util) / base if base else 0.0
            row.extend([util, red])
        rows.append(row)
    avg_row: List[object] = ["Avg", base_sum / len(names)]
    for i in range(len(thresholds)):
        avg = t_sums[i] / len(names)
        red = 100.0 * (base_sum / len(names) - avg) / (base_sum / len(names))
        avg_row.extend([avg, red])
    rows.append(avg_row)
    return TableResult(
        title=f"Table VII: average IOB utilization after partitioning (scale={scale})",
        headers=headers,
        rows=rows,
        notes=_infeasible_notes(data),
    )


def device_distribution_table(
    data: Dict[Tuple[str, float], KWayReport], scale: float
) -> TableResult:
    """Device mix per circuit: baseline vs T = 1.

    The paper remarks that "partitioning with replication utilizes
    different FPGA devices, so while the total costs are comparable with
    [3], the device distributions are quite different"; this auxiliary
    table makes that visible.
    """
    rows: List[List[object]] = []
    for name in _circuit_names(data):
        base = data[(name, INF)]
        repl = data[(name, 1.0)]
        rows.append(
            [
                name,
                base.k,
                _fmt_devices(base.device_counts),
                repl.k,
                _fmt_devices(repl.device_counts),
            ]
        )
    return TableResult(
        title=f"Device distributions: baseline vs T=1 (scale={scale})",
        headers=["Circuit", "k [3]", "devices [3]", "k T=1", "devices T=1"],
        rows=rows,
        notes=_infeasible_notes(data),
    )


def _fmt_devices(counts: Dict[str, int]) -> str:
    return " ".join(f"{n}x{d[-4:]}" for d, n in sorted(counts.items()))


def run_all(
    circuits: Optional[Sequence[str]] = None,
    scale: float = _DEFAULTS["scale"],
    seed: int = MAPPING_SEED,
    **settings: Any,
) -> List[TableResult]:
    """Tables IV-VII from one :func:`sweep`."""
    data = sweep(circuits, scale, seed, **settings)
    return [
        table4(data, scale),
        table5(data, scale),
        table6(data, scale),
        table7(data, scale),
    ]
