"""Record the full experiment suite into ``results/`` (EXPERIMENTS.md data).

Runs every table/figure at recording fidelity and writes the rendered
tables to text files.  The k-way sweep (Tables IV-VII) uses per-circuit
scales: the published circuit sizes where runtime permits, reduced scale
for the largest ISCAS'89 circuits (documented in the output and in
EXPERIMENTS.md; the reproduction targets are relative quantities, stable
under scaling).

Tables III-VII run as batch manifests through the batch scheduler
(:func:`repro.experiments.common.run_manifest`): every k-way solution is
verified, the jobs spread over ``--batch-jobs`` workers (default every
core), and each result is memoized in the solution cache
(``--cache-dir``, otherwise ``REPRO_CACHE`` or ``results/cache``), so an
interrupted recording resumes where it stopped and a repeated one is a
replay with identical tables.

Every regeneration is also logged to the run ledger
(:mod:`repro.obs.ledger`, default ``<out>/ledger``): one ``experiment``
record per (circuit, T) configuration of the k-way sweep plus one per
rendered table, so successive recordings can be diffed with
``repro-fpga runs diff``.  A paper-vs-measured drift report
(``paper_drift.txt``) compares the suite aggregates against the paper's
published anchors (Tables V-VII).

Usage::

    python -m repro.experiments.record [--out results] [--skip-table3]
                                       [--ledger PATH | --no-ledger]
                                       [--batch-jobs N] [--cache POLICY]
                                       [--cache-dir PATH]
"""

from __future__ import annotations

import argparse
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.core.results import KWayReport
from repro.experiments import figure3, table1, table2, table3, tables4to7
from repro.experiments.common import TableResult, run_manifest
from repro.netlist.benchmarks import RECORDED_SEED
from repro.obs import ledger as obs_ledger
from repro.request import CachePolicy, parse_threshold

INF = float("inf")

#: Per-circuit scale for the k-way sweep (runtime-bounded).
#: The pad-heavy c5315/c7552 and the big ISCAS'89 circuits run reduced;
#: every configuration remains a genuine multi-device problem.
KWAY_SCALES: Dict[str, float] = {
    "c3540": 1.0,
    "c5315": 0.6,
    "c6288": 1.0,
    "c7552": 0.6,
    "s5378": 0.7,
    "s9234": 0.4,
    "s13207": 0.35,
    "s15850": 0.3,
    "s38584": 0.25,
}

#: The paper's published suite aggregates the drift report anchors on:
#: Table V reports average CLB utilization at 77% without replication,
#: rising to at most 83%; Table VII reports average IOB utilization
#: falling from 77% to 67%.
PAPER_ANCHORS: Dict[str, float] = {
    "clb_utilization_baseline": 0.77,
    "clb_utilization_best": 0.83,
    "iob_utilization_baseline": 0.77,
    "iob_utilization_best": 0.67,
}


def _write(out_dir: str, name: str, text: str) -> None:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    print(f"wrote {path}")


def _log_table(
    ledger: Optional[obs_ledger.Ledger],
    name: str,
    result: TableResult,
    seed: int,
) -> None:
    """One ``experiment`` ledger record per rendered table."""
    if ledger is None:
        return
    ledger.append(
        obs_ledger.build_record(
            kind="experiment",
            circuit="suite",
            config={"verb": "experiment", "table": name},
            seed=seed,
            quality={"table": name, "rows": result.row_dict()},
        )
    )


def paper_drift_report(data: Dict[Tuple[str, float], KWayReport]) -> str:
    """Paper-vs-measured drift over the k-way sweep aggregates.

    Compares the suite means against :data:`PAPER_ANCHORS`: baseline
    (T = inf, no replication) and best-over-T CLB utilization (Table V),
    baseline and best-over-T IOB utilization (Table VII), and the
    fraction of circuits whose total device cost improves at >= 1
    threshold setting (Table VI's qualitative claim).
    """
    circuits = sorted({c for c, _ in data})
    finite_ts = sorted({t for _, t in data if t != INF})

    def mean(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    def suite_mean(metric: str, t: float) -> float:
        return mean(
            [getattr(data[(c, t)], metric) for c in circuits if (c, t) in data]
        )

    clb_base = suite_mean("avg_clb_utilization", INF)
    iob_base = suite_mean("avg_iob_utilization", INF)
    clb_best = max(
        (suite_mean("avg_clb_utilization", t) for t in finite_ts),
        default=clb_base,
    )
    iob_best = min(
        (suite_mean("avg_iob_utilization", t) for t in finite_ts),
        default=iob_base,
    )
    improved = [
        c
        for c in circuits
        if (c, INF) in data
        and any(
            (c, t) in data
            and data[(c, t)].total_cost < data[(c, INF)].total_cost
            for t in finite_ts
        )
    ]

    rows = [
        ("avg CLB utilization, baseline (T=inf)",
         PAPER_ANCHORS["clb_utilization_baseline"], clb_base),
        ("avg CLB utilization, best over T",
         PAPER_ANCHORS["clb_utilization_best"], clb_best),
        ("avg IOB utilization, baseline (T=inf)",
         PAPER_ANCHORS["iob_utilization_baseline"], iob_base),
        ("avg IOB utilization, best over T",
         PAPER_ANCHORS["iob_utilization_best"], iob_best),
    ]
    lines = [
        "Paper-vs-measured drift (k-way sweep aggregates)",
        "=" * 48,
        f"{'metric':<42} {'paper':>7} {'measured':>9} {'drift':>8}",
        "-" * 70,
    ]
    for label, paper, measured in rows:
        lines.append(
            f"{label:<42} {paper:>6.0%} {measured:>8.1%} "
            f"{measured - paper:>+7.1%}"
        )
    lines.append(
        f"circuits with device cost reduced at >= 1 T: "
        f"{len(improved)}/{len(circuits)} "
        f"(paper: nearly every circuit)"
    )
    lines.append(
        "note: measured at the recording scales, see table notes; the "
        "reproduction targets relative quantities."
    )
    return "\n".join(lines)


def sweep_manifest(seed: int = RECORDED_SEED) -> Dict[str, Any]:
    """The recording k-way sweep as a batch manifest: per-circuit
    :data:`KWAY_SCALES`, one solution, two seeds and two devices per
    carve.  The ledger records of :func:`record_kway_sweep` read their
    settings from it."""
    return tables4to7.sweep_manifest(
        circuits=list(KWAY_SCALES),
        seed=seed,
        n_solutions=1,
        seeds_per_carve=2,
        devices_per_carve=2,
        scales=KWAY_SCALES,
        name="record-kway-sweep",
    )


def _log_sweep(
    ledger: Optional[obs_ledger.Ledger],
    manifest: Dict[str, Any],
    data: Dict[Tuple[str, float], KWayReport],
    seed: int,
) -> None:
    """One ``experiment`` ledger record per job of the recording sweep,
    its settings read from the job and the manifest defaults."""
    if ledger is None:
        return
    carve = {
        name: manifest["defaults"][name]
        for name in ("n_solutions", "seeds_per_carve", "devices_per_carve")
    }
    for job in manifest["jobs"]:
        report = data[(job["circuit"], parse_threshold(job["threshold"]))]
        ledger.append(
            obs_ledger.build_record(
                kind="experiment",
                circuit=job["circuit"],
                config={
                    "verb": "experiment",
                    "suite": "tables4to7",
                    "threshold": job["threshold"],
                    "scale": job["scale"],
                    **carve,
                },
                seed=seed,
                quality=obs_ledger.quality_from_kway_report(report),
                elapsed_seconds=report.elapsed_seconds,
            )
        )


def record_kway_sweep(
    out_dir: str,
    seed: int = RECORDED_SEED,
    ledger: Optional[obs_ledger.Ledger] = None,
    batch_jobs: int = 0,
    cache: str = "use",
    cache_dir: Optional[str] = None,
) -> Dict[Tuple[str, float], KWayReport]:
    """Run the recording sweep (:func:`sweep_manifest`) through the
    batch scheduler and write Tables IV-VII, the device distributions
    and the drift report."""
    manifest = sweep_manifest(seed)
    batch = run_manifest(manifest, jobs=batch_jobs, cache=cache, cache_dir=cache_dir)
    print(f"  batch sweep: {batch.summary()}")
    data = tables4to7.reports_from_batch(batch)
    _log_sweep(ledger, manifest, data, seed)
    scales_note = ", ".join(f"{c}@{s}" for c, s in KWAY_SCALES.items())
    for name, fn in (
        ("table4.txt", tables4to7.table4),
        ("table5.txt", tables4to7.table5),
        ("table6.txt", tables4to7.table6),
        ("table7.txt", tables4to7.table7),
        ("device_distribution.txt", tables4to7.device_distribution_table),
    ):
        result = fn(data, scale=0.0)
        result.title = result.title.replace("(scale=0.0)", "(per-circuit scales)")
        result.notes.append(f"per-circuit scales: {scales_note}")
        _write(out_dir, name, result.text())
        _log_table(ledger, name.replace(".txt", ""), result, seed)
    _write(out_dir, "paper_drift.txt", paper_drift_report(data))
    return data


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--skip-table3", action="store_true")
    parser.add_argument("--table3-scale", type=float, default=1.0)
    parser.add_argument("--table3-runs", type=int, default=20)
    parser.add_argument(
        "--ledger",
        metavar="PATH",
        default=None,
        help="run-ledger destination (default <out>/ledger)",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip ledger logging entirely",
    )
    parser.add_argument(
        "--batch-jobs",
        type=int,
        default=0,
        metavar="N",
        help="batch worker processes for Tables III-VII (default 0: "
        "every core)",
    )
    parser.add_argument(
        "--cache",
        choices=[policy.value for policy in CachePolicy],
        default=CachePolicy.USE.value,
        help="solution-cache policy for Tables III-VII (default use)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="solution-cache directory (default REPRO_CACHE, otherwise "
        "results/cache)",
    )
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    ledger: Optional[obs_ledger.Ledger] = None
    if not args.no_ledger:
        ledger = obs_ledger.Ledger(
            args.ledger or os.path.join(args.out, "ledger")
        )
        print(f"logging runs to {ledger.path}")

    result = table1.run()
    _write(args.out, "table1.txt", result.text())
    _log_table(ledger, "table1", result, args.seed)
    result = table2.run(scale=1.0, seed=args.seed)
    _write(args.out, "table2.txt", result.text())
    _log_table(ledger, "table2", result, args.seed)
    _write(args.out, "figure3.txt", figure3.run(scale=1.0, seed=args.seed).text())
    if not args.skip_table3:
        batch = run_manifest(
            table3.manifest(
                scale=args.table3_scale, seed=args.seed, runs=args.table3_runs
            ),
            jobs=args.batch_jobs,
            cache=args.cache,
            cache_dir=args.cache_dir,
        )
        print(f"  batch table3: {batch.summary()}")
        result = table3.table(
            table3.reports_from_batch(batch), args.table3_scale, args.table3_runs, 0
        )
        _write(args.out, "table3.txt", result.text())
        _log_table(ledger, "table3", result, args.seed)
    record_kway_sweep(
        args.out,
        seed=args.seed,
        ledger=ledger,
        batch_jobs=args.batch_jobs,
        cache=args.cache,
        cache_dir=args.cache_dir,
    )


if __name__ == "__main__":
    main()
