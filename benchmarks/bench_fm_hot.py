#!/usr/bin/env python
"""Hot-path perf bench: optimized partitioning core vs reference engines.

Runs as a plain script (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_fm_hot.py [--gate] [--out PATH]

For each bench circuit (``REPRO_BENCH_CIRCUITS``, default the quick
subset) at ``REPRO_BENCH_SCALE`` (default 0.25) it times, in one process:

* plain FM multi-start (``fm_bipartition`` vs ``reference_fm_bipartition``);
* replication-aware FM (``replication_bipartition`` vs reference);
* the full k-way carve (``engine="fast"`` vs ``engine="reference"``);

asserts that fast and reference produce **identical** results (cut sizes,
replica sets, device assignment, total cost, verification status), writes
``BENCH_partition.json``, and with ``--gate`` fails (exit 1) when a
section's speedup -- the median ratio over interleaved fast/reference
pairs -- falls more than 30% below the checked-in
``benchmarks/BENCH_partition.baseline.json``.

On top of the paper circuits it benches the multilevel V-cycle against
flat fast FM on Rent-style generated netlists (``REPRO_BENCH_ML_CELLS``,
comma-separated approximate cell counts, default ``10000``; empty skips).
The V-cycle must match or beat flat FM's mean cut at every size and, at
50k+ cells, be at least 5x faster.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))  # for conftest helpers

from conftest import bench_circuits, bench_scale  # noqa: E402

from repro.core.flow import map_circuit  # noqa: E402
from repro.hypergraph.build import build_hypergraph  # noqa: E402
from repro.partition.fm import (  # noqa: E402
    FMConfig,
    best_of_runs as fm_best_of_runs,
    fm_bipartition,
)
from repro.partition.fm_replication import (  # noqa: E402
    ReplicationConfig,
    ReplicationTables,
    replication_bipartition,
)
from repro.partition.kway import KWayConfig, partition_heterogeneous  # noqa: E402
from repro.partition.reference import (  # noqa: E402
    reference_fm_bipartition,
    reference_replication_bipartition,
)
from repro.partition.verify import verify_solution  # noqa: E402
from repro.perf.bench import (  # noqa: E402
    DEFAULT_THRESHOLD,
    check_regressions,
    default_history_path,
    default_report_path,
    load_report,
    make_report,
    paired_timing,
    time_call,
    write_report,
)

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_partition.baseline.json")

SEED = 3
FM_RUNS = 4
# Multilevel section: seeds averaged per netlist size, the speedup floor
# asserted on large netlists, and the size where that floor kicks in
# (small smoke sizes only gate cut quality; the V-cycle's asymptotic win
# needs room to show).
ML_SEEDS = (0, 1, 2)
ML_SPEEDUP_FLOOR = 5.0
ML_GATE_MIN_CELLS = 50_000
# Observed techmap ratio on Rent-generated netlists: gates per CLB cell.
ML_GATES_PER_CELL = 2.1
# Disabled-mode observability must stay in the noise: the estimated cost
# of the hooks, as a fraction of solver wall-clock, is gated at 3%.
OBS_OVERHEAD_LIMIT = 0.03
# Every section times fast and reference in interleaved pairs and gates
# the median per-pair ratio (deterministic workloads, so results are
# identical across repeats).  The fm/replication sections are short and
# noisy on shared machines, so they take more pairs than the k-way carve.
REPEATS = 7
KWAY_REPEATS = 3


def _rounded(stats):
    """A :func:`paired_timing` result rounded for the report."""
    return {
        "fast_seconds": round(stats["fast_seconds"], 4),
        "ref_seconds": round(stats["ref_seconds"], 4),
        "speedup": round(stats["speedup"], 3),
    }


def _fm_section(hg):
    base = FMConfig(seed=SEED)

    def fast():
        best, cuts = fm_best_of_runs(hg, runs=FM_RUNS, base_config=base)
        return best, cuts

    def ref():
        results = [
            reference_fm_bipartition(
                hg, FMConfig(seed=base.seed * 7919 + run)
            )
            for run in range(FM_RUNS)
        ]
        cuts = [r.cut_size for r in results]
        best = min(results, key=lambda r: r.cut_size)
        return best, cuts

    stats, (fast_best, fast_cuts), (ref_best, ref_cuts) = paired_timing(
        fast, ref, REPEATS
    )
    assert fast_cuts == ref_cuts, "FM multi-start diverged from reference"
    assert fast_best.assignment == ref_best.assignment
    return {**_rounded(stats), "cut": fast_best.cut_size}


def _replication_section(hg):
    tables = ReplicationTables(hg)

    def config(run):
        return ReplicationConfig(seed=SEED * 7919 + run, threshold=1)

    def fast():
        return [
            replication_bipartition(hg, config(run), tables=tables)
            for run in range(FM_RUNS)
        ]

    def ref():
        return [
            reference_replication_bipartition(hg, config(run))
            for run in range(FM_RUNS)
        ]

    stats, fast_results, ref_results = paired_timing(fast, ref, REPEATS)
    for a, b in zip(fast_results, ref_results):
        assert a.sides == b.sides, "replication FM diverged from reference"
        assert a.replicas == b.replicas
        assert a.cut_size == b.cut_size
    return {**_rounded(stats), "cut": min(r.cut_size for r in fast_results)}


def _kway_section(mapped):
    stats, fast, ref = paired_timing(
        lambda: partition_heterogeneous(
            mapped, KWayConfig(seed=SEED, engine="fast")
        ),
        lambda: partition_heterogeneous(
            mapped, KWayConfig(seed=SEED, engine="reference")
        ),
        KWAY_REPEATS,
    )

    def shape(solution):
        return [
            (b.device.name, sorted(b.cells), sorted(b.pads))
            for b in solution.blocks
        ]

    assert shape(fast) == shape(ref), "k-way carve diverged from reference"
    assert fast.cost.total_cost == ref.cost.total_cost
    violations = verify_solution(mapped, fast)
    assert not violations, f"solution failed verification: {violations}"
    return {
        **_rounded(stats),
        "k": fast.k,
        "total_cost": fast.cost.total_cost,
        "feasible": fast.cost.feasible,
    }


def ml_cell_targets():
    """Approximate Rent-netlist cell counts from ``REPRO_BENCH_ML_CELLS``."""
    raw = os.environ.get("REPRO_BENCH_ML_CELLS", "10000")
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _rent_suite():
    """``(name, relaxed hypergraph)`` per requested multilevel bench size."""
    from repro.netlist.generate import random_logic
    from repro.techmap.mapped import technology_map

    suite = []
    for cells in ml_cell_targets():
        n_gates = int(cells * ML_GATES_PER_CELL)
        n_io = max(1, n_gates // 50)
        name = f"rent{cells // 1000}k"
        netlist = random_logic(name, n_gates, n_io, n_io, seed=9)
        hg = build_hypergraph(technology_map(netlist), include_terminals=False)
        suite.append((name, hg))
    return suite


def _multilevel_section(hg):
    """V-cycle vs flat fast FM: same seeds, mean cut and wall-clock.

    ``ref`` here is the optimized flat engine (not the frozen reference
    module): the section measures what the multilevel algorithm buys on
    top of the already-fast FM, which is the ratio the regression gate
    tracks.  Quality is asserted directly -- the V-cycle's mean cut must
    not lose to flat FM -- and on 50k+ cell netlists the speedup floor
    (:data:`ML_SPEEDUP_FLOOR`) is asserted too.
    """
    from repro.hypergraph.compact import CompactHypergraph
    from repro.partition.multilevel import MultilevelConfig, vcycle_bipartition

    def fast():
        compact = CompactHypergraph.from_hypergraph(hg)
        return [
            vcycle_bipartition(hg, MultilevelConfig(seed=s), compact=compact)
            for s in ML_SEEDS
        ]

    def ref():
        return [fm_bipartition(hg, FMConfig(seed=s)) for s in ML_SEEDS]

    stats, ml_results, flat_results = paired_timing(fast, ref)
    fast_seconds, ref_seconds = stats["fast_seconds"], stats["ref_seconds"]
    ml_mean = sum(r.cut_size for r in ml_results) / len(ml_results)
    flat_mean = sum(r.cut_size for r in flat_results) / len(flat_results)
    assert ml_mean <= flat_mean, (
        f"multilevel mean cut {ml_mean:.1f} lost to flat FM {flat_mean:.1f} "
        f"on {hg.n_cells} cells"
    )
    ratio = stats["speedup"]
    if hg.n_cells >= ML_GATE_MIN_CELLS:
        assert ratio >= ML_SPEEDUP_FLOOR, (
            f"multilevel speedup {ratio:.2f}x below the "
            f"{ML_SPEEDUP_FLOOR:.0f}x floor on {hg.n_cells} cells "
            f"(flat {ref_seconds:.2f}s vs V-cycle {fast_seconds:.2f}s)"
        )
    return {
        **_rounded(stats),
        "cut": round(ml_mean, 1),
        "ref_cut": round(flat_mean, 1),
        "n_cells": hg.n_cells,
        "levels": ml_results[0].levels,
    }


def _obs_section(hg, mapped):
    """Observability costs: traced-run equivalence + disabled-mode overhead.

    Tracing must never change results, so a fully traced FM / replication
    / k-way run is checked bit-identical against the untraced one.  The
    disabled-mode gate then estimates the price of the instrumentation
    left in the hot path (one ``registry.enabled`` attribute check per
    hook site, tallies included) by micro-timing a check and multiplying
    by the hook executions counted in the traced run; that estimate must
    stay under ``OBS_OVERHEAD_LIMIT`` of the untraced solver wall-clock.
    """
    import time as _time

    from repro.obs.events import ListEmitter
    from repro.obs.metrics import MetricsRegistry, get_registry, use_registry
    from repro.partition.multilevel import MultilevelConfig, vcycle_bipartition

    fm_cfg = FMConfig(seed=SEED)
    repl_cfg = ReplicationConfig(seed=SEED, threshold=1)
    kway_cfg = KWayConfig(seed=SEED)
    ml_cfg = MultilevelConfig(seed=SEED)

    fm_sec, plain_fm = time_call(lambda: fm_bipartition(hg, fm_cfg))
    repl_sec, plain_repl = time_call(lambda: replication_bipartition(hg, repl_cfg))
    kway_sec, plain_kway = time_call(
        lambda: partition_heterogeneous(mapped, kway_cfg)
    )
    ml_sec, plain_ml = time_call(lambda: vcycle_bipartition(hg, ml_cfg))

    registry = MetricsRegistry(enabled=True, emitter=ListEmitter())
    with use_registry(registry):
        traced_fm = fm_bipartition(hg, fm_cfg)
        traced_repl = replication_bipartition(hg, repl_cfg)
        traced_kway = partition_heterogeneous(mapped, kway_cfg)
        traced_ml = vcycle_bipartition(hg, ml_cfg)

    assert traced_fm.assignment == plain_fm.assignment, "tracing changed FM"
    assert traced_fm.cut_size == plain_fm.cut_size
    assert traced_repl.sides == plain_repl.sides, "tracing changed replication FM"
    assert traced_repl.replicas == plain_repl.replicas
    assert traced_repl.cut_size == plain_repl.cut_size
    assert traced_ml.assignment == plain_ml.assignment, "tracing changed V-cycle"
    assert traced_ml.cut_size == plain_ml.cut_size

    def shape(solution):
        return [
            (b.device.name, sorted(b.cells), sorted(b.pads))
            for b in solution.blocks
        ]

    assert shape(traced_kway) == shape(plain_kway), "tracing changed k-way carve"
    assert traced_kway.cost.total_cost == plain_kway.cost.total_cost

    # Price of one disabled hook: an attribute check plus a tally add.
    null_registry = get_registry()
    assert not null_registry.enabled
    checks = 200_000
    acc = 0
    start = _time.perf_counter()
    for _ in range(checks):
        if null_registry.enabled:
            acc += 1
    per_check = (_time.perf_counter() - start) / checks

    counters = registry.snapshot().get("counters", {})
    hooks = (
        counters.get("fm.moves", 0)
        + counters.get("repl.moves.single", 0)
        + counters.get("repl.moves.replicate", 0)
        + counters.get("repl.moves.unreplicate", 0)
        + counters.get("repl.sgain_updates", 0)
        + 4 * (counters.get("fm.passes", 0) + counters.get("repl.passes", 0))
        + 8 * (counters.get("fm.runs", 0) + counters.get("repl.runs", 0))
        + 8 * counters.get("kway.candidates", 0)
        # V-cycle hooks: spans + the per-level ml.level event + counters,
        # all O(levels) per solve.
        + 8
        * (
            counters.get("multilevel.levels", 0)
            + counters.get("multilevel.vcycles", 0)
        )
    )
    solver_seconds = fm_sec + repl_sec + kway_sec + ml_sec
    overhead = per_check * hooks / max(solver_seconds, 1e-9)
    assert overhead < OBS_OVERHEAD_LIMIT, (
        f"disabled-mode observability overhead {overhead:.2%} exceeds "
        f"{OBS_OVERHEAD_LIMIT:.0%} ({hooks} hooks x {per_check * 1e9:.1f}ns "
        f"over {solver_seconds:.3f}s of solver time)"
    )
    return {
        "per_check_ns": round(per_check * 1e9, 2),
        "hooks": hooks,
        "solver_seconds": round(solver_seconds, 4),
        "overhead_fraction": round(overhead, 6),
        "limit": OBS_OVERHEAD_LIMIT,
        "traced_identical": True,
    }


def run_bench(scale, circuits):
    per_circuit = {}
    obs_entry = None
    for name in circuits:
        mapped = map_circuit(name, scale=scale)
        hg = build_hypergraph(mapped, include_terminals=False)
        entry = {
            "fm": _fm_section(hg),
            "replication": _replication_section(hg),
            "kway": _kway_section(mapped),
        }
        per_circuit[name] = entry
        if obs_entry is None:
            obs_entry = _obs_section(hg, mapped)
            print(
                f"{name:8s} obs: {obs_entry['hooks']} hooks x "
                f"{obs_entry['per_check_ns']:.1f}ns = "
                f"{100 * obs_entry['overhead_fraction']:.3f}% of "
                f"{obs_entry['solver_seconds']:.2f}s (limit "
                f"{100 * obs_entry['limit']:.0f}%), traced run identical"
            )
        print(
            f"{name:8s} fm {entry['fm']['speedup']:5.2f}x  "
            f"repl {entry['replication']['speedup']:5.2f}x  "
            f"kway {entry['kway']['speedup']:5.2f}x "
            f"(fast {entry['kway']['fast_seconds']:.2f}s / "
            f"ref {entry['kway']['ref_seconds']:.2f}s)"
        )
    for name, hg in _rent_suite():
        section = _multilevel_section(hg)
        per_circuit[name] = {"multilevel": section}
        print(
            f"{name:8s} multilevel {section['speedup']:5.2f}x on "
            f"{section['n_cells']} cells, {section['levels']} levels "
            f"(V-cycle {section['fast_seconds']:.2f}s / "
            f"flat {section['ref_seconds']:.2f}s, "
            f"cut {section['cut']:.0f} vs {section['ref_cut']:.0f})"
        )
    report = make_report(scale, per_circuit)
    if obs_entry is not None:
        report["obs"] = obs_entry
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=default_report_path(),
        help="report path (default: BENCH_partition.json at the repo root)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help=f"fail when slower than {BASELINE_PATH} beyond the threshold",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed relative slowdown before --gate fails (default 0.30)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="also refresh the checked-in baseline with this run",
    )
    parser.add_argument(
        "--history",
        default=default_history_path(),
        help="bench trajectory JSONL to append to "
        "(default: BENCH_partition_history.jsonl at the repo root)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip appending to the bench trajectory",
    )
    args = parser.parse_args(argv)

    scale = bench_scale()
    circuits = bench_circuits()
    report = run_bench(scale, circuits)
    history_path = None if args.no_history else args.history
    write_report(args.out, report, history_path=history_path)
    print(f"wrote {args.out}")
    if history_path:
        print(f"appended history entry to {history_path}")
    if args.write_baseline:
        write_report(BASELINE_PATH, report)
        print(f"wrote {BASELINE_PATH}")

    if args.gate:
        if not os.path.exists(BASELINE_PATH):
            print(f"no baseline at {BASELINE_PATH}; skipping gate")
            return 0
        problems = check_regressions(
            report, load_report(BASELINE_PATH), threshold=args.threshold
        )
        if problems:
            for problem in problems:
                print(f"PERF REGRESSION: {problem}", file=sys.stderr)
            return 1
        print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
