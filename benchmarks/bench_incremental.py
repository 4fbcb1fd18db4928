#!/usr/bin/env python
"""Incremental (ECO) repartitioning bench: warm-start vs cold solves.

Runs as a plain script (no pytest plugins needed)::

    PYTHONPATH=src python benchmarks/bench_incremental.py [--gate] [--out PATH]

For each workload -- Rent-style generated netlists
(``REPRO_BENCH_INCR_CELLS``, comma-separated approximate cell counts,
default ``400,600``) plus the scaled ``s5378`` benchmark -- the drill
is one ECO cycle against a throwaway cache:

1. **cold** -- a full k-way solve through ``api.run_request`` (cache
   miss, memoized);
2. **edit** -- a deterministic seeded ~1% delta
   (:func:`repro.techmap.delta.seeded_delta`);
3. **warm** -- the same request carrying the delta: nearest-ancestor
   lookup, warm-start projection + boundary repair.

Always asserted (not just under ``--gate``): the warm solve actually
took the warm path, finished at least ``SPEEDUP_FLOOR``x faster than
the cold solve, landed within ``COST_TOLERANCE`` of the cold cost, and
an immediate replay of the warm request is a pure cache hit with a
bit-identical solution document.

``--gate`` compares a ratio that does not move with the fast cold
engine against the checked-in
``benchmarks/BENCH_incremental.baseline.json`` through the standard
speedup-ratio regression gate: the warm repair
(:func:`~repro.partition.incremental.incremental_partition`, checked
bit-identical to the warm solve) timed in ``REPEATS`` interleaved pairs
(:func:`repro.perf.bench.paired_timing`) against the cold solve on the
frozen reference k-way engine (``KWayConfig(engine="reference")``, same
seed and settings, checked bit-identical to the cold solve); the median
per-pair ratio is gated.  Results are written as
``BENCH_incremental.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(__file__))  # for conftest helpers

from conftest import bench_scale  # noqa: E402

from repro import api  # noqa: E402
from repro.cache import codec  # noqa: E402
from repro.cache.store import SolutionCache, use_cache  # noqa: E402
from repro.netlist.benchmarks import benchmark_circuit  # noqa: E402
from repro.netlist.generate import random_logic  # noqa: E402
from repro.obs.ledger import netlist_fingerprint  # noqa: E402
from repro.partition.incremental import (  # noqa: E402
    IncrementalConfig,
    incremental_partition,
)
from repro.partition.kway import (  # noqa: E402
    KWayConfig,
    best_heterogeneous_partition,
)
from repro.perf.bench import (  # noqa: E402
    DEFAULT_THRESHOLD,
    check_regressions,
    load_report,
    make_report,
    paired_timing,
    speedup,
    time_call,
    write_report,
)
from repro.request import build_request  # noqa: E402
from repro.techmap.delta import seeded_delta  # noqa: E402
from repro.techmap.mapped import technology_map  # noqa: E402

BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_incremental.baseline.json"
)
REPORT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_incremental.json",
)

SEED = 7
#: Fraction of cells the ECO drill edits.
EDIT_FRACTION = 0.01
#: The warm solve must beat the cold solve by at least this ratio.
SPEEDUP_FLOOR = 3.0
#: ...and its total device cost must stay within this band of cold.
COST_TOLERANCE = 0.25
#: Rough techmap ratio on Rent-generated netlists: gates per CLB cell.
GATES_PER_CELL = 2.1
#: Interleaved repair/reference pairs per workload (the reference k-way
#: engine takes seconds, like bench_fm_hot.py's k-way sections).
REPEATS = 3


def incr_cell_targets():
    """Approximate Rent-netlist cell counts from ``REPRO_BENCH_INCR_CELLS``.

    The defaults deliberately stay in the regime where the cold carve
    leaves IOB slack (small k): on terminal-saturated designs the warm
    path correctly *declines* (see ``docs/INCREMENTAL.md``), which is
    the fallback drill, not the speedup drill this bench gates.
    """
    raw = os.environ.get("REPRO_BENCH_INCR_CELLS", "400,600")
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _workloads(scale):
    """``(name, netlist)`` pairs: Rent netlists plus scaled s5378."""
    suite = []
    for cells in incr_cell_targets():
        n_gates = int(cells * GATES_PER_CELL)
        n_io = max(1, n_gates // 50)
        name = f"rent{cells}"
        suite.append((name, random_logic(name, n_gates, n_io, n_io, seed=9)))
    suite.append(("s5378", benchmark_circuit("s5378", scale=scale, seed=SEED)))
    return suite


def _eco_cycle(name, netlist):
    """One cold -> edit -> warm -> replay drill; returns the report section."""
    mapped = technology_map(netlist)
    request = build_request(
        "partition", name, seed=SEED, threshold=1, n_solutions=1
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-incr-") as cache_dir:
        with use_cache(SolutionCache(cache_dir)):
            cold_seconds, cold = time_call(
                lambda: api.run_request(request, circuit=netlist, cache="use")
            )
            assert cold.cache_info.get("status") == "miss", (
                f"{name}: cold solve should miss, got {cold.cache_info}"
            )

            delta = seeded_delta(
                mapped,
                fraction=EDIT_FRACTION,
                seed=0,
                base=netlist_fingerprint(mapped),
            )
            eco_request = build_request(
                "partition", name, seed=SEED, threshold=1, n_solutions=1,
                delta=delta.to_dict(),
            )
            warm_seconds, warm = time_call(
                lambda: api.run_request(eco_request, circuit=netlist, cache="use")
            )
            warm_info = (warm.cache_info or {}).get("warm") or {}
            assert warm_info.get("mode") == "warm", (
                f"{name}: expected a warm-start solve, got {warm_info}"
            )

            replay = api.run_request(eco_request, circuit=netlist, cache="use")
            assert replay.cache_info.get("status") == "hit", (
                f"{name}: warm replay should be a pure cache hit, "
                f"got {replay.cache_info}"
            )
            warm_doc = json.dumps(warm.to_dict()["solution"], sort_keys=True)
            replay_doc = json.dumps(replay.to_dict()["solution"], sort_keys=True)
            assert warm_doc == replay_doc, (
                f"{name}: warm replay is not bit-identical"
            )

    # The gated pairs: the warm repair the request ran, against the cold
    # solve on the frozen reference engine.  Neither side moves when the
    # fast cold engine does.
    post, dirty = delta.apply(mapped)
    repair = IncrementalConfig(seed=SEED)
    reference = KWayConfig(threshold=1, seed=SEED, engine="reference")
    stats, (repaired, _), ref = paired_timing(
        lambda: incremental_partition(post, cold.solution, dirty, repair),
        lambda: best_heterogeneous_partition(mapped, reference, 1),
        REPEATS,
    )
    assert codec.encode_solution(repaired) == codec.encode_solution(
        warm.solution
    ), f"{name}: the timed repair diverged from the warm solve"
    assert codec.encode_solution(ref) == codec.encode_solution(
        cold.solution
    ), f"{name}: the reference engine diverged from the cold solve"

    cold_cost = cold.solution.cost.total_cost
    warm_cost = warm.solution.cost.total_cost
    cold_ratio = speedup(cold_seconds, warm_seconds)
    assert cold_ratio >= SPEEDUP_FLOOR, (
        f"{name}: warm solve only {cold_ratio:.2f}x faster than cold "
        f"(floor {SPEEDUP_FLOOR:.0f}x; cold {cold_seconds:.2f}s, "
        f"warm {warm_seconds:.2f}s)"
    )
    assert warm_cost <= cold_cost * (1.0 + COST_TOLERANCE), (
        f"{name}: warm cost {warm_cost:.0f} outside the "
        f"{COST_TOLERANCE:.0%} band of cold cost {cold_cost:.0f}"
    )
    return {
        "ref_seconds": round(stats["ref_seconds"], 4),
        "fast_seconds": round(stats["fast_seconds"], 4),
        "speedup": round(stats["speedup"], 3),
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 4),
        "cold_speedup": round(cold_ratio, 3),
        "cold_cost": cold_cost,
        "warm_cost": warm_cost,
        "dirty_cells": int(warm_info.get("dirty_cells", 0)),
        "replay_identical": True,
    }


def run_bench(scale):
    per_circuit = {}
    for name, netlist in _workloads(scale):
        section = _eco_cycle(name, netlist)
        per_circuit[name] = {"incremental": section}
        print(
            f"{name:10s} repair {section['speedup']:6.2f}x vs reference "
            f"(reference {section['ref_seconds']:.2f}s / "
            f"repair {section['fast_seconds']:.3f}s), "
            f"warm solve {section['cold_speedup']:.2f}x vs cold "
            f"({section['cold_seconds']:.2f}s / {section['warm_seconds']:.2f}s), "
            f"{section['dirty_cells']} dirty cells, "
            f"cost {section['cold_cost']:.0f} -> {section['warm_cost']:.0f}, "
            "replay bit-identical"
        )
    return make_report(scale, per_circuit)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=REPORT_PATH,
        help="report path (default: BENCH_incremental.json at the repo root)",
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
    args = parser.parse_args(argv)

    report = run_bench(bench_scale())
    write_report(args.out, report)
    print(f"wrote {args.out}")
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
