"""Ablation: k-way carve effort (candidate seeds per carve).

DESIGN.md: the reconstruction of [3] generates multiple feasible partitions
per carve and keeps the best.  More seeds per carve should give equal or
better (cost, interconnect) objectives at proportionally higher CPU.
"""

import time

from benchmarks.conftest import run_once
from repro.core.flow import kway_solution
from repro.core.results import kway_report_from_solution
from repro.experiments.common import load_suite


def test_bench_carve_effort(benchmark, scale):
    suite = load_suite(("s5378",), max(scale, 0.25))
    mapped = suite[0].mapped

    def compute():
        results = {}
        for seeds in (1, 3):
            start = time.perf_counter()
            solution = kway_solution(
                mapped, threshold=1, n_solutions=1, seeds_per_carve=seeds, seed=2
            )
            elapsed = time.perf_counter() - start
            results[seeds] = (kway_report_from_solution(solution, 1, elapsed), elapsed)
        return results

    results = run_once(benchmark, compute)
    print()
    for seeds, (report, elapsed) in results.items():
        print(
            f"seeds_per_carve={seeds}: cost={report.total_cost:.0f} "
            f"iob_util={100 * report.avg_iob_utilization:.1f}% "
            f"k={report.k} ({elapsed:.1f}s)"
        )
    low, high = results[1][0], results[3][0]
    # More search effort must not be dramatically worse on the cost.
    assert high.total_cost <= low.total_cost * 1.15
