"""Bench for Table VII: average IOB utilization (eq. 2) vs baseline.

Shape target (paper): functional replication reduces the interconnect
measure for most circuits (77% -> 67% on average; per-circuit reductions
typically 4-54%, with occasional hard cases like c5315).
"""

from benchmarks.conftest import run_once
from repro.experiments import tables4to7


def test_bench_table7(benchmark, kway_sweep, scale):
    result = run_once(benchmark, lambda: tables4to7.table7(kway_sweep, scale))
    avg_row = result.rows[-1]
    base = avg_row[1]
    best_util = min(avg_row[2], avg_row[4], avg_row[6])
    # On average, the best threshold must not increase interconnect by more
    # than a whisker; typically it reduces it noticeably.
    assert best_util <= base * 1.10
    print()
    print(result.text())
