"""Bench for Table IV: percentage of replicated cells and CPU cost.

Shape targets (paper): replication stays moderate -- per-circuit
percentages in the single digits to ~15%, averages a few percent -- and the
replication-enabled flow costs more CPU than the baseline.
"""

from benchmarks.conftest import run_once
from repro.experiments import tables4to7
from repro.replication.potential import T_INFINITY


def test_bench_table4(benchmark, kway_sweep, scale):
    result = run_once(benchmark, lambda: tables4to7.table4(kway_sweep, scale))
    avg_row = result.rows[-1]
    for pct in avg_row[1:-2]:
        assert 0.0 <= pct <= 30.0  # moderate replication on average
    # No-replication baseline really replicates nothing.
    for name in {n for n, _ in kway_sweep}:
        assert kway_sweep[(name, T_INFINITY)].replicated_fraction == 0.0
    print()
    print(result.text())
