"""Bench for Table VI: total device cost vs the no-replication baseline.

Shape target (paper): with replication the total cost is equal or lower
for nearly every circuit at at least one threshold setting; it never
explodes (the paper's worst case is a mild increase on one circuit).
"""

from benchmarks.conftest import run_once
from repro.experiments import tables4to7


def test_bench_table6(benchmark, kway_sweep, scale):
    result = run_once(benchmark, lambda: tables4to7.table6(kway_sweep, scale))
    for row in result.rows[:-1]:
        base = row[1]
        costs = [row[2], row[4], row[6]]
        # Replication never costs more than 25% extra at the best T...
        assert min(costs) <= base * 1.25
    # ...and on average it does not increase the cost.
    avg_row = result.rows[-1]
    best_avg_reduction = max(avg_row[3], avg_row[5], avg_row[7])
    assert best_avg_reduction >= -5.0
    print()
    print(result.text())
