"""Bench for Table V: average CLB utilization vs the no-replication baseline.

Shape target (paper): replication raises average CLB utilization by a few
points (77% -> at most ~83%); it must never halve utilization or blow past
the devices' utilization ceiling.
"""

from benchmarks.conftest import run_once
from repro.experiments import tables4to7


def test_bench_table5(benchmark, kway_sweep, scale):
    result = run_once(benchmark, lambda: tables4to7.table5(kway_sweep, scale))
    avg_row = result.rows[-1]
    base = avg_row[1]
    assert 0.0 < base <= 100.0
    for i in (2, 4, 6):  # T=1/2/3 utilization columns
        util = avg_row[i]
        assert util <= 100.0
        assert util >= base - 10.0  # replication should not crater utilization
    print()
    print(result.text())
