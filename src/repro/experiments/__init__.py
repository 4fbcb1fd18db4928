"""Experiment harness: one module per table/figure of the paper.

Every table module exposes ``run(...) -> TableResult`` (``tables4to7``:
``run_all``); the command-line entry point is ``repro experiment``::

    repro-fpga experiment table3 --scale 0.4 --runs 20

Modules: ``table1`` (device library), ``table2`` (benchmark
characteristics), ``figure3`` (replication-potential distributions),
``table3`` (min-cut with/without functional replication), ``tables4to7``
(the k-way T-sweep feeding Tables IV, V, VI and VII plus the auxiliary
device-distribution table), and ``record`` (the driver that regenerates
the full ``results/`` record behind EXPERIMENTS.md).
"""

from repro.experiments.common import TableResult, load_suite, SuiteCircuit

__all__ = ["TableResult", "load_suite", "SuiteCircuit"]
