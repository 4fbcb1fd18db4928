"""Shared configuration for the benchmark harness.

Every paper table/figure has a ``bench_*.py`` here that regenerates it via
``pytest benchmarks/ --benchmark-only``.  Benches run at a reduced *quick*
scale by default so the whole harness finishes in minutes; set environment
variables to reproduce at larger sizes::

    REPRO_BENCH_SCALE=1.0 REPRO_BENCH_CIRCUITS=all pytest benchmarks/ --benchmark-only

Tables III-VII run as batches through the solution cache; the session
installs a temporary store, so a bench run neither reads nor fills
``results/cache``.  The Tables IV-VII benches share one sweep
(:func:`kway_sweep`).  The EXPERIMENTS.md record is produced by
``python -m repro.experiments.record``, which prints the full tables.
"""

from __future__ import annotations

import os
from typing import Tuple

import pytest

from repro.netlist.benchmarks import BENCHMARK_NAMES

#: Quick defaults: a combinational + sequential subset at reduced scale.
DEFAULT_CIRCUITS: Tuple[str, ...] = ("c3540", "c6288", "s5378", "s9234")
DEFAULT_SCALE = 0.25


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", DEFAULT_SCALE))


def bench_circuits() -> Tuple[str, ...]:
    raw = os.environ.get("REPRO_BENCH_CIRCUITS", "")
    if not raw:
        return DEFAULT_CIRCUITS
    if raw.strip().lower() == "all":
        return BENCHMARK_NAMES
    return tuple(name.strip() for name in raw.split(",") if name.strip())


@pytest.fixture(scope="session")
def scale() -> float:
    return bench_scale()


@pytest.fixture(scope="session")
def circuits() -> Tuple[str, ...]:
    return bench_circuits()


@pytest.fixture(scope="session", autouse=True)
def temp_cache(tmp_path_factory):
    from repro.cache.store import SolutionCache, use_cache

    with use_cache(SolutionCache(str(tmp_path_factory.mktemp("cache")))) as store:
        yield store


@pytest.fixture(scope="session")
def kway_sweep(circuits, scale):
    """The Tables IV-VII sweep at quick fidelity, run once per session."""
    from repro.experiments import tables4to7

    return tables4to7.sweep(
        circuits, scale, n_solutions=1, seeds_per_carve=2, devices_per_carve=2
    )


@pytest.fixture(scope="session")
def suite(circuits, scale):
    from repro.experiments.common import load_suite

    return load_suite(circuits, scale)


def run_once(benchmark, fn):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
