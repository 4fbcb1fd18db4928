"""Tests of the benchmark's own machinery.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest e2e_bench -q
"""

from __future__ import annotations

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import e2e_common as common  # noqa: E402
import e2e_trace  # noqa: E402
from e2e_trace import Span  # noqa: E402

INF = math.inf


def _span(name, start, end, parent=-1):
    return Span(name, start, end, parent, None)


def test_self_time_subtracts_children_once_even_when_they_overlap():
    spans = [
        _span("api.run_request", 0.0, 10.0),
        _span("partition.kway", 1.0, 6.0, parent=0),
        _span("partition.engine", 2.0, 4.0, parent=1),
        _span("partition.engine", 3.0, 5.0, parent=1),  # overlaps its sibling
        _span("cache.put", 7.0, 8.0, parent=0),
    ]
    rows = e2e_trace.self_times(spans)
    assert rows["api.run_request"] == (1, pytest.approx(10.0 - 5.0 - 1.0))
    assert rows["partition.kway"] == (1, pytest.approx(5.0 - 3.0))
    assert rows["partition.engine"] == (2, pytest.approx(4.0))
    assert rows["cache.put"] == (1, pytest.approx(1.0))


def test_phase_rows_add_up_to_the_phase():
    spans = [
        _span("batch.run", 1.0, 4.0),
        _span("batch.job", 1.5, 3.5, parent=0),
        _span("api.run_request", 5.0, 6.0),
    ]
    rows = e2e_trace.phase_table(spans, 0.0, 8.0)
    assert sum(r[2] for r in rows) == pytest.approx(8.0)
    assert dict((r[0], r[2]) for r in rows)[e2e_trace.OUTSIDE] == pytest.approx(4.0)


def test_medians_and_sums_treat_failures_as_infinite():
    assert common.median([1.0, 2.0, INF]) == 2.0
    assert common.median([1.0, 3.0, 2.0, INF]) == 2.5
    assert common.median([1.0, INF]) == INF
    assert common.median([]) == INF
    assert common.total([1.0, 2.0]) == 3.0
    assert common.total([1.0, INF]) == INF
    op = common.Op("miss", "r1", sent=1.0, done=1.5, due=0.5)
    assert op.latency == pytest.approx(1.0)
    op.fail("HTTP 429")
    op.fail("later reason")
    assert op.latency == INF and op.verdict == "HTTP 429"


def test_tail_keeps_ten_samples_beyond_the_percentile():
    values = [float(i) for i in range(1, 101)]
    pct, value, n = common.tail(values)
    assert (pct, value, n) == (90, 90.0, 100)
    assert common.tail([1.0, 2.0, 3.0])[0] == 50


@pytest.fixture(scope="module")
def small_solution():
    from repro import api
    from repro.partition.devices import Device, DeviceLibrary

    mapped = api.map("s5378", scale=0.1, seed=3).solution
    library = DeviceLibrary([
        Device("D16", clbs=16, terminals=24, price=10.0, util_upper=0.95),
        Device("D32", clbs=32, terminals=36, price=17.0, util_upper=0.95),
        Device("D64", clbs=64, terminals=52, price=30.0, util_upper=0.95),
    ], name="tiny")
    solution = api.kway_solution(mapped, threshold=1, library=library,
                                 n_solutions=1, seeds_per_carve=1,
                                 devices_per_carve=2)
    assert solution.k >= 2
    return mapped, solution


def test_recomputed_objectives_match_the_reported_cost(small_solution):
    mapped, solution = small_solution
    eq1, eq2 = common.recompute_cost(solution)
    assert eq1 == solution.cost.total_cost
    assert eq2 == solution.cost.avg_iob_utilization
    assert common.check_solution(mapped, solution) == []
    cost, iob = common.quality([solution, solution])
    assert (cost, iob) == (2 * eq1, eq2)


def test_check_flags_a_tampered_solution(small_solution):
    import copy

    mapped, solution = small_solution
    bad = copy.deepcopy(solution)
    block = bad.blocks[0]
    # A net inside one block and without a pad: charging it an IOB moves
    # eq. 2, whatever order the set iterates in.
    others = set().union(*(b.nets for b in bad.blocks[1:]))
    inner = sorted(n for n in block.nets if n not in others and n not in block.pad_nets)
    block.pad_nets = set(block.pad_nets) | {inner[0]}
    assert common.check_solution(mapped, bad)


def test_wrappers_record_spans_and_restore_the_identical_objects():
    import importlib

    originals = {}
    for module_name, attr, _ in e2e_trace.LAYER_WRAPS:
        owner, leaf = e2e_trace._resolve(module_name, attr)
        originals[(module_name, attr)] = (
            vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf))
    tracer = e2e_trace.Tracer()
    tracer.install_layers()
    try:
        ledger = importlib.import_module("repro.obs.ledger")
        assert ledger.netlist_fingerprint is not originals[
            ("repro.obs.ledger", "netlist_fingerprint")]
        from repro import api

        mapped = api.map("s5378", scale=0.05, seed=1).solution
        digest = ledger.netlist_fingerprint(mapped)
        assert digest == originals[("repro.obs.ledger", "netlist_fingerprint")](mapped)
        assert [s.name for s in tracer.spans].count("obs.fingerprint") == 1
        assert "techmap.map" in {s.name for s in tracer.spans}
    finally:
        tracer.restore()
    for module_name, attr, _ in e2e_trace.LAYER_WRAPS:
        owner, leaf = e2e_trace._resolve(module_name, attr)
        now = vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        assert now is originals[(module_name, attr)], (module_name, attr)


def test_speed_factor_trims_outliers_and_falls_back_to_the_nearest_samples():
    probe = common.SpeedProbe()
    ref = common.REFERENCE_PROBE_S
    # Twenty samples at twice the reference time inside [10, 11], one of
    # them stretched tenfold; the trim drops it.
    probe.samples = [(10.0 + i / 20.0, 2 * ref) for i in range(20)]
    probe.samples[5] = (10.25, 20 * ref)
    assert probe.factor(10.0, 11.0) == pytest.approx(0.5)
    # A short operation with no sample inside takes the nearest ones.
    probe.samples += [(50.0 + i / 100.0, ref) for i in range(common.SpeedProbe.AT_LEAST)]
    assert probe.factor(50.05, 50.06) == pytest.approx(1.0)


def test_probe_time_inside_an_operation_leaves_its_latency():
    probe = common.SpeedProbe()
    probe.samples = [(1.5, 0.25), (2.5, 0.25), (9.0, 1.0)]
    op = common.Op("miss", "a", sent=1.0, done=4.0)
    probe.scale([op], inside=True)
    assert op.probe_s == pytest.approx(0.5)
    assert op.latency == pytest.approx(2.5)
    assert common.latencies([op], "miss") == [pytest.approx(2.5 * op.factor)]


def test_serve_schedule_spreads_distinct_misses_over_the_arrivals():
    import workload_serve

    hot = ["h0", "h1", "h2"]
    plan = workload_serve._schedule(7, 25.0, hot)
    assert plan == workload_serve._schedule(7, 25.0, hot)
    misses = [i for i, item in enumerate(plan) if item["cls"] == "miss"]
    n, m = len(plan), len(misses)
    assert m == round(workload_serve.MISS_SHARE * n)
    for b, i in enumerate(misses):
        assert round(b * n / m) <= i < round((b + 1) * n / m)
    # Every seed serves the same distinct variants, in its own order.
    seeds = [plan[i]["request"].seed for i in misses]
    other = workload_serve._schedule(8, 25.0, hot)
    assert len(set(seeds)) == m
    assert sorted(seeds) == sorted(item["request"].seed for item in other
                                   if item["cls"] == "miss")
