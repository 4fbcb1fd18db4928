"""Tests for experiment-harness plumbing."""

import pytest

from repro.experiments.common import (
    QUICK_CIRCUITS,
    TableResult,
    geomean_percent,
)
from repro.netlist.benchmarks import BENCHMARK_NAMES


def test_quick_circuits_are_valid():
    assert set(QUICK_CIRCUITS) <= set(BENCHMARK_NAMES)
    # quick subset mixes combinational and sequential circuits
    assert any(c.startswith("c") for c in QUICK_CIRCUITS)
    assert any(c.startswith("s") for c in QUICK_CIRCUITS)


def test_geomean_percent():
    assert geomean_percent([10.0, 20.0]) == 15.0
    assert geomean_percent([]) == 0.0


class TestTableRendering:
    def test_column_alignment(self):
        table = TableResult("Title", ["col", "x"], [["longvalue", 1], ["a", 22]])
        lines = table.text().splitlines()
        header = lines[2]
        assert header.startswith("col")
        # all data rows align with header width
        assert len(lines[4]) >= len("longvalue")

    def test_float_formatting(self):
        table = TableResult("T", ["v"], [[1.23456]])
        assert "1.23" in table.text()

    def test_notes_rendered_in_order(self):
        table = TableResult("T", ["v"], [[1]], notes=["first", "second"])
        text = table.text()
        assert text.index("first") < text.index("second")


def test_load_suite_maps_seed_zero_like_every_request():
    from repro import api
    from repro.experiments.common import load_suite
    from repro.obs.ledger import netlist_fingerprint
    from repro.request import build_request

    (suite,) = load_suite(("s5378",), 0.1, seed=0)
    request = build_request("bipartition", "s5378", scale=0.1, seed=0)
    mapped = api.map(
        request.circuit, scale=request.scale, seed=request.mapping_seed
    ).solution
    assert netlist_fingerprint(suite.mapped) == netlist_fingerprint(mapped)
