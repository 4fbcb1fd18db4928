"""Integration tests for the end-to-end flows."""

import pytest

from repro.core.flow import (
    bipartition_experiment,
    kway_solution,
    map_circuit,
)
from repro.core.results import dump_reports, kway_report_from_solution
from repro.partition.devices import Device, DeviceLibrary

TINY_LIBRARY = DeviceLibrary(
    [
        Device("T16", clbs=16, terminals=24, price=10, util_upper=0.95),
        Device("T32", clbs=32, terminals=36, price=17, util_upper=0.95),
        Device("T64", clbs=64, terminals=52, price=30, util_upper=0.95),
    ],
    name="tiny",
)


@pytest.fixture(scope="module")
def mapped():
    return map_circuit("s5378", scale=0.12, seed=7)


class TestMapCircuit:
    def test_by_name(self):
        mapped = map_circuit("c6288", scale=0.15)
        assert mapped.name == "c6288"
        assert mapped.n_cells > 0

    def test_by_netlist(self, tiny_netlist):
        mapped = map_circuit(tiny_netlist)
        assert mapped.name == "tiny"


class TestBipartitionExperiment:
    def test_fm(self, mapped):
        report = bipartition_experiment(mapped, "fm", runs=3, seed=1)
        assert report.runs == 3
        assert len(report.cuts) == 3
        assert report.best_cut <= report.avg_cut
        assert report.avg_replicated == 0

    def test_functional(self, mapped):
        report = bipartition_experiment(mapped, "fm+functional", runs=3, seed=1)
        assert report.algorithm == "fm+functional"
        assert report.avg_replicated >= 0

    def test_functional_beats_fm_on_average(self, mapped):
        fm = bipartition_experiment(mapped, "fm", runs=5, seed=2)
        fr = bipartition_experiment(mapped, "fm+functional", runs=5, seed=2)
        assert fr.avg_cut <= fm.avg_cut

    def test_traditional(self, mapped):
        report = bipartition_experiment(mapped, "fm+traditional", runs=2, seed=1)
        assert len(report.cuts) == 2

    def test_unknown_algorithm(self, mapped):
        with pytest.raises(ValueError):
            bipartition_experiment(mapped, "simulated-annealing")

    def test_report_serialization(self, mapped, tmp_path):
        report = bipartition_experiment(mapped, "fm", runs=2, seed=1)
        path = str(tmp_path / "reports.json")
        dump_reports([report], path)
        import json

        with open(path) as handle:
            data = json.load(handle)
        assert data[0]["circuit"] == "s5378"


class TestKWayExperiment:
    @staticmethod
    def report(mapped, threshold, **kwargs):
        solution = kway_solution(mapped, threshold, library=TINY_LIBRARY, **kwargs)
        return kway_report_from_solution(solution, threshold, 0.0)

    def test_with_replication(self, mapped):
        report = self.report(mapped, 1, n_solutions=1, seeds_per_carve=2)
        assert report.k >= 2
        assert report.total_cost > 0
        assert 0 < report.avg_clb_utilization <= 1.0

    def test_baseline(self, mapped):
        report = self.report(mapped, float("inf"), n_solutions=1, seeds_per_carve=2)
        assert report.replicated_fraction == 0.0
        assert report.threshold == float("inf")

    def test_report_dict(self, mapped):
        report = self.report(mapped, float("inf"), n_solutions=1)
        data = report.as_dict()
        assert data["threshold"] == "inf"

    def test_solution_object(self, mapped):
        sol = kway_solution(
            mapped, threshold=1, library=TINY_LIBRARY, n_solutions=1, seeds_per_carve=2
        )
        assert sol.k >= 2
        assert sol.blocks
