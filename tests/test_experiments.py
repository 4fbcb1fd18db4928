"""Tests for the experiment harness (paper tables/figures)."""

import dataclasses
import json

import pytest

from repro.cache.store import SolutionCache, use_cache
from repro.cli import main
from repro.core.flow import bipartition_experiment, kway_solution, map_circuit
from repro.core.results import KWayReport, kway_report_from_solution
from repro.experiments import figure3, table1, table2, table3, tables4to7
from repro.experiments.common import TableResult, load_suite, run_manifest
from repro.partition.devices import XC3000_LIBRARY

CIRCUITS = ("c6288", "s5378")
SCALE = 0.1
INF = float("inf")


@pytest.fixture(scope="module", autouse=True)
def temp_cache(tmp_path_factory):
    """Every batch of this module reads and fills a throwaway store."""
    with use_cache(SolutionCache(str(tmp_path_factory.mktemp("cache")))) as store:
        yield store


def untimed(report):
    return dataclasses.replace(report, elapsed_seconds=0.0)


class TestCommon:
    def test_suite_loading_and_memoization(self):
        a = load_suite(CIRCUITS, SCALE, seed=3)
        b = load_suite(CIRCUITS, SCALE, seed=3)
        assert [sc.name for sc in a] == list(CIRCUITS)
        assert a[0].mapped is b[0].mapped  # memoized

    def test_table_render(self):
        table = TableResult("T", ["a", "b"], [[1, 2.5], ["x", "y"]], notes=["n"])
        text = table.text()
        assert "T" in text and "2.50" in text and "note: n" in text

    def test_row_dict(self):
        table = TableResult("T", ["a", "b"], [[1, 2]])
        assert table.row_dict() == [{"a": 1, "b": 2}]


class TestTable1:
    def test_five_devices(self):
        result = table1.run()
        assert len(result.rows) == len(XC3000_LIBRARY)
        assert result.headers[0] == "Device"


class TestTable2:
    def test_columns(self):
        result = table2.run(CIRCUITS, SCALE)
        assert result.headers == ["Circuit", "#CLBs", "#IOBs", "#DFF", "#NETs", "#PINs"]
        assert len(result.rows) == len(CIRCUITS)
        for row in result.rows:
            assert row[1] > 0  # CLBs

    def test_sequential_has_dffs(self):
        result = table2.run(("s5378",), SCALE)
        assert result.rows[0][3] > 0


class TestFigure3:
    def test_fractions_sum_to_100(self):
        result = figure3.run(CIRCUITS, SCALE)
        for row in result.rows:
            assert sum(row[2:]) == pytest.approx(100.0, abs=0.5)

    def test_histogram_render(self):
        dist = figure3.distributions(("c6288",), SCALE)[0]
        text = figure3.ascii_histogram(dist)
        assert "c6288" in text and "%" in text

    def test_majority_replicable(self):
        # The paper's headline: most cells have psi >= 1.
        result = figure3.run(CIRCUITS, SCALE)
        for row in result.rows:
            single, multi_zero = row[2], row[3]
            assert single + multi_zero < 60.0


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run(CIRCUITS, SCALE, runs=3)

    def test_manifest_matches_direct_calls(self):
        batch = run_manifest(table3.manifest(CIRCUITS, SCALE, seed=3, runs=3))
        data = table3.reports_from_batch(batch)
        assert list(data) == list(CIRCUITS)
        for name in CIRCUITS:
            mapped = map_circuit(name, scale=SCALE, seed=3)
            assert list(data[name]) == ["fm", "fm+functional"]
            for algorithm, report in data[name].items():
                direct = bipartition_experiment(mapped, algorithm, runs=3, seed=3)
                assert untimed(report) == untimed(direct)

    def test_shape(self, result):
        assert len(result.rows) == len(CIRCUITS) + 1  # + Avg row
        assert result.rows[-1][0] == "Avg"

    def test_replication_reduces_cut(self, result):
        avg_row = result.rows[-1]
        assert avg_row[-1] > 0  # average avg-cut reduction positive

    def test_best_leq_avg(self, result):
        for row in result.rows[:-1]:
            assert row[1] <= row[2]  # FM best <= FM avg
            assert row[3] <= row[4]  # FR best <= FR avg


class TestTables4to7:
    @pytest.fixture(scope="class")
    def data(self):
        return tables4to7.sweep(
            ("s5378",), 0.25, seed=3, n_solutions=1, seeds_per_carve=2,
            devices_per_carve=2,
        )

    def test_sweep_keys(self, data):
        thresholds = {t for _, t in data}
        assert thresholds == set(tables4to7.DEFAULT_THRESHOLDS)

    def test_sweep_matches_direct_solves(self, data):
        mapped = map_circuit("s5378", scale=0.25, seed=3)
        for t in tables4to7.DEFAULT_THRESHOLDS:
            solution = kway_solution(
                mapped, t, n_solutions=1, seed=3, seeds_per_carve=2,
                devices_per_carve=2,
            )
            direct = kway_report_from_solution(solution, t, 0.0)
            assert untimed(data[("s5378", t)]) == direct

    def test_baseline_no_replication(self, data):
        assert data[("s5378", INF)].replicated_fraction == 0.0

    def test_table4(self, data):
        result = tables4to7.table4(data, 0.25)
        assert result.rows[-1][0] == "Avg"
        assert "T=0 %" in result.headers

    def test_table5(self, data):
        result = tables4to7.table5(data, 0.25)
        assert "Util in [3] %" in result.headers
        for row in result.rows:
            assert row[1] >= 0

    def test_table6(self, data):
        result = tables4to7.table6(data, 0.25)
        base = result.rows[0][1]
        assert base > 0

    def test_table7(self, data):
        result = tables4to7.table7(data, 0.25)
        assert "T=1 red %" in result.headers

    def test_run_all(self):
        tables = tables4to7.run_all(
            ("s5378",), 0.25, seed=3, n_solutions=1, seeds_per_carve=2
        )
        assert len(tables) == 4
        titles = [t.title for t in tables]
        assert any("Table IV" in t for t in titles)
        assert any("Table VII" in t for t in titles)


@pytest.mark.parametrize(
    "args, timed",
    [
        (["table3", "--circuits", "s5378", "--scale", "0.1", "--runs", "3"],
         "replication CPU overhead"),
        (["table4", "--circuits", "s5378", "--scale", "0.25"], "CPU s (T=1)"),
    ],
)
def test_table_replay_prints_identical_output(args, timed, capsys):
    """The second run replays the first one's solve times from the cache."""
    outputs = []
    for _ in range(2):
        assert main(["experiment"] + args) == 0
        outputs.append(capsys.readouterr().out)
    assert timed in outputs[0]
    assert outputs[0] == outputs[1]


def synthetic_report(name, t, k=3, devices=None, feasible=True):
    return KWayReport(
        circuit=name,
        threshold=t,
        k=k,
        total_cost=100.0,
        device_counts=devices or {"XC3090": k},
        avg_clb_utilization=0.8,
        avg_iob_utilization=0.6,
        replicated_fraction=0.0 if t == INF else 0.05,
        n_cells=100,
        n_instances=105,
        feasible=feasible,
        elapsed_seconds=1.0,
    )


class TestSweepManifest:
    """The grid the kway-sweep benchmark drives, pinned as JSON text
    (key order and number types included)."""

    def test_sub_sweep_shape(self):
        manifest = tables4to7.sweep_manifest(
            ["a.bench", "b.bench"], seed=1995, name="kway-sweep-1",
            n_solutions=1, seeds_per_carve=2, devices_per_carve=2,
        )
        assert json.dumps(manifest) == json.dumps({
            "schema": "repro-batch-manifest/1",
            "name": "kway-sweep-1",
            "defaults": {
                "verb": "partition",
                "seed": 1995,
                "n_solutions": 1,
                "seeds_per_carve": 2,
                "devices_per_carve": 2,
            },
            "jobs": [
                {"circuit": "a.bench", "scale": 1.0, "threshold": "inf"},
                {"circuit": "a.bench", "scale": 1.0, "threshold": 0},
                {"circuit": "a.bench", "scale": 1.0, "threshold": 1},
                {"circuit": "a.bench", "scale": 1.0, "threshold": 2},
                {"circuit": "a.bench", "scale": 1.0, "threshold": 3},
                {"circuit": "b.bench", "scale": 1.0, "threshold": "inf"},
                {"circuit": "b.bench", "scale": 1.0, "threshold": 0},
                {"circuit": "b.bench", "scale": 1.0, "threshold": 1},
                {"circuit": "b.bench", "scale": 1.0, "threshold": 2},
                {"circuit": "b.bench", "scale": 1.0, "threshold": 3},
            ],
        })

    def test_warm_up_shape(self):
        manifest = tables4to7.sweep_manifest(
            ["w.bench"], seed=42, thresholds=(1,),
            n_solutions=1, seeds_per_carve=2, devices_per_carve=2,
        )
        assert json.dumps(manifest) == json.dumps({
            "schema": "repro-batch-manifest/1",
            "name": "tables4to7",
            "defaults": {
                "verb": "partition",
                "seed": 42,
                "n_solutions": 1,
                "seeds_per_carve": 2,
                "devices_per_carve": 2,
            },
            "jobs": [{"circuit": "w.bench", "scale": 1.0, "threshold": 1}],
        })


class TestInfeasibleRows:
    BUILDERS = (
        tables4to7.table4,
        tables4to7.table5,
        tables4to7.table6,
        tables4to7.table7,
        tables4to7.device_distribution_table,
    )

    @staticmethod
    def data(infeasible=()):
        return {
            (name, t): synthetic_report(name, t, feasible=(name, t) not in infeasible)
            for name in ("x", "y")
            for t in tables4to7.DEFAULT_THRESHOLDS
        }

    @pytest.mark.parametrize("build", BUILDERS)
    def test_every_table_names_the_infeasible_rows(self, build):
        result = build(self.data(infeasible={("y", INF), ("x", 2)}), 1.0)
        notes = [n for n in result.notes if n.startswith("infeasible")]
        assert len(notes) == 1
        assert notes[0].endswith(": x T=2, y T=inf")

    @pytest.mark.parametrize("build", BUILDERS)
    def test_a_fractional_threshold_is_named_exactly(self, build):
        data = self.data()
        data[("x", 0.5)] = synthetic_report("x", 0.5, feasible=False)
        notes = [n for n in build(data, 1.0).notes if n.startswith("infeasible")]
        assert len(notes) == 1
        assert notes[0].endswith(": x T=0.5")

    @pytest.mark.parametrize("build", BUILDERS)
    def test_feasible_tables_carry_no_such_note(self, build):
        result = build(self.data(), 1.0)
        assert not any(n.startswith("infeasible") for n in result.notes)


class TestDeviceDistribution:
    def test_table_from_synthetic_reports(self):
        data = {
            ("x", INF): synthetic_report("x", INF, 3, {"XC3090": 3}),
            ("x", 1.0): synthetic_report("x", 1.0, 3, {"XC3064": 2, "XC3090": 1}),
        }
        result = tables4to7.device_distribution_table(data, 1.0)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row[0] == "x"
        assert "3090" in str(row[2])
        assert "3064" in str(row[4])
