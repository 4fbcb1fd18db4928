"""Light tests for the experiment record driver (no heavy runs)."""

import os

from repro.core.results import KWayReport
from repro.experiments.record import KWAY_SCALES, _log_sweep, _write, sweep_manifest
from repro.netlist.benchmarks import BENCHMARK_NAMES
from repro.obs.ledger import Ledger


def test_kway_scales_cover_all_benchmarks():
    assert set(KWAY_SCALES) == set(BENCHMARK_NAMES)
    for scale in KWAY_SCALES.values():
        assert 0.0 < scale <= 1.0


def test_small_circuits_run_at_full_scale():
    # The small circuits are recorded at the published sizes.
    for name in ("c3540", "c6288"):
        assert KWAY_SCALES[name] == 1.0


def test_write_helper(tmp_path, capsys):
    _write(str(tmp_path), "x.txt", "hello")
    with open(os.path.join(str(tmp_path), "x.txt")) as handle:
        assert handle.read() == "hello\n"
    assert "wrote" in capsys.readouterr().out


def test_sweep_ledger_records_read_the_recording_grid(tmp_path):
    manifest = sweep_manifest(seed=7)
    data = {}
    for job in manifest["jobs"]:
        t = float(job["threshold"])
        data[(job["circuit"], t)] = KWayReport(
            job["circuit"], t, 2, 100.0, {"XC3090": 2}, 0.5, 0.5, 0.0, 10, 10,
            True, 1.5,
        )
    ledger = Ledger(str(tmp_path / "ledger"))
    _log_sweep(ledger, manifest, data, 7)
    records = ledger.records()
    assert len(records) == len(BENCHMARK_NAMES) * 5
    configs = {(r["circuit"], str(r["config"]["threshold"])): r for r in records}
    record = configs[("c7552", "inf")]
    assert record["config"] == {
        "verb": "experiment",
        "suite": "tables4to7",
        "threshold": "inf",
        "scale": 0.6,
        "n_solutions": 1,
        "seeds_per_carve": 2,
        "devices_per_carve": 2,
    }
    assert record["seed"] == 7
    assert configs[("s38584", "1")]["config"]["threshold"] == 1
