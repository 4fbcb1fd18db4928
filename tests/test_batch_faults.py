"""Scheduler-level fault drills: every failure is a verdict, not a crash.

The batch layer's contract under injected faults: a dead worker, an
expiring deadline or a store that raises on write must each surface as
per-job verdicts in a completed report -- ``run_batch`` itself never
raises for them.
"""

import json

import pytest

from repro.batch.manifest import MANIFEST_SCHEMA_NAME, expand_manifest
from repro.batch.scheduler import check_reports, order_jobs, run_batch
from repro.cli import main as cli_main
from repro.robust import faults

CIRCUIT = "s5378"
SCALE = 0.1

SMALL_DEFAULTS = {
    "verb": "partition",
    "scale": SCALE,
    "seed": 1994,
    "n_solutions": 1,
    "seeds_per_carve": 2,
    "devices_per_carve": 2,
}


def _manifest(jobs, name="faulty"):
    return {
        "schema": MANIFEST_SCHEMA_NAME,
        "name": name,
        "defaults": SMALL_DEFAULTS,
        "jobs": jobs,
    }


TWO_JOBS = _manifest(
    [
        {"circuit": CIRCUIT, "threshold": "inf"},
        {"circuit": CIRCUIT, "threshold": 1},
    ]
)


# ---------------------------------------------------------------------------
# Fault-spec serialization (what rides the worker initializers)
# ---------------------------------------------------------------------------


def test_fault_spec_round_trip():
    fault = faults.Fault(
        "fm.run",
        error=RuntimeError,
        match={"style": "functional"},
        after=2,
        times=1,
        exit_code=None,
    )
    rebuilt = faults.Fault.from_spec(fault.spec())
    assert rebuilt.site == "fm.run"
    assert rebuilt.error is RuntimeError
    assert rebuilt.match == {"style": "functional"}
    assert (rebuilt.after, rebuilt.times) == (2, 1)
    assert rebuilt.hits == 0  # counters never travel


def test_error_instance_degrades_to_class_in_spec():
    fault = faults.Fault("fm.run", error=ValueError("specific message"))
    rebuilt = faults.Fault.from_spec(fault.spec())
    assert rebuilt.error is ValueError


def test_export_and_install_spec(monkeypatch):
    assert faults.export_spec() == []
    with faults.inject(faults.Fault("fm.run", error=RuntimeError)):
        spec = faults.export_spec()
        assert len(spec) == 1 and spec[0]["site"] == "fm.run"
    assert faults.export_spec() == []
    assert faults.install_spec([]) is None
    plan = faults.install_spec(spec)
    try:
        assert faults.active()
        with pytest.raises(RuntimeError):
            faults.maybe_fire("fm.run")
    finally:
        faults._ACTIVE.remove(plan)


def test_exit_code_fault_requires_no_error():
    fault = faults.Fault("fm.run", exit_code=1)
    assert fault.spec()["exit_code"] == 1
    with pytest.raises(ValueError):
        faults.Fault("fm.run")  # no error, delay or exit_code


# ---------------------------------------------------------------------------
# Worker death mid-wave (the hard kill: os._exit in the child)
# ---------------------------------------------------------------------------


def test_pool_worker_death_yields_failed_verdicts(tmp_path):
    # The fault spec travels through the pool initializer into every
    # worker; each worker hard-exits on its first carve, breaking the
    # pool. The batch must complete with per-job failed verdicts.
    with faults.inject(faults.Fault("kway.carve", exit_code=17)):
        report = run_batch(
            TWO_JOBS, jobs=2, cache="use", cache_dir=str(tmp_path / "c")
        )
    assert len(report.outcomes) == 2
    counts = report.counts("status")
    assert counts.get("failed", 0) >= 1
    assert counts.get("failed", 0) + counts.get("skipped", 0) == 2
    for outcome in report.outcomes:
        if outcome.status == "failed":
            assert "worker died" in outcome.error


THREE_JOBS = _manifest(
    [
        {"circuit": CIRCUIT, "threshold": "inf"},
        {"circuit": CIRCUIT, "threshold": 1},
        {"circuit": CIRCUIT, "threshold": 2},
    ],
    name="drill",
)


def test_worker_death_drill_verdicts_then_bit_identical_replay(tmp_path):
    # Kill the worker that picks up the third dispatched job: that job
    # fails, jobs sharing the broken pool may fail with it, and nothing
    # crashes the batch.  Fault-free replays on the same cache then
    # finish the work and converge to bit-identical all-hit reports.
    victim = order_jobs(expand_manifest(THREE_JOBS))[0][2].job_id
    cache_dir = str(tmp_path / "cache")
    with faults.inject(
        faults.Fault("batch.job", exit_code=17, match={"job": victim})
    ):
        faulted = run_batch(THREE_JOBS, jobs=2, cache="use", cache_dir=cache_dir)
    by_id = {o.job_id: o for o in faulted.outcomes}
    assert len(faulted.outcomes) == len(by_id) == 3
    assert by_id[victim].status == "failed"
    assert "worker died" in by_id[victim].error
    survivors = {o.job_id for o in faulted.outcomes if o.status == "ok"}

    replay1 = run_batch(THREE_JOBS, jobs=2, cache="use", cache_dir=cache_dir)
    assert replay1.counts("status") == {"ok": 3}
    hits = {o.job_id for o in replay1.outcomes if o.cache_status == "hit"}
    assert hits and survivors <= hits

    replay2 = run_batch(THREE_JOBS, jobs=2, cache="use", cache_dir=cache_dir)
    assert replay2.hit_rate == 1.0
    assert check_reports(
        replay1.as_dict(), replay2.as_dict(), min_hit_rate=1.0
    ) == []

    clean = run_batch(
        THREE_JOBS, jobs=2, cache="use", cache_dir=str(tmp_path / "clean")
    )
    quality = {o.job_id: o.quality for o in clean.outcomes}
    assert {o.job_id: o.quality for o in replay2.outcomes} == quality
    for job_id in survivors:
        assert by_id[job_id].quality == quality[job_id]


# ---------------------------------------------------------------------------
# Deadline expiry during dispatch
# ---------------------------------------------------------------------------


def test_pool_deadline_expiry_skips_not_crashes(tmp_path):
    report = run_batch(
        TWO_JOBS,
        jobs=2,
        cache="use",
        cache_dir=str(tmp_path / "c"),
        deadline=0.0,
    )
    assert report.counts("status") == {"skipped": 2}
    assert all("deadline" in o.error for o in report.outcomes)


# ---------------------------------------------------------------------------
# Cache store raising on write
# ---------------------------------------------------------------------------


def test_store_write_fault_fails_job_not_batch(tmp_path):
    with faults.inject(faults.Fault("store.partial_write", error=OSError)):
        report = run_batch(
            TWO_JOBS, cache="use", cache_dir=str(tmp_path / "c")
        )
    assert len(report.outcomes) == 2
    assert report.counts("status") == {"failed": 2}
    assert all("OSError" in o.error for o in report.outcomes)


def test_store_write_fault_once_leaves_batch_mostly_ok(tmp_path):
    with faults.inject(
        faults.Fault("store.partial_write", error=OSError, times=1)
    ):
        report = run_batch(
            TWO_JOBS, cache="use", cache_dir=str(tmp_path / "c")
        )
    counts = report.counts("status")
    assert counts.get("failed") == 1
    assert counts.get("ok") == 1


# ---------------------------------------------------------------------------
# CLI exit codes: nonzero on failure, --keep-going restores 0
# ---------------------------------------------------------------------------


@pytest.fixture
def failing_manifest(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            _manifest(
                [
                    {"circuit": CIRCUIT, "threshold": 1},
                    {"circuit": "no_such_circuit"},
                ]
            )
        )
    )
    return str(path)


def test_cli_batch_run_exits_nonzero_on_failure(failing_manifest, tmp_path):
    args = [
        "batch", "run", failing_manifest,
        "--cache-dir", str(tmp_path / "c"), "--quiet",
    ]
    assert cli_main(args) == 1
    assert cli_main(args + ["--keep-going"]) == 0


def test_cli_batch_run_exits_zero_when_clean(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(_manifest([{"circuit": CIRCUIT}])))
    args = [
        "batch", "run", str(path),
        "--cache-dir", str(tmp_path / "c"), "--quiet",
    ]
    assert cli_main(args) == 0
