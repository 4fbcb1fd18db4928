"""Batch layer: manifests, dedupe/ordering, scheduling, repeatability."""

import json

import pytest

from repro.batch.manifest import (
    MANIFEST_SCHEMA_NAME,
    ManifestError,
    expand_manifest,
    load_manifest,
    threshold_label,
)
from repro.batch.scheduler import (
    check_reports,
    job_identity,
    order_jobs,
    run_batch,
)
from repro.experiments import tables4to7
from repro.request import VERB_PARAMS
from repro.robust.budget import Budget
from repro.robust.errors import ConfigError

CIRCUIT = "s5378"
SCALE = 0.1


def _manifest(jobs, defaults=None, name="t"):
    doc = {"schema": MANIFEST_SCHEMA_NAME, "name": name, "jobs": jobs}
    if defaults:
        doc["defaults"] = defaults
    return doc


SMALL_DEFAULTS = {
    "verb": "partition",
    "scale": SCALE,
    "seed": 1994,
    "n_solutions": 1,
    "seeds_per_carve": 2,
    "devices_per_carve": 2,
}


# ---------------------------------------------------------------------------
# Manifest expansion and validation
# ---------------------------------------------------------------------------


def test_expand_seeds_and_defaults():
    jobs = expand_manifest(
        _manifest(
            [{"circuit": CIRCUIT, "seeds": [1, 2], "threshold": "inf"}],
            defaults=SMALL_DEFAULTS,
        )
    )
    assert [j.request.seed for j in jobs] == [1, 2]
    assert all(j.request.threshold == float("inf") for j in jobs)
    assert all(j.request.scale == SCALE for j in jobs)
    assert jobs[0].job_id != jobs[1].job_id
    # mapping seed differs
    assert jobs[0].request.netlist_id != jobs[1].request.netlist_id


def test_expand_rejects_malformed_manifests():
    with pytest.raises(ManifestError):
        expand_manifest({"schema": "wrong/1", "jobs": [{}]})
    with pytest.raises(ManifestError):
        expand_manifest(_manifest([]))
    with pytest.raises(ManifestError):
        expand_manifest(_manifest([{"circuit": CIRCUIT, "verb": "solve"}]))
    with pytest.raises(ManifestError):
        expand_manifest(_manifest([{"circuit": ""}]))
    with pytest.raises(ManifestError):
        expand_manifest(_manifest([{"circuit": CIRCUIT, "bogus_knob": 3}]))
    with pytest.raises(ManifestError):
        expand_manifest(
            _manifest([{"circuit": CIRCUIT, "seed": 1, "seeds": [1, 2]}])
        )


def test_mixed_verb_defaults_are_filtered_per_verb():
    # n_solutions only exists for partition; a shared defaults block must
    # not break the bipartition job.
    jobs = expand_manifest(
        _manifest(
            [
                {"verb": "partition", "circuit": CIRCUIT},
                {"verb": "bipartition", "circuit": CIRCUIT, "runs": 2},
            ],
            defaults={"n_solutions": 1, "scale": SCALE},
        )
    )
    assert jobs[0].request.n_solutions == 1
    # The bipartition job ignored it: its request keeps the declared default.
    assert jobs[1].request.n_solutions == VERB_PARAMS["partition"]["n_solutions"] != 1
    with pytest.raises(ManifestError):
        expand_manifest(
            _manifest([{"circuit": CIRCUIT}], defaults={"not_a_knob": 1})
        )


def test_threshold_parsing_and_labels():
    jobs = expand_manifest(
        _manifest([{"circuit": CIRCUIT, "threshold": t} for t in ("inf", 2)])
    )
    assert [job.request.threshold for job in jobs] == [float("inf"), 2]
    assert threshold_label(float("inf")) == "inf"
    assert threshold_label(2.0) == "2"
    for bad in ("two", True, [1]):
        with pytest.raises(ManifestError, match="threshold"):
            expand_manifest(_manifest([{"circuit": CIRCUIT, "threshold": bad}]))


def test_duplicate_job_ids_get_suffixes():
    jobs = expand_manifest(
        _manifest(
            [{"circuit": CIRCUIT}, {"circuit": CIRCUIT}], defaults=SMALL_DEFAULTS
        )
    )
    assert jobs[0].job_id != jobs[1].job_id
    assert jobs[1].job_id.endswith("#1")


def test_load_manifest_validates_eagerly(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_manifest([{"circuit": CIRCUIT, "nope": 1}])))
    with pytest.raises(ManifestError):
        load_manifest(str(path))
    with pytest.raises(ManifestError):
        load_manifest(str(tmp_path / "missing.json"))


def test_load_manifest_checks_each_jobs_request(tmp_path):
    # Requests are built while expanding, so a bad one fails the load,
    # naming its job -- not the run, job by job.
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_manifest([{"circuit": CIRCUIT, "algorithm": "sa"}])))
    with pytest.raises(ManifestError, match=r"jobs\[0\]"):
        load_manifest(str(path))


# ---------------------------------------------------------------------------
# Dedupe and dispatch ordering
# ---------------------------------------------------------------------------


def test_order_jobs_dedupes_and_groups_by_netlist():
    jobs = expand_manifest(
        _manifest(
            [
                {"circuit": CIRCUIT, "threshold": 1},
                {"circuit": "c3540", "threshold": 1, "priority": 9},
                {"circuit": CIRCUIT, "threshold": 2},
                {"circuit": CIRCUIT, "threshold": 1},  # duplicate of job 0
            ],
            defaults=SMALL_DEFAULTS,
        )
    )
    primaries, duplicates = order_jobs(jobs)
    assert len(primaries) == 3 and len(duplicates) == 1
    assert job_identity(duplicates[0]) == job_identity(jobs[0])
    # The priority-9 circuit leads; the two s5378 jobs stay adjacent.
    assert [j.request.circuit for j in primaries] == ["c3540", CIRCUIT, CIRCUIT]


def test_job_identity_ignores_declaration_noise():
    a, b = expand_manifest(
        _manifest(
            [
                {"circuit": CIRCUIT, "threshold": 1},
                {"circuit": CIRCUIT, "threshold": 1, "priority": 5},
            ],
            defaults=SMALL_DEFAULTS,
        )
    )
    assert job_identity(a) == job_identity(b)  # priority is not identity


# ---------------------------------------------------------------------------
# run_batch: sequential path, dedupe hits, warm repeatability
# ---------------------------------------------------------------------------


@pytest.fixture
def sweep_manifest_small():
    return tables4to7.sweep_manifest(
        circuits=[CIRCUIT],
        scale=SCALE,
        thresholds=[float("inf"), 1],
        n_solutions=1,
        seeds_per_carve=2,
        devices_per_carve=2,
    )


def test_run_batch_cold_then_warm_is_bit_identical(sweep_manifest_small, tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = run_batch(sweep_manifest_small, cache="use", cache_dir=cache_dir)
    warm = run_batch(sweep_manifest_small, cache="use", cache_dir=cache_dir)
    assert cold.counts("status") == {"ok": 2}
    assert cold.hit_rate == 0.0
    assert warm.hit_rate == 1.0
    assert warm.saved_seconds > 0.0
    assert check_reports(cold.as_dict(), warm.as_dict()) == []
    # The batch round-trips into table-builder input.
    data = tables4to7.reports_from_batch(warm)
    assert set(data) == {(CIRCUIT, float("inf")), (CIRCUIT, 1.0)}


def test_run_batch_duplicate_jobs_hit_in_run(tmp_path):
    manifest = _manifest(
        [{"circuit": CIRCUIT}, {"circuit": CIRCUIT}], defaults=SMALL_DEFAULTS
    )
    report = run_batch(manifest, cache="use", cache_dir=str(tmp_path / "c"))
    assert report.deduplicated == 1
    statuses = {o.job_id: o.cache_status for o in report.outcomes}
    assert sorted(statuses.values()) == ["hit", "miss"]
    # Outcomes come back in manifest order regardless of dispatch order.
    assert [o.job_id for o in report.outcomes] == [
        j.job_id for j in expand_manifest(manifest)
    ]


def test_run_batch_cache_off_solves_everything(tmp_path):
    manifest = _manifest(
        [{"circuit": CIRCUIT}, {"circuit": CIRCUIT}], defaults=SMALL_DEFAULTS
    )
    report = run_batch(manifest, cache="off", cache_dir=str(tmp_path / "c"))
    assert all(o.cache_status == "off" for o in report.outcomes)
    assert report.hit_rate == 0.0


def test_run_batch_expired_deadline_skips_everything(sweep_manifest_small, tmp_path):
    report = run_batch(
        sweep_manifest_small,
        cache="use",
        cache_dir=str(tmp_path / "c"),
        deadline=0.0,
    )
    assert report.counts("status") == {"skipped": 2}
    assert all(o.report is None for o in report.outcomes)
    assert report.hit_rate == 0.0


def test_run_batch_events_stream(sweep_manifest_small, tmp_path):
    events = []
    run_batch(
        sweep_manifest_small,
        cache="use",
        cache_dir=str(tmp_path / "c"),
        on_event=events.append,
    )
    names = [e["event"] for e in events]
    assert names.count("job.start") == 2
    assert names.count("job.done") == 2
    assert names[-1] == "batch.done"


def test_run_batch_failed_job_is_reported_not_raised(tmp_path):
    manifest = _manifest(
        [{"circuit": "no_such_circuit"}], defaults=SMALL_DEFAULTS
    )
    report = run_batch(manifest, cache="use", cache_dir=str(tmp_path / "c"))
    (outcome,) = report.outcomes
    assert outcome.status == "failed"
    assert "no_such_circuit" in outcome.error


def test_check_reports_flags_drift_and_low_hit_rate(sweep_manifest_small, tmp_path):
    cache_dir = str(tmp_path / "cache")
    cold = run_batch(sweep_manifest_small, cache="use", cache_dir=cache_dir).as_dict()
    warm = run_batch(sweep_manifest_small, cache="use", cache_dir=cache_dir).as_dict()
    assert check_reports(cold, warm) == []
    # Cold-vs-cold fails the hit-rate gate.
    problems = check_reports(warm, cold, min_hit_rate=0.9)
    assert any("hit rate" in p for p in problems)
    # A flipped quality value fails the bit-identical gate, naming the job.
    drifted = json.loads(json.dumps(warm))
    drifted["stable_view"][0]["quality"]["total_cost"] = -1
    problems = check_reports(cold, drifted)
    assert any("results differ" in p for p in problems)
    assert check_reports({}, {}) == ["report missing cache.hit_rate",
                                     "report missing stable_view"]


def test_budget_share_splits_remaining_time():
    budget = Budget(10.0, clock=lambda: 0.0)
    assert budget.share(4) == pytest.approx(2.5)
    assert Budget().share(3) is None
    with pytest.raises(ConfigError):
        budget.share(0)


# ---------------------------------------------------------------------------
# The process-pool path (kept tiny: one pool spin-up)
# ---------------------------------------------------------------------------


def test_run_batch_pool_matches_sequential(sweep_manifest_small, tmp_path):
    cache_dir = str(tmp_path / "cache")
    seq = run_batch(sweep_manifest_small, jobs=1, cache="use", cache_dir=cache_dir)
    pooled = run_batch(sweep_manifest_small, jobs=2, cache="use", cache_dir=cache_dir)
    assert pooled.workers == 2
    assert pooled.hit_rate == 1.0  # warm from the sequential run
    assert check_reports(seq.as_dict(), pooled.as_dict()) == []


def test_run_batch_jobs_0_means_all_cores(sweep_manifest_small, tmp_path, monkeypatch):
    import os

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    report = run_batch(
        sweep_manifest_small, jobs=0, cache="use", cache_dir=str(tmp_path / "c")
    )
    assert report.workers == 2
    assert report.counts("status") == {"ok": 2}
