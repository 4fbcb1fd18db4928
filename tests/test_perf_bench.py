"""Perf harness: regression gate coverage semantics and bench history."""

import json

from repro.perf.bench import (
    HISTORY_SCHEMA_NAME,
    append_history,
    check_regressions,
    default_history_path,
    default_report_path,
    history_entry,
    make_report,
    paired_timing,
    speedup,
    write_report,
)


def _section(ref, fast):
    return {
        "ref_seconds": ref,
        "fast_seconds": fast,
        "speedup": round(speedup(ref, fast), 3),
    }


def _report(scale=0.25, **circuits):
    return make_report(scale, circuits)


BASE = _report(
    c3540={"kway": _section(2.0, 0.5), "fm": _section(1.0, 0.25)},
    s5378={"kway": _section(4.0, 1.0)},
)


def test_gate_passes_when_ratios_hold():
    current = _report(
        c3540={"kway": _section(1.0, 0.25), "fm": _section(0.5, 0.125)},
        s5378={"kway": _section(2.0, 0.5)},
    )
    assert check_regressions(current, BASE) == []


def test_gate_flags_ratio_regression():
    current = _report(
        c3540={"kway": _section(2.0, 1.5), "fm": _section(1.0, 0.25)},
        s5378={"kway": _section(4.0, 1.0)},
    )
    problems = check_regressions(current, BASE)
    assert len(problems) == 1 and "c3540/kway" in problems[0]


def test_missing_circuit_is_a_coverage_violation():
    current = _report(
        c3540={"kway": _section(2.0, 0.5), "fm": _section(1.0, 0.25)},
    )
    problems = check_regressions(current, BASE)
    assert len(problems) == 1
    assert "s5378" in problems[0] and "missing" in problems[0]


def test_missing_section_is_a_coverage_violation():
    current = _report(
        c3540={"kway": _section(2.0, 0.5)},  # fm section dropped
        s5378={"kway": _section(4.0, 1.0)},
    )
    problems = check_regressions(current, BASE)
    assert len(problems) == 1
    assert "c3540/fm" in problems[0] and "missing" in problems[0]


def test_extra_current_circuit_is_fine():
    current = _report(
        c3540={"kway": _section(2.0, 0.5), "fm": _section(1.0, 0.25)},
        s5378={"kway": _section(4.0, 1.0)},
        s9234={"kway": _section(9.0, 1.0)},
    )
    assert check_regressions(current, BASE) == []


def test_scale_mismatch_short_circuits():
    current = _report(scale=0.5)
    problems = check_regressions(current, BASE)
    assert len(problems) == 1 and "scale mismatch" in problems[0]


def test_sub_10ms_sections_are_skipped():
    base = _report(tiny={"kway": _section(0.005, 0.001)})
    current = _report(tiny={"kway": _section(0.005, 0.004)})
    assert check_regressions(current, base) == []


def test_paired_timing_gates_the_median_pair_ratio(monkeypatch):
    import repro.perf.bench as bench

    clock = [0.0]
    calls = []
    monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])

    def timed(name, durations):
        it = iter(durations)

        def fn():
            calls.append(name)
            clock[0] += next(it)
            return name

        return fn

    # The third pair is disturbed: a best-of-each-side ratio would read
    # 3.0 / 1.0 from different pairs; the per-pair median drops the outlier.
    stats, fast_result, ref_result = paired_timing(
        timed("fast", [1.0, 2.0, 5.0]), timed("ref", [3.0, 4.0, 3.0]), 3
    )
    assert calls == ["fast", "ref", "ref", "fast", "fast", "ref"]
    assert (fast_result, ref_result) == ("fast", "ref")
    assert stats == {"fast_seconds": 2.0, "ref_seconds": 3.0, "speedup": 2.0}


# ---------------------------------------------------------------------------
# History trajectory
# ---------------------------------------------------------------------------


def test_history_entry_distills_report():
    entry = history_entry(BASE)
    assert entry["schema"] == HISTORY_SCHEMA_NAME
    assert entry["scale"] == 0.25
    assert entry["iso_ts"].endswith("Z") and entry["ts"] > 0
    kway = entry["circuits"]["c3540"]["kway"]
    assert kway["speedup"] == 4.0
    assert set(entry["circuits"]) == {"c3540", "s5378"}


def test_append_history_round_trip(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(str(path), BASE)
    append_history(str(path), BASE)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        entry = json.loads(line)
        assert entry["schema"] == HISTORY_SCHEMA_NAME


def test_write_report_appends_history_when_asked(tmp_path):
    report_path = tmp_path / "report.json"
    history_path = tmp_path / "history.jsonl"
    write_report(str(report_path), BASE)
    assert not history_path.exists()
    write_report(str(report_path), BASE, history_path=str(history_path))
    write_report(str(report_path), BASE, history_path=str(history_path))
    assert len(history_path.read_text().strip().splitlines()) == 2
    # the main report itself is overwritten, not appended
    assert json.load(open(report_path))["scale"] == 0.25


def test_default_paths_share_the_repo_root():
    import os

    assert os.path.dirname(default_report_path()) == os.path.dirname(
        default_history_path()
    )
    assert default_history_path().endswith("BENCH_partition_history.jsonl")


def test_history_git_stamp_falls_back_to_unknown(monkeypatch, tmp_path):
    """No git metadata (tarball checkout, bare CI cache) must not crash
    or write null -- the trajectory line says "unknown" instead."""
    import repro.obs.ledger as obs_ledger

    monkeypatch.setattr(obs_ledger, "git_revision", lambda *a, **k: None)
    entry = history_entry(BASE)
    assert entry["git_rev"] == "unknown"

    def boom(*a, **k):
        raise OSError("git exploded")

    monkeypatch.setattr(obs_ledger, "git_revision", boom)
    path = tmp_path / "history.jsonl"
    appended = append_history(str(path), BASE)
    assert appended["git_rev"] == "unknown"
    assert json.loads(path.read_text())["git_rev"] == "unknown"
