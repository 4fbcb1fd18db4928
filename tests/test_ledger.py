"""Run ledger: fingerprints, record store, determinism, CLI flows."""

import hashlib
import json
import os
import pickle

import pytest

from repro import api
from repro.core.flow import map_circuit
from repro.obs import ledger as obs_ledger
from repro.obs.compare import diff_records
from repro.obs.ledger import (
    LEDGER_ENV_VAR,
    LEDGER_SCHEMA_NAME,
    Ledger,
    build_record,
    canonical_json,
    config_fingerprint,
    fingerprint,
    netlist_fingerprint,
    resolve_ledger,
    run_key,
    set_ledger,
    stable_view,
    use_ledger,
    validate_record,
)
from repro.request import build_request


@pytest.fixture
def small_mapped():
    return map_circuit("s5378", scale=0.08, seed=1994)


@pytest.fixture
def record(small_mapped):
    return build_record(
        kind="partition",
        circuit="s5378",
        mapped=small_mapped,
        config={"verb": "partition", "threshold": 1},
        seed=7,
        quality={"k": 2, "total_cost": 100.0, "feasible": True},
    )


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_canonical_json_is_order_insensitive_and_strict():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert '"inf"' in canonical_json({"t": float("inf")})
    assert '"nan"' in canonical_json({"t": float("nan")})


def test_fingerprint_stability(small_mapped):
    assert fingerprint({"a": 1}) == fingerprint({"a": 1})
    assert fingerprint({"a": 1}) != fingerprint({"a": 2})
    assert netlist_fingerprint(small_mapped) == netlist_fingerprint(small_mapped)
    other = map_circuit("s5378", scale=0.08, seed=2)
    assert netlist_fingerprint(small_mapped) != netlist_fingerprint(other)


def _payload(mapped):
    """The netlist fingerprint's payload, built afresh."""
    return {
        "name": mapped.name,
        "pis": list(mapped.primary_inputs),
        "pos": list(mapped.primary_outputs),
        "cells": [
            [
                cell.name,
                list(cell.inputs),
                list(cell.outputs),
                [sorted(sup) for sup in cell.supports],
            ]
            for cell in mapped.cells
        ],
    }


def _jsonable_route_fingerprint(mapped):
    """The netlist digest as every revision before the direct render
    computed it: the same payload through ``canonical_json``'s
    ``_jsonable`` copy."""
    return fingerprint(_payload(mapped))


def _direct_render_fingerprint(mapped):
    """The netlist digest rendered in one piece, reading and writing no
    memo: one ``json.dumps`` over the whole payload."""
    text = json.dumps(_payload(mapped), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_netlist_fingerprint_pins_the_flat_golden_hash():
    # The committed flat ledger golden (results/ledger/golden/
    # partition_s5378_quick.jsonl) solved s5378 @0.25 at mapping seed 1994.
    mapped = map_circuit("s5378", scale=0.25, seed=1994)
    assert netlist_fingerprint(mapped) == "e6c8b2f93f78a0c6"
    assert netlist_fingerprint(mapped) == "e6c8b2f93f78a0c6"  # the memo
    assert _jsonable_route_fingerprint(mapped) == "e6c8b2f93f78a0c6"
    assert _direct_render_fingerprint(mapped) == "e6c8b2f93f78a0c6"


def test_netlist_fingerprint_equals_the_jsonable_route(
    small_mapped, tiny_netlist, seq_netlist
):
    from repro.netlist.benchmarks import BENCHMARK_NAMES
    from repro.techmap.delta import seeded_delta
    from repro.techmap.mapped import technology_map

    netlists = [map_circuit(name, scale=0.1, seed=1994) for name in BENCHMARK_NAMES]
    netlists.append(seeded_delta(netlists[-1], fraction=0.05, seed=3).apply(
        netlists[-1])[0])
    netlists += [small_mapped, technology_map(tiny_netlist),
                 technology_map(seq_netlist)]
    for mapped in netlists:
        assert netlist_fingerprint(mapped) == _jsonable_route_fingerprint(mapped), (
            mapped.name)


@pytest.mark.parametrize("scale", [0.1, 0.25])
def test_memoized_fingerprint_equals_the_direct_render(scale):
    from repro.netlist.benchmarks import BENCHMARK_NAMES

    for name in BENCHMARK_NAMES:
        mapped = map_circuit(name, scale=scale, seed=1994)
        expected = _direct_render_fingerprint(mapped)
        assert netlist_fingerprint(mapped) == expected, name
        # The repeat reads the memo and must still agree.
        assert netlist_fingerprint(mapped) == expected, name


@pytest.mark.parametrize("name, scale", [("s5378", 0.25), ("c3540", 0.25)])
def test_memoized_fingerprint_along_a_delta_chain(name, scale):
    from repro.techmap.delta import seeded_delta

    mapped = map_circuit(name, scale=scale, seed=1994)
    netlist_fingerprint(mapped)
    for step in range(6):
        mapped = seeded_delta(mapped, fraction=0.01, seed=step).apply(mapped)[0]
        assert netlist_fingerprint(mapped) == _direct_render_fingerprint(mapped), step


def test_memoized_fingerprint_survives_pickling():
    from repro.techmap.delta import seeded_delta

    base = map_circuit("s9234", scale=0.1, seed=1994)
    keyed = pickle.loads(pickle.dumps(base))
    digest = netlist_fingerprint(keyed)
    # Memos travel with the objects they belong to ...
    copy = pickle.loads(pickle.dumps(keyed))
    assert netlist_fingerprint(copy) == digest == _direct_render_fingerprint(base)
    # ... and a delta applied to the copy keys like one applied to a
    # netlist that never held a memo.
    delta = seeded_delta(base, fraction=0.02, seed=5)
    fresh = delta.apply(pickle.loads(pickle.dumps(base)))[0]
    assert netlist_fingerprint(delta.apply(copy)[0]) == _direct_render_fingerprint(fresh)


def test_fingerprint_renders_only_what_it_has_not_rendered(monkeypatch):
    from repro.techmap.delta import seeded_delta

    base = map_circuit("s5378", scale=0.25, seed=1994)
    digest = netlist_fingerprint(base)
    post = seeded_delta(base, fraction=0.02, seed=9).apply(base)[0]
    shared = {id(cell) for cell in base.cells}
    edited = sum(1 for cell in post.cells if id(cell) not in shared)
    assert 0 < edited < len(post.cells)

    renders = []
    real_render = obs_ledger._compact_json
    real_dumps = json.dumps

    def counting_render(value):
        renders.append(value)
        return real_render(value)

    def counting_dumps(*args, **kwargs):
        renders.append(args[0])
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr(obs_ledger, "_compact_json", counting_render)
    monkeypatch.setattr(json, "dumps", counting_dumps)
    # An already keyed netlist renders nothing.
    assert netlist_fingerprint(base) == digest
    assert renders == []
    # A post-delta netlist renders its edited cells, its name and its pads.
    post_digest = netlist_fingerprint(post)
    assert len(renders) == edited + 3
    assert netlist_fingerprint(post) == post_digest
    assert len(renders) == edited + 3
    monkeypatch.undo()
    assert post_digest == _direct_render_fingerprint(post)


def test_concurrent_fingerprints_agree_with_the_direct_render():
    import sys
    import threading

    from repro.techmap.delta import seeded_delta

    base = map_circuit("s5378", scale=0.25, seed=1994)
    netlists = [base] + [
        seeded_delta(base, fraction=0.02, seed=seed).apply(base)[0]
        for seed in range(4)
    ]
    expected = [_direct_render_fingerprint(mapped) for mapped in netlists]
    n_threads = 8
    start = threading.Barrier(n_threads)
    results = []
    lock = threading.Lock()

    def key_all():
        start.wait(30)
        digests = [netlist_fingerprint(mapped) for mapped in netlists]
        with lock:
            results.append(digests)

    threads = [threading.Thread(target=key_all) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * n_threads
    # Racing writers leave every memo holding what one writer would.
    for mapped in netlists:
        for cell in mapped.cells:
            assert cell._fingerprint_fragment == json.dumps(
                [cell.name, cell.inputs, cell.outputs,
                 [sorted(sup) for sup in cell.supports]],
                separators=(",", ":"),
            )


def test_run_key_depends_on_all_components():
    base = run_key("n", config_fingerprint({"t": 1}), 3)
    assert base == run_key("n", config_fingerprint({"t": 1}), 3)
    assert base != run_key("m", config_fingerprint({"t": 1}), 3)
    assert base != run_key("n", config_fingerprint({"t": 2}), 3)
    assert base != run_key("n", config_fingerprint({"t": 1}), 4)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def test_build_record_conforms_and_is_stable(record, small_mapped):
    assert validate_record(record) == []
    assert record["schema"] == LEDGER_SCHEMA_NAME
    assert record["netlist_hash"] == netlist_fingerprint(small_mapped)
    again = build_record(
        kind="partition",
        circuit="s5378",
        mapped=small_mapped,
        config={"verb": "partition", "threshold": 1},
        seed=7,
        quality={"k": 2, "total_cost": 100.0, "feasible": True},
    )
    # volatile fields may differ; the stable view must not
    assert stable_view(record) == stable_view(again)
    assert "ts" not in stable_view(record) and "git_rev" not in stable_view(record)


def test_build_record_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_record(
            kind="mystery", circuit="x", config={}, seed=0, quality={}
        )


def test_validate_record_flags_problems(record):
    broken = dict(record)
    broken.pop("run_id")
    broken["seed"] = "seven"
    problems = validate_record(broken)
    assert any("run_id" in p for p in problems)
    assert any("seed" in p for p in problems)
    assert validate_record("not a dict")


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


def test_ledger_append_find_latest(tmp_path, record):
    ledger = Ledger(str(tmp_path / "led"))
    assert ledger.records() == []
    ledger.append(record)
    other = dict(record, run_id="ffff00000001", circuit="c880")
    ledger.append(other)
    rows = ledger.records()
    assert [r["circuit"] for r in rows] == ["s5378", "c880"]
    assert ledger.find("latest")["circuit"] == "c880"
    assert ledger.find("0")["circuit"] == "s5378"
    assert ledger.find("-1")["circuit"] == "c880"
    assert ledger.find(record["run_id"][:6])["circuit"] == "s5378"
    assert ledger.latest(circuit="s5378")["run_id"] == record["run_id"]
    assert ledger.latest(circuit="nope") is None
    with pytest.raises(LookupError):
        ledger.find("zzzz")


def test_ledger_find_reads_golden_file(tmp_path, record):
    golden = tmp_path / "golden.jsonl"
    golden.write_text(json.dumps(record) + "\n")
    ledger = Ledger(str(tmp_path / "led"))
    found = ledger.find(str(golden))
    assert found["run_id"] == record["run_id"]


def test_ledger_append_rejects_malformed(tmp_path):
    ledger = Ledger(str(tmp_path / "led"))
    with pytest.raises(ValueError):
        ledger.append({"schema": "nope"})
    assert not os.path.exists(ledger.path)


def test_ledger_survives_torn_tail(tmp_path, record):
    ledger = Ledger(str(tmp_path / "led"))
    ledger.append(record)
    with open(ledger.path, "a", encoding="utf-8") as fh:
        fh.write('{"v": 1, "torn')  # crashed writer
    assert len(ledger.records()) == 1


# ---------------------------------------------------------------------------
# Enablement
# ---------------------------------------------------------------------------


def test_resolve_ledger_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(LEDGER_ENV_VAR, raising=False)
    assert resolve_ledger() is None
    monkeypatch.setenv(LEDGER_ENV_VAR, str(tmp_path / "env"))
    assert resolve_ledger().path.startswith(str(tmp_path / "env"))
    installed = Ledger(str(tmp_path / "installed"))
    with use_ledger(installed):
        assert resolve_ledger() is installed
        explicit = resolve_ledger(str(tmp_path / "explicit"))
        assert explicit.path.startswith(str(tmp_path / "explicit"))
    assert resolve_ledger() is not installed


def test_env_var_truthy_means_default_dir(monkeypatch):
    monkeypatch.setenv(LEDGER_ENV_VAR, "1")
    ledger = resolve_ledger()
    assert ledger.path == os.path.join(
        obs_ledger.DEFAULT_LEDGER_DIR, obs_ledger.LEDGER_FILENAME
    )


def test_set_ledger_round_trip(tmp_path):
    ledger = Ledger(str(tmp_path / "led"))
    try:
        assert set_ledger(ledger) is ledger
        assert obs_ledger.get_ledger() is ledger
    finally:
        set_ledger(None)
    assert obs_ledger.get_ledger() is None


# ---------------------------------------------------------------------------
# api auto-logging and the determinism contract
# ---------------------------------------------------------------------------


def _run(mapped, verb="partition", **kwargs):
    """``run_request`` on a live mapped netlist (no name to resolve)."""
    request = build_request(verb, mapped.name, **kwargs)
    return api.run_request(request, circuit=mapped)


def test_api_partition_autolog_is_deterministic(tmp_path, small_mapped):
    ledger = Ledger(str(tmp_path / "led"))
    with use_ledger(ledger):
        first = _run(small_mapped, threshold=1, seed=3)
        second = _run(small_mapped, threshold=1, seed=3)
    assert first.run_record is not None and second.run_record is not None
    assert first.run_record["run_key"] == second.run_record["run_key"]
    assert stable_view(first.run_record) == stable_view(second.run_record)
    diff = diff_records(first.run_record, second.run_record)
    assert diff.verdict == "identical" and not diff.warnings
    # convergence was distilled: one carve series per committed level
    carves = first.run_record["convergence"]["carves"]
    assert carves and carves[-1].get("final") is True
    assert len([c for c in carves if c.get("final")]) >= 1
    assert len(ledger.records()) == 2


def test_traced_run_logs_the_untraced_record(tmp_path, small_mapped):
    # A JSONL-traced run captures convergence alongside its trace, so
    # tracing never changes what the ledger learns about a run.
    from repro.obs.events import JsonlEmitter, read_jsonl
    from repro.obs.metrics import MetricsRegistry, use_registry

    ledger = Ledger(str(tmp_path / "led"))
    trace = str(tmp_path / "trace.jsonl")
    with use_ledger(ledger):
        untraced = _run(small_mapped, threshold=1, seed=3).run_record
        registry = MetricsRegistry(enabled=True, emitter=JsonlEmitter(trace))
        with use_registry(registry):
            traced = _run(small_mapped, threshold=1, seed=3).run_record
        registry.close()
    assert untraced["convergence"]["carves"]
    assert stable_view(traced) == stable_view(untraced)
    # ... and the trace still received every captured event.
    names = [e.get("name") for e in read_jsonl(trace) if e.get("kind") == "event"]
    carves = traced["convergence"]["carves"]
    assert names.count("kway.carve_committed") + names.count(
        "kway.final_block"
    ) == len(carves)


def test_api_without_ledger_attaches_no_record(small_mapped, monkeypatch):
    monkeypatch.delenv(LEDGER_ENV_VAR, raising=False)
    result = _run(small_mapped, threshold=1, seed=3)
    assert result.run_record is None


def test_api_bipartition_autolog(tmp_path, small_mapped):
    ledger = Ledger(str(tmp_path / "led"))
    with use_ledger(ledger):
        result = _run(small_mapped, "bipartition", runs=2, seed=3)
    record = result.run_record
    assert record is not None and record["kind"] == "bipartition"
    assert record["quality"]["best_cut"] == result.solution.best_cut
    assert record["convergence"]["pass_series"], "no FM pass gains captured"


def test_plain_fm_pass_series_records_the_starting_cut(tmp_path, small_mapped):
    ledger = Ledger(str(tmp_path / "led"))
    with use_ledger(ledger):
        result = _run(small_mapped, "bipartition", algorithm="fm", runs=2, seed=3)
    series = result.run_record["convergence"]["pass_series"]
    assert [s["engine"] for s in series] == ["fm", "fm"]
    for run in series:
        assert run["initial_cut"] - sum(run["gains"]) == run["final_cut"]


def test_api_runner_path_stores_volatile_runner_log(tmp_path, small_mapped):
    ledger = Ledger(str(tmp_path / "led"))
    with use_ledger(ledger):
        result = _run(small_mapped, threshold=1, seed=3, max_retries=0)
    record = result.run_record
    assert record is not None and record["runner"]["attempts"]
    # runner data is volatile: it never enters the determinism contract
    assert "runner" not in stable_view(record)


# ---------------------------------------------------------------------------
# CLI flows
# ---------------------------------------------------------------------------


def _run_cli(argv):
    from repro.cli import main

    return main(argv)


def test_cli_partition_logs_and_runs_subcommands(tmp_path, capsys):
    led = str(tmp_path / "led")
    code = _run_cli(
        ["partition", "s5378", "--scale", "0.08", "--threshold", "1",
         "--ledger", led]
    )
    assert code == 0
    assert "logged run" in capsys.readouterr().err
    code = _run_cli(
        ["partition", "s5378", "--scale", "0.08", "--threshold", "1",
         "--ledger", led]
    )
    assert code == 0
    capsys.readouterr()

    assert _run_cli(["runs", "list", "--ledger", led]) == 0
    listing = capsys.readouterr().out
    assert listing.count("partition") == 2 and "s5378" in listing

    assert _run_cli(["runs", "show", "latest", "--ledger", led]) == 0
    shown = capsys.readouterr().out
    assert "quality.total_cost" in shown and "carve" in shown

    assert _run_cli(["runs", "diff", "0", "latest", "--ledger", led,
                     "--strict"]) == 0
    assert "identical" in capsys.readouterr().out

    out = str(tmp_path / "report.html")
    assert _run_cli(["runs", "report", "--ledger", led, "--baseline", "0",
                     "--out", out]) == 0
    capsys.readouterr()
    page = open(out, encoding="utf-8").read()
    assert page.startswith("<!DOCTYPE html>") and "<svg" in page
    assert "verdict-identical" in page or "identical" in page


def test_cli_runs_diff_flags_regression(tmp_path, record, capsys):
    ledger = Ledger(str(tmp_path / "led"))
    ledger.append(record)
    worse = build_record(
        kind="partition",
        circuit="s5378",
        netlist_hash=record["netlist_hash"],
        config={"verb": "partition", "threshold": 1},
        seed=7,
        quality={"k": 2, "total_cost": 120.0, "feasible": True},
    )
    ledger.append(worse)
    code = _run_cli(["runs", "diff", "0", "latest", "--ledger",
                     str(tmp_path / "led")])
    assert code == 1
    out = capsys.readouterr().out
    assert "regression" in out and "total_cost" in out
    # a generous tolerance waives the drift
    code = _run_cli(["runs", "diff", "0", "latest", "--ledger",
                     str(tmp_path / "led"), "--tolerance", "total_cost=25%"])
    assert code == 0


def test_cli_runs_diff_missing_record_exits_cleanly(tmp_path):
    with pytest.raises(SystemExit):
        _run_cli(["runs", "diff", "0", "latest", "--ledger",
                  str(tmp_path / "nothing")])
