"""Smoke tests for the command-line interface."""

import json
from enum import Enum

import pytest

from repro.cli import main


def test_stats_benchmark(capsys):
    assert main(["stats", "c6288", "--scale", "0.15", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["name"] == "c6288"
    assert data["gates"] > 0


def test_stats_bench_file(capsys, tmp_path, tiny_netlist):
    from repro.netlist.bench_io import save_bench

    path = str(tmp_path / "tiny.bench")
    save_bench(tiny_netlist, path)
    assert main(["stats", path]) == 0
    assert "gates" in capsys.readouterr().out


def test_unknown_circuit_rejected():
    with pytest.raises(SystemExit):
        main(["stats", "c17"])


@pytest.mark.parametrize(
    "argv",
    [
        ["bipartition", "s5378", "--runs", "0"],
        ["partition", "s5378", "--solutions", "0"],
        ["partition", "s5378", "--max-retries", "-1"],
        ["partition", "s5378", "--devices-per-carve", "0"],
        ["partition", "s5378", "--devices-per-carve", "-2"],
        ["partition", "s5378", "--scale", "0"],
        ["partition", "s5378", "--scale", "2"],
        ["partition", "s5378", "--scale", "0.1", "--threshold", "-1"],
        ["partition", "s5378", "--scale", "0.1", "--deadline", "-1"],
        ["bipartition", "s5378", "--scale", "0.1", "--max-passes", "-1"],
        ["bipartition", "s5378", "--scale", "0.1", "--balance-tolerance", "-0.5"],
    ],
)
def test_out_of_range_solver_flags_exit_before_solving(argv):
    with pytest.raises(
        SystemExit,
        match=r"runs|n_solutions|max_retries|devices_per_carve|scale|threshold"
        r"|deadline|max_passes|balance_tolerance",
    ):
        main(argv)


def test_fractional_count_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["partition", "s5378", "--devices-per-carve", "1.5"])
    assert exc.value.code == 2
    assert "--devices-per-carve: invalid int value: '1.5'" in capsys.readouterr().err


def test_map_command(capsys):
    assert main(["map", "c6288", "--scale", "0.15", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["#CLBs"] > 0
    assert "multi_output_cells" in data


def test_bipartition_command(capsys):
    assert (
        main(
            [
                "bipartition",
                "s5378",
                "--scale",
                "0.08",
                "--runs",
                "2",
                "--json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["best_cut"] >= 0
    assert data["runs"] == 2


def test_bipartition_fm_only(capsys):
    assert (
        main(
            [
                "bipartition",
                "s5378",
                "--scale",
                "0.08",
                "--algorithm",
                "fm",
                "--runs",
                "2",
            ]
        )
        == 0
    )
    assert "best cut" in capsys.readouterr().out


def test_partition_command(capsys):
    assert (
        main(
            [
                "partition",
                "s5378",
                "--scale",
                "0.12",
                "--threshold",
                "1",
                "--solutions",
                "1",
                "--json",
            ]
        )
        == 0
    )
    data = json.loads(capsys.readouterr().out)
    assert data["k"] >= 1
    assert data["total_cost"] > 0


def test_experiment_table1(capsys):
    assert main(["experiment", "table1"]) == 0
    assert "XC3090" in capsys.readouterr().out


def test_experiment_table2(capsys):
    assert (
        main(["experiment", "table2", "--scale", "0.1", "--circuits", "c6288"]) == 0
    )
    assert "#CLBs" in capsys.readouterr().out


def test_experiment_figure3(capsys):
    assert (
        main(["experiment", "figure3", "--scale", "0.1", "--circuits", "c6288"]) == 0
    )
    assert "psi" in capsys.readouterr().out


def test_analyze_command(capsys):
    assert main(["analyze", "c6288", "--scale", "0.15", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["circuit"] == "c6288"
    assert "rent_exponent" in data
    assert "psi_distribution" in data


def test_partition_verify_flag(capsys):
    rc = main(
        [
            "partition",
            "s5378",
            "--scale",
            "0.1",
            "--threshold",
            "1",
            "--solutions",
            "1",
            "--verify",
            "--json",
        ]
    )
    data = json.loads(capsys.readouterr().out)
    assert data["violations"] == []
    assert rc == 0


# ---------------------------------------------------------------------------
# One execution path: every solver verb is one request through run_request
# ---------------------------------------------------------------------------


def _quick_mapped(scale=0.1):
    from repro import api

    # Every front door maps at the request's mapping seed (seed or 1994).
    return api.map("s5378", scale=scale, seed=1994).solution


def _json_run(capsys, argv):
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_partition_solves_the_same_netlist_with_and_without_cache(
    capsys, tmp_path
):
    argv = ["partition", "s5378", "--scale", "0.1", "--seed", "0",
            "--solutions", "1"]
    plain = _json_run(capsys, argv)
    cached = _json_run(
        capsys, argv + ["--cache", "use", "--cache-dir", str(tmp_path / "c")]
    )
    assert plain["n_cells"] == cached["n_cells"] == _quick_mapped().n_cells
    assert json.dumps(plain["solution"], sort_keys=True) == json.dumps(
        cached["solution"], sort_keys=True
    )


def test_partition_cache_key_is_the_request_key(capsys, tmp_path):
    from repro.request import build_request

    data = _json_run(
        capsys,
        ["partition", "s5378", "--scale", "0.1", "--threshold", "1",
         "--solutions", "1", "--cache", "use",
         "--cache-dir", str(tmp_path / "c")],
    )
    mapped = _quick_mapped()
    fields = dict(scale=0.1, seed=1994, n_solutions=1)
    expected = build_request("partition", "s5378", threshold=1, **fields)
    floated = build_request("partition", "s5378", threshold=1.0, **fields)
    assert data["cache_info"]["key"] == expected.cache_key(mapped)
    assert expected.cache_key(mapped) != floated.cache_key(mapped)


def test_partition_deadline_survives_the_cache(capsys, tmp_path):
    from repro.request import build_request
    from repro.robust.runner import ENGINE_LADDER

    data = _json_run(
        capsys,
        ["partition", "s5378", "--scale", "0.1", "--solutions", "1",
         "--deadline", "60", "--cache", "use",
         "--cache-dir", str(tmp_path / "c")],
    )
    assert data["engine"] in ENGINE_LADDER
    assert data["run_log"] and data["run_log_summary"]["attempts"] >= 1
    request = build_request(
        "partition", "s5378", scale=0.1, seed=1994, n_solutions=1, deadline=60
    )
    assert data["cache_info"]["key"] == request.cache_key(_quick_mapped())


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "s5378", "--scale", "0.1", "--solutions", "1"],
        ["bipartition", "s5378", "--scale", "0.08", "--runs", "2"],
        ["partition", "s5378", "--scale", "0.1", "--solutions", "1", "--verify"],
        ["partition", "s5378", "--scale", "0.1", "--solutions", "1",
         "--deadline", "60"],
        ["partition", "s5378", "--scale", "0.1", "--solutions", "1",
         "--ledger", "LEDGER"],
    ],
    ids=["partition", "bipartition", "verify", "deadline", "ledger"],
)
def test_solver_verbs_run_exactly_one_request(argv, monkeypatch, tmp_path, capsys):
    from repro import api

    calls = []
    real = api.run_request

    def spy(request, **kwargs):
        calls.append(request)
        return real(request, **kwargs)

    monkeypatch.setattr(api, "run_request", spy)
    argv = [str(tmp_path / "led") if arg == "LEDGER" else arg for arg in argv]
    assert main(argv) == 0
    capsys.readouterr()
    assert [request.verb for request in calls] == [argv[0]]


# ---------------------------------------------------------------------------
# One declaration: the solver verbs' flags are the request's fields
# ---------------------------------------------------------------------------

DELTA = {
    "schema": "repro-netlist-delta/1",
    "v": 1,
    "ops": [{"op": "remove_cell", "cell": "n1"}],
}

#: One off-default command-line value per request field, and the value
#: (type included) the request must hold for it.
FLAG_VALUES = {
    "scale": (["--scale", "0.5"], 0.5),
    "seed": (["--seed", "7"], 7),
    "algorithm": (["--algorithm", "fm"], "fm"),
    "threshold": (["--threshold", "inf"], float("inf")),
    "multilevel": (["--no-multilevel"], "off"),
    "library": (["--library", "XC4000"], "XC4000"),
    "n_solutions": (["--solutions", "4"], 4),
    "seeds_per_carve": (["--seeds-per-carve", "5"], 5),
    "devices_per_carve": (["--devices-per-carve", "6"], 6),
    "runs": (["--runs", "9"], 9),
    "balance_tolerance": (["--balance-tolerance", "0.1"], 0.1),
    "max_passes": (["--max-passes", "3"], 3),
    "max_growth": (["--max-growth", "0.5"], 0.5),
    "deadline": (["--deadline", "12"], 12),
    "max_retries": (["--max-retries", "2"], 2),
    "fallback": (["--fallback"], True),
    "cache": (["--cache", "use"], "use"),
    "jobs": (["--jobs", "2"], 2),
    "delta": (["--delta", "DELTA"], None),
    "warm_start": (["--warm-start", "off"], "off"),
}


def _cli_request(argv):
    from repro.cli import _request_from_args, build_parser

    return _request_from_args(build_parser().parse_args(argv))


def test_every_request_field_is_settable_from_its_subcommand(tmp_path):
    from repro.request import VERB_FIELDS
    from repro.techmap.delta import NetlistDelta

    delta_path = tmp_path / "eco.json"
    delta_path.write_text(json.dumps(DELTA), encoding="utf-8")
    taken = {
        verb: {spec.name for spec in VERB_FIELDS[verb]}
        - {"verb", "circuit", "schema_version", "trace_id"}
        for verb in ("bipartition", "partition")
    }
    assert taken["bipartition"] | taken["partition"] == set(FLAG_VALUES)
    for verb, names in taken.items():
        default = _cli_request([verb, "s5378"])
        for name in sorted(names):
            argv, expected = FLAG_VALUES[name]
            argv = [str(delta_path) if arg == "DELTA" else arg for arg in argv]
            value = getattr(_cli_request([verb, "s5378", *argv]), name)
            if name == "delta":
                expected = NetlistDelta.from_dict(DELTA)
            plain = value.value if isinstance(value, Enum) else value
            assert plain == expected and type(plain) is type(expected), (
                verb, name, value,
            )
            assert value != getattr(default, name), (verb, name)


def test_bipartition_cache_replays_bit_identical(capsys, tmp_path):
    argv = ["bipartition", "s5378", "--scale", "0.12", "--runs", "3",
            "--cache", "use", "--cache-dir", str(tmp_path / "c")]
    cold = _json_run(capsys, argv)
    warm = _json_run(capsys, argv)
    assert cold["cache_info"]["status"] == "miss"
    assert warm["cache_info"]["status"] == "hit"
    assert json.dumps(cold["solution"], sort_keys=True) == json.dumps(
        warm["solution"], sort_keys=True
    )


def test_bipartition_threshold_inf_keys_like_the_manifest_spelling(
    capsys, tmp_path
):
    from repro.request import build_request

    data = _json_run(
        capsys,
        ["bipartition", "s5378", "--scale", "0.1", "--runs", "2",
         "--threshold", "inf", "--cache", "use",
         "--cache-dir", str(tmp_path / "c")],
    )
    assert data["avg_replicated"] == 0.0
    request = build_request(
        "bipartition", "s5378", scale=0.1, seed=1994, runs=2, threshold="inf"
    )
    assert data["cache_info"]["key"] == request.cache_key(_quick_mapped())


def test_cli_manifest_keys_like_sweep_manifest(tmp_path):
    from repro.batch.manifest import expand_manifest
    from repro.experiments.tables4to7 import sweep_manifest
    from repro.obs.ledger import config_fingerprint

    out = tmp_path / "m.json"
    assert main(["batch", "manifest", "tables4to7", "--circuits", "s5378",
                 "--scale", "0.12", "--out", str(out)]) == 0

    def fingerprints(manifest):
        return [
            (job.job_id, config_fingerprint(job.request.config()))
            for job in expand_manifest(manifest)
        ]

    written = json.loads(out.read_text(encoding="utf-8"))
    assert fingerprints(written) == fingerprints(
        sweep_manifest(["s5378"], 0.12, 1994)
    )


# ---------------------------------------------------------------------------
# One circuit resolver: every circuit command maps a run seed like a request
# ---------------------------------------------------------------------------


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", ["stats", "map", "analyze"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_seed_zero_resolves_the_recorded_circuit(command, json_flag, capsys):
    base = [command, "s5378", "--scale", "0.1", *json_flag]
    assert _stdout(capsys, base + ["--seed", "0"]) == _stdout(
        capsys, base + ["--seed", "1994"]
    )


def test_seed_zero_delta_applies_to_the_seed_zero_partition(capsys, tmp_path):
    eco = str(tmp_path / "eco0.json")
    cache = str(tmp_path / "c")
    circuit = ["s5378", "--scale", "0.1", "--seed", "0"]
    assert main(["delta", "gen", *circuit, "--fraction", "0.01", "--out", eco]) == 0
    capsys.readouterr()
    solve = ["partition", *circuit, "--threshold", "1", "--solutions", "1",
             "--cache", "use", "--cache-dir", cache]
    cold = _json_run(capsys, solve)
    warm = _json_run(capsys, solve + ["--delta", eco])
    assert cold["cache_info"]["status"] == "miss"
    assert warm["cache_info"]["warm"]["mode"] == "warm"
    assert warm["cache_info"]["warm"]["ancestor_key"] == cold["cache_info"]["key"]
