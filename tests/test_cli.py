"""Smoke tests for the command-line interface."""

import json

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
    ],
)
def test_out_of_range_solver_flags_exit_before_solving(argv):
    with pytest.raises(SystemExit, match=r"runs|n_solutions|max_retries"):
        main(argv)


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
