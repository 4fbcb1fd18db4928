"""Pins of the engine decisions between a request and the engines.

For each verb, algorithm, threshold T and V-cycle mode: the config type
and fields each flow hands its engine (k-way: per carve level, with the
V-cycle choice of that level); the attempt cascade's ladder; and the
seeds, cuts and winner of the multi-start runs.  These pin behaviour, not
structure: they spy on the engine entry points only.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro import api
from repro.core.flow import bipartition_experiment, kway_solution
from repro.cache.store import SolutionCache, use_cache
from repro.netlist.benchmarks import benchmark_circuit
from repro.partition.devices import Device, DeviceLibrary
from repro.partition import kway as kway_mod
from repro.partition import multilevel as ml_mod
from repro.partition.fm import FMConfig, best_of_runs, fm_bipartition
from repro.partition.fm_replication import ReplicationConfig, replication_bipartition
from repro.partition.multilevel import MultilevelConfig, vcycle_bipartition
from repro.perf import parallel
from repro.request import build_request
from repro.robust.errors import ConfigError, InfeasibleError
from repro.robust.runner import engine_cascade, run_cascade
from repro.techmap.mapped import technology_map

ALGORITHMS = ("fm+functional", "fm+traditional", "fm")
STYLE = {"fm+functional": "functional", "fm+traditional": "traditional", "fm": "none"}
THRESHOLDS = (0, 1, math.inf)

#: Devices small enough that the k-way flow carves several levels.
LIBRARY = DeviceLibrary([
    Device("T16", clbs=16, terminals=24, price=10, util_upper=0.95),
    Device("T24", clbs=24, terminals=32, price=14, util_upper=0.95),
    Device("T32", clbs=32, terminals=36, price=17, util_upper=0.95),
], name="small")

#: The fields each engine config is pinned on (``seed`` is pinned apart).
FIELDS = {
    FMConfig: ("balance_tolerance", "max_passes", "side0_bounds", "fixed",
               "boundary_refine"),
    ReplicationConfig: ("threshold", "style", "balance_tolerance", "max_passes",
                        "max_growth", "side0_bounds", "fixed",
                        "warm_start_moves_only"),
    MultilevelConfig: ("threshold", "style", "replication_refine",
                       "balance_tolerance", "max_passes", "max_growth", "fixed",
                       "max_levels", "min_nodes", "coarsening_stall_ratio"),
}
ENGINE = {
    FMConfig: fm_bipartition,
    ReplicationConfig: replication_bipartition,
    MultilevelConfig: vcycle_bipartition,
}


def pinned(config):
    return type(config), {name: getattr(config, name) for name in FIELDS[type(config)]}


def final_cut(result):
    """A run's cut: a V-cycle counts after its replication finish."""
    if isinstance(result, ml_mod.MultilevelResult):
        return result.final_cut
    return result.cut_size


def replicated(result):
    if isinstance(result, ml_mod.MultilevelResult):
        return 0 if result.replication is None else result.replication.n_replicated
    return getattr(result, "n_replicated", 0)


def state(result):
    """What identifies a run's solution."""
    if isinstance(result, ml_mod.MultilevelResult):
        repl = result.replication
        return result.assignment, None if repl is None else (repl.sides, repl.replicas)
    if hasattr(result, "replicas"):
        return result.sides, result.replicas
    return result.assignment


@pytest.fixture
def seeded(monkeypatch):
    """Every multi-start run as ``(config, seed)``, in run order."""
    calls = []
    real = parallel._runs_task

    def spy(run_state, seed, budget):
        calls.append((run_state[1], seed))
        return real(run_state, seed, budget)

    monkeypatch.setattr(parallel, "_runs_task", spy)
    return calls


@pytest.fixture
def carves(monkeypatch):
    """Every carve candidate's engine as ``(level CLBs, config, V-cycle)``."""
    calls = []
    real = kway_mod.ReplicationEngine

    def spy(hg, config, initial=None, tables=None):
        calls.append((hg.n_cells, config, initial is not None))
        return real(hg, config, initial=initial, tables=tables)

    monkeypatch.setattr(kway_mod, "ReplicationEngine", spy)
    return calls


@pytest.fixture
def auto_below(monkeypatch):
    """Make ``auto`` resolve on from ``n`` cells."""
    return lambda n: monkeypatch.setattr(ml_mod, "MULTILEVEL_AUTO_MIN_CELLS", n)


# -- bipartition ---------------------------------------------------------


def expected_bipartition(algorithm, threshold, vcycle):
    common = dict(balance_tolerance=0.02, max_passes=16, fixed={})
    if vcycle:
        return MultilevelConfig, dict(
            common, threshold=threshold,
            style=STYLE[algorithm] if algorithm != "fm" else "functional",
            replication_refine=algorithm != "fm", max_growth=None,
            max_levels=10, min_nodes=64, coarsening_stall_ratio=0.9,
        )
    if algorithm == "fm":
        return FMConfig, dict(common, side0_bounds=None, boundary_refine=False)
    return ReplicationConfig, dict(
        common, threshold=threshold, style=STYLE[algorithm], max_growth=None,
        side0_bounds=None, warm_start_moves_only=True,
    )


@pytest.mark.parametrize("mode", ["on", "off", "auto", "auto-on"])
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_bipartition_hands_each_engine_its_config(
    small_mapped, seeded, auto_below, algorithm, threshold, mode
):
    if mode == "auto-on":
        auto_below(small_mapped.n_cells)
    flag = {"on": True, "off": False}.get(mode)
    report = bipartition_experiment(
        small_mapped, algorithm=algorithm, runs=1, threshold=threshold, seed=2,
        multilevel=flag,
    )
    vcycle = mode in ("on", "auto-on")
    assert [pinned(config) for config, _ in seeded] == [
        expected_bipartition(algorithm, threshold, vcycle)
    ]
    assert [seed for _, seed in seeded] == [2 * 7919]
    assert report.algorithm == algorithm and f"{report.algorithm}" == algorithm


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("multilevel", [False, True])
def test_bipartition_experiment_seeds_and_runs(
    small_mapped, small_hg, seeded, algorithm, multilevel
):
    report = bipartition_experiment(
        small_mapped, algorithm=algorithm, runs=3, threshold=1, seed=4,
        multilevel=multilevel,
    )
    seeds = [4 * 7919 + run for run in range(3)]
    assert [seed for _, seed in seeded] == seeds
    solo = [ENGINE[type(config)](small_hg, replace(config, seed=seed))
            for config, seed in seeded]
    assert report.cuts == [final_cut(r) for r in solo]
    assert report.replicated_counts == [replicated(r) for r in solo]
    assert report.runs == 3 and not report.truncated


@pytest.mark.parametrize("base", [
    FMConfig(seed=3),
    ReplicationConfig(seed=3, threshold=1),
    MultilevelConfig(seed=3, threshold=1, replication_refine=True),
], ids=["fm", "replication", "vcycle"])
def test_best_of_runs_seeds_and_winner(small_hg, seeded, base):
    best, cuts = best_of_runs(small_hg, 4, base)
    seeds = [3 * 7919 + run for run in range(4)]
    assert [seed for _, seed in seeded] == seeds
    solo = [ENGINE[type(base)](small_hg, replace(base, seed=seed)) for seed in seeds]
    assert cuts == [final_cut(r) for r in solo]
    assert state(best) == state(solo[cuts.index(min(cuts))])


# -- k-way -----------------------------------------------------------------


def expected_carve(algorithm, threshold):
    return dict(
        threshold=threshold,
        style="none" if threshold == math.inf else STYLE[algorithm],
        balance_tolerance=0.02, max_passes=12, max_growth=None,
        warm_start_moves_only=True,
    )


def check_carves(carves, algorithm, threshold, mode, auto_min, multiway=True):
    assert carves
    assert len({clbs for clbs, _, _ in carves}) >= (2 if multiway else 1)
    for clbs, config, vcycle in carves:
        assert type(config) is ReplicationConfig
        got = {name: getattr(config, name) for name in expected_carve(algorithm, threshold)}
        assert got == expected_carve(algorithm, threshold)
        assert vcycle == (mode == "on" or (mode == "auto" and clbs >= auto_min))
    if mode == "auto" and multiway:
        assert {v for _, _, v in carves} == {True, False}  # per level


@pytest.fixture(scope="module")
def carve_mapped():
    """77 CLBs: :data:`LIBRARY` carves it in several levels."""
    return technology_map(benchmark_circuit("c3540", scale=0.1, seed=7))


@pytest.mark.parametrize("mode", ["on", "off", "auto"])
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_kway_hands_each_carve_its_engine_config(
    carve_mapped, carves, auto_below, algorithm, threshold, mode
):
    auto_min = carve_mapped.n_cells - 1
    auto_below(auto_min)
    flag = {"on": True, "off": False}.get(mode)
    multiway = True
    try:
        kway_solution(
            carve_mapped, threshold=threshold, library=LIBRARY,
            n_solutions=1, seed=3, seeds_per_carve=1, algorithm=algorithm,
            devices_per_carve=1, multilevel=flag,
        )
    except InfeasibleError:
        # Traditional replication at T = 0 copies cells until no carve
        # makes progress on this library; the candidates it tried still
        # show the configs they were handed.
        assert (algorithm, threshold) == ("fm+traditional", 0)
        multiway = False
    check_carves(carves, algorithm, threshold, mode, auto_min, multiway)


# -- the request path hands both verbs the request's mode ------------------


@pytest.mark.parametrize("mode", ["on", "off", "auto"])
def test_partition_request_hands_its_mode_to_the_carve_scan(
    carve_mapped, carves, auto_below, tmp_path, mode
):
    auto_min = carve_mapped.n_cells - 1
    auto_below(auto_min)
    request = build_request(
        "partition", "c3540", library="small", threshold=0,
        algorithm="fm+functional", n_solutions=1, seed=3, seeds_per_carve=1,
        devices_per_carve=1, multilevel=mode,
    )
    store = SolutionCache(str(tmp_path / "c"))
    with use_cache(store):
        result = api.run_request(request, circuit=carve_mapped,
                                 library=LIBRARY, cache="use")
    check_carves(carves, "fm+functional", 0, mode, auto_min)
    # The key's marker resolves on the whole netlist.
    config = store.get(result.cache_info["key"])["config"]
    assert config.get("multilevel") is (True if mode != "off" else None)


@pytest.mark.parametrize("mode", ["on", "off", "auto", "auto-on"])
def test_bipartition_request_hands_its_mode_to_the_runs(
    small_mapped, seeded, auto_below, mode
):
    if mode == "auto-on":
        auto_below(small_mapped.n_cells)
    request = build_request(
        "bipartition", "s5378", algorithm="fm", threshold=1, runs=2, seed=6,
        multilevel=mode.split("-")[0],
    )
    api.run_request(request, circuit=small_mapped)
    vcycle = mode in ("on", "auto-on")
    assert [pinned(config) for config, _ in seeded] == [
        expected_bipartition("fm", 1, vcycle)
    ] * 2
    assert [seed for _, seed in seeded] == [6 * 7919, 6 * 7919 + 1]


# -- the attempt cascade ---------------------------------------------------


@pytest.mark.parametrize("start, fallback, expected", [
    ("fm+functional", True, ["fm+functional", "fm+traditional", "fm"]),
    ("fm+traditional", True, ["fm+traditional", "fm"]),
    ("fm", True, ["fm"]),
    ("fm+functional", False, ["fm+functional"]),
    ("fm+traditional", False, ["fm+traditional"]),
    ("fm", False, ["fm"]),
])
def test_engine_cascade_from_each_engine(start, fallback, expected):
    cascade = engine_cascade(start, fallback)
    assert cascade == expected
    assert [f"{engine}" for engine in cascade] == expected


def test_engine_cascade_without_fallback_rejects_an_unknown_engine():
    with pytest.raises(ConfigError):
        engine_cascade("simulated-annealing", fallback=False)


def test_cascade_walks_the_ladder_with_plain_engine_names():
    seen = []

    def attempt(engine, rung, seed, budget):
        seen.append((f"{engine}", rung, seed))
        if engine != "fm":
            raise RuntimeError("boom")
        return "solution", (False, False, 0)

    solution, log = run_cascade(attempt, engine="fm+functional", seed=5,
                                max_retries=0)
    assert solution == "solution"
    assert seen == [
        ("fm+functional", 0, 5),
        ("fm+traditional", 1, 5 * 9973 + 7919 + 1),
        ("fm", 2, 5 * 9973 + 2 * 7919 + 1),
    ]
    assert log.degradations() == ["fm+traditional", "fm"]
    assert [e["engine"] for e in log.as_record()["attempts"]] == [
        "fm+functional", "fm+traditional", "fm"]
