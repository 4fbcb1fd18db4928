"""The worker-pool layer and multi-start config derivation.

Determinism of the parallel winners (``jobs N`` == ``jobs 1``) is covered
end to end in ``tests/test_fm_equivalence.py``; this module tests the
plumbing: jobs resolution, cross-process budget capture, where
:class:`~repro.perf.parallel.WorkerPool` runs its tasks (in-process at
one worker, a process pool otherwise, ``jobs=0`` meaning all cores), and
the :func:`dataclasses.replace`-based config derivation of the
multi-start drivers (derived runs must *share* the base config's budget
object and fixed mapping, never copy them).
"""

import concurrent.futures
import os
import random
import subprocess
import sys

import pytest

import repro.partition.fm as fm_mod
import repro.partition.fm_replication as repl_mod
from repro.partition.fm import FMConfig
from repro.partition.fm_replication import ReplicationConfig
from repro.perf.parallel import (
    WorkerPool,
    _budget_allotment,
    _rebuild_budget,
    resolve_jobs,
)
from repro.robust.budget import Budget
from tests.test_gain_model import _random_hypergraph


def _no_process_pool(monkeypatch):
    """Make any attempt to start a process pool fail the test."""

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("jobs=1 must stay in-process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", boom)


def _spy_process_pools(monkeypatch):
    """Record the worker count of every process pool started."""
    real = concurrent.futures.ProcessPoolExecutor
    started = []

    def spy(*args, **kwargs):
        started.append(kwargs.get("max_workers"))
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return started


def _collect_state(shared, budget):
    shared.append("built")
    return len(shared)


def _offset_task(state, item, budget):
    return state * 100 + item


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(1) == 1

    def test_all_cores(self):
        import os

        cores = os.cpu_count() or 1
        assert resolve_jobs(None) == cores
        assert resolve_jobs(0) == cores
        assert resolve_jobs(-1) == cores


class TestBudgetCapture:
    def test_no_budget(self):
        assert _budget_allotment(None) is None
        assert _rebuild_budget(None, limited=False) is None

    def test_unlimited_budget(self):
        remaining = _budget_allotment(Budget(None))
        assert remaining is None
        rebuilt = _rebuild_budget(remaining, limited=True)
        assert rebuilt is not None and not rebuilt.expired

    def test_limited_budget(self):
        remaining = _budget_allotment(Budget(30.0))
        assert remaining is not None and 0 < remaining <= 30.0
        rebuilt = _rebuild_budget(remaining, limited=True)
        assert rebuilt is not None
        assert rebuilt.remaining() <= remaining

    def test_expired_budget_rebuilds_expired(self):
        budget = Budget(0.0)
        rebuilt = _rebuild_budget(_budget_allotment(budget), limited=True)
        assert rebuilt is not None and rebuilt.expired


class TestDerivedConfigs:
    """`best_of_runs` derives per-run configs with ``dataclasses.replace``:
    only the seed differs, and mutable members are shared, not copied."""

    def test_fm_runs_share_budget_and_fixed(self, monkeypatch):
        hg = _random_hypergraph(random.Random(17))
        budget = Budget(None)
        fixed = {0: 1}
        base = FMConfig(seed=2, budget=budget, fixed=fixed)
        seen = []
        real = fm_mod.fm_bipartition

        def spy(hg_, config=None, initial=None, compact=None):
            seen.append(config)
            return real(hg_, config, initial, compact=compact)

        monkeypatch.setattr(fm_mod, "fm_bipartition", spy)
        fm_mod.best_of_runs(hg, runs=3, base_config=base)
        assert len(seen) == 3
        assert all(cfg.budget is budget for cfg in seen)
        assert all(cfg.fixed is fixed for cfg in seen)
        assert [cfg.seed for cfg in seen] == [base.seed * 7919 + r for r in range(3)]
        assert base.seed == 2  # the base config itself is untouched

    def test_replication_runs_share_budget_and_fixed(self, monkeypatch):
        hg = _random_hypergraph(random.Random(18))
        budget = Budget(None)
        fixed = {0: 0}
        base = ReplicationConfig(seed=3, threshold=1, budget=budget, fixed=fixed)
        seen = []
        real = repl_mod.replication_bipartition

        def spy(hg_, config=None, initial=None, tables=None):
            seen.append(config)
            return real(hg_, config, initial, tables=tables)

        monkeypatch.setattr(repl_mod, "replication_bipartition", spy)
        fm_mod.best_of_runs(hg, runs=3, base_config=base)
        assert len(seen) == 3
        assert all(cfg.budget is budget for cfg in seen)
        assert all(cfg.fixed is fixed for cfg in seen)
        assert [cfg.seed for cfg in seen] == [base.seed * 7919 + r for r in range(3)]


class TestWorkerPoolMap:
    def test_one_worker_stops_at_an_expired_budget_after_one_item(
        self, monkeypatch
    ):
        _no_process_pool(monkeypatch)
        with WorkerPool(_collect_state, [], _offset_task, 1, Budget(0.0)) as pool:
            assert pool.map([1, 2, 3]) == [101]

    def test_one_worker_builds_state_once_on_the_first_item(self, monkeypatch):
        _no_process_pool(monkeypatch)
        shared: list = []
        with WorkerPool(_collect_state, shared, _offset_task, 1) as pool:
            assert pool.map([]) == []
            assert shared == []
            assert pool.map([1, 2]) == [101, 102]
            assert pool.map([3]) == [103]
        assert shared == ["built"]

    def test_two_workers_run_every_item(self):
        with WorkerPool(_collect_state, [], _offset_task, 2, Budget(0.0)) as pool:
            assert pool.map([1, 2, 3]) == [101, 102, 103]


class TestJobsZeroMeansAllCores:
    def test_best_of_runs_starts_a_pool_per_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        started = _spy_process_pools(monkeypatch)
        hg = _random_hypergraph(random.Random(21))
        best, cuts = fm_mod.best_of_runs(
            hg, runs=3, base_config=FMConfig(seed=1), jobs=0
        )
        assert started == [2]
        assert len(cuts) == 3 and best.cut_size == min(cuts)

    def test_bipartition_experiment_starts_a_pool_per_core(self, monkeypatch):
        from repro.core.flow import bipartition_experiment, map_circuit

        mapped = map_circuit("s5378", scale=0.12, seed=7)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        started = _spy_process_pools(monkeypatch)
        report = bipartition_experiment(mapped, "fm+functional", runs=2, jobs=0)
        assert started == [2]
        assert report.runs == 2


class TestDegradation:
    def test_jobs_1_never_touches_the_pool(self, monkeypatch):
        from repro.netlist.benchmarks import benchmark_circuit
        from repro.partition.kway import KWayConfig, partition_heterogeneous
        from repro.techmap.mapped import technology_map
        from tests.test_kway import TINY_LIBRARY

        _no_process_pool(monkeypatch)
        hg = _random_hypergraph(random.Random(19))
        best, cuts = fm_mod.best_of_runs(hg, runs=2, base_config=FMConfig(seed=1))
        assert len(cuts) == 2 and best.cut_size == min(cuts)
        best, cuts = fm_mod.best_of_runs(
            hg, runs=2, base_config=ReplicationConfig(seed=1, threshold=1)
        )
        assert len(cuts) == 2 and best.cut_size == min(cuts)
        mapped = technology_map(benchmark_circuit("s5378", scale=0.12, seed=7))
        solution = partition_heterogeneous(
            mapped,
            KWayConfig(library=TINY_LIBRARY, threshold=1, seed=3, seeds_per_carve=2),
        )
        assert solution.k >= 2  # the carve scan ran

    def test_jobs_1_solve_loads_no_process_pool_module(self):
        """The executor is imported where it is made, so an in-process
        solve never loads ``multiprocessing``."""
        import repro

        code = (
            "import sys\n"
            "from repro import api\n"
            "from repro.request import build_request\n"
            "request = build_request('partition', 's5378', scale=0.25, threshold=1)\n"
            "result = api.run_request(request, cache='off', jobs=1)\n"
            "assert result.solution.k >= 2\n"
            "print(sorted(m for m in ('concurrent.futures.process', "
            "'multiprocessing') if m in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_parallel_with_expired_budget_still_returns(self):
        hg = _random_hypergraph(random.Random(20))
        base = FMConfig(seed=1, budget=Budget(0.0))
        best, cuts = fm_mod.best_of_runs(hg, runs=2, base_config=base, jobs=2)
        assert best is not None
        assert len(cuts) == 2  # every dispatched run reports, however briefly


class TestBalanceBounds:
    """Satellite of the bucket rewrite: balance-blocked entries are parked
    and only re-queued when a mover actually changes side-0 size in the
    re-admitting direction.  The observable contract is that explicit
    bounds hold in the final assignment and behavior matches the
    reference engine exactly (the equivalence suite); here we pin the
    bounds invariant under configurations tight enough to force parking.
    """

    @pytest.mark.parametrize("case_seed", range(6))
    def test_side0_bounds_hold(self, case_seed):
        hg = _random_hypergraph(random.Random(case_seed * 31 + 7))
        total = hg.total_clb_weight()
        lo = max(1, total // 3)
        hi = max(lo, total // 2)
        result = fm_mod.fm_bipartition(
            hg, FMConfig(seed=case_seed, side0_bounds=(lo, hi))
        )
        s0 = sum(
            hg.nodes[v].clb_weight
            for v, s in enumerate(result.assignment)
            if s == 0
        )
        assert lo <= s0 <= hi

    def test_blocked_node_moves_once_capacity_frees(self):
        """A high-gain mover that starts inadmissible must still land once
        another move frees capacity, not be dropped for the pass."""
        for case_seed in range(8):
            hg = _random_hypergraph(random.Random(case_seed * 13 + 3))
            total = hg.total_clb_weight()
            half = total // 2
            config = FMConfig(seed=case_seed, side0_bounds=(half, half + 1))
            fast = fm_mod.fm_bipartition(hg, config)
            from repro.partition.reference import reference_fm_bipartition

            ref = reference_fm_bipartition(hg, config)
            assert fast.assignment == ref.assignment
            assert fast.pass_gains == ref.pass_gains
