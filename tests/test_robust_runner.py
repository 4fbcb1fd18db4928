"""End-to-end tests of the attempt cascade behind ``run_request``.

Every resilience path is driven deterministically with the fault
harness, through the same front door every caller uses: crashes recover
via perturbed-seed retries, persistent engine failures walk the
degradation cascade down to plain FM, expired budgets return verified
best-so-far solutions, and only a total wipe-out raises
:class:`BudgetExceededError`.  A request without resilience fields is
one plain attempt, and a deadline that never binds changes nothing.
"""

import json
import math

import pytest

from repro import api
from repro.cache import codec as cache_codec
from repro.cache.store import SolutionCache, use_cache
from repro.netlist.benchmarks import benchmark_circuit
from repro.partition.devices import Device, DeviceLibrary
from repro.partition.fm_replication import FUNCTIONAL, TRADITIONAL
from repro.partition.kway import KWayConfig, KWaySolution, partition_heterogeneous
from repro.request import Algorithm, RequestError, build_request
from repro.robust import faults
from repro.robust.budget import Budget
from repro.robust.errors import (
    BudgetExceededError,
    ConfigError,
    VerificationError,
)
from repro.robust.faults import Fault, FaultError
from repro.robust.runner import engine_cascade
from repro.techmap.mapped import technology_map

TINY_LIBRARY = DeviceLibrary(
    [
        Device("T16", clbs=16, terminals=24, price=10, util_upper=0.95),
        Device("T32", clbs=32, terminals=36, price=17, util_upper=0.95),
        Device("T64", clbs=64, terminals=52, price=30, util_upper=0.95),
    ],
    name="tiny",
)

#: Small solver knobs so each attempt stays cheap.
FAST = dict(
    threshold=1,
    library=TINY_LIBRARY,
    seed=3,
    seeds_per_carve=2,
    devices_per_carve=2,
)

#: The same knobs as request fields (one solution per attempt).
KWAY = dict(
    threshold=1, seed=3, seeds_per_carve=2, devices_per_carve=2, n_solutions=1
)


@pytest.fixture(scope="module")
def mapped():
    return technology_map(benchmark_circuit("s5378", scale=0.12, seed=7))


def solve(mapped, verb="partition", **fields):
    """``run_request`` on the tiny library (k-way) or 2 runs at seed 5."""
    if verb == "partition":
        request = build_request(verb, "s5378", library="tiny", **{**KWAY, **fields})
        return api.run_request(request, circuit=mapped, library=TINY_LIBRARY)
    request = build_request(verb, "s5378", **{"runs": 2, "seed": 5, **fields})
    return api.run_request(request, circuit=mapped)


def winning_engine(log):
    """The engine of the last checkpoint: the one the result came from."""
    return [e.engine for e in log.events if e.kind == "checkpoint"][-1]


def all_cells_placed(mapped, solution):
    placed = set()
    for block in solution.blocks:
        placed.update(block.originals)
    return placed == {c.name for c in mapped.cells}


class TestCascadeSpec:
    def test_full_ladder(self):
        assert engine_cascade("fm+functional") == [a.value for a in Algorithm]

    def test_ladder_from_middle(self):
        assert engine_cascade("fm+traditional") == ["fm+traditional", "fm"]

    def test_no_fallback(self):
        assert engine_cascade("fm+functional", fallback=False) == ["fm+functional"]

    def test_unknown_engine(self):
        with pytest.raises(ConfigError):
            engine_cascade("simulated-annealing")


class TestRunnerConfig:
    def test_negative_retries_rejected(self):
        with pytest.raises(RequestError):
            build_request("partition", "s5378", max_retries=-1)


class TestHappyPath:
    def test_unlimited_run_succeeds_first_try(self, mapped):
        result = solve(mapped, max_retries=0)
        assert isinstance(result.solution, KWaySolution)
        assert winning_engine(result.run_log) == "fm+functional"
        assert result.run_log.outcomes() == ["ok"]
        assert result.run_log.degradations() == []
        assert all_cells_placed(mapped, result.solution)

    def test_log_is_json_serializable(self, mapped):
        result = solve(mapped, max_retries=0)
        payload = json.dumps(result.run_log.as_dicts())
        assert "attempt" in payload
        summary = result.run_log.summary()
        assert summary["attempts"] >= 1 and summary["degradations"] == []

    def test_plain_request_is_one_attempt_at_its_own_seed(self, mapped):
        result = solve(mapped)
        attempts = result.run_log.attempts()
        assert [(a.engine, a.seed, a.outcome) for a in attempts] == [
            ("fm+functional", KWAY["seed"], "ok")
        ]
        assert math.isinf(attempts[0].allotted)  # no deadline, no slice


class TestFirstAttemptIsThePlainCall:
    """A deadline that never binds, or retries that are never needed,
    return the solution document of the request without them."""

    @pytest.mark.parametrize("fields", [{"deadline": 1e6}, {"max_retries": 2}])
    def test_kway_document_is_byte_identical(self, mapped, fields):
        # Seed 2: the best of its two solutions is the first one.
        plain = solve(mapped, seed=2, n_solutions=2)
        resilient = solve(mapped, seed=2, n_solutions=2, **fields)
        assert cache_codec.encode_solution(resilient.solution) == (
            cache_codec.encode_solution(plain.solution)
        )

    @pytest.mark.parametrize("fields", [{"deadline": 1e6}, {"max_retries": 2}])
    def test_bipartition_document_is_identical(self, mapped, fields):
        def document(result):
            doc = cache_codec.encode_solution(result.solution)
            doc.pop("elapsed_seconds")
            return doc

        plain = solve(mapped, "bipartition", runs=4)
        resilient = solve(mapped, "bipartition", runs=4, **fields)
        assert document(resilient) == document(plain)


class TestVerification:
    def test_corrupt_cold_solution_never_leaves(self, mapped, monkeypatch):
        """A plain k-way request verifies its solve: a corrupted solution
        is rejected, and with no retry left the request fails naming
        the verification error."""
        real = api.kway_solution

        def corrupted(*args, **kwargs):
            solution = real(*args, **kwargs)
            solution.blocks[0].cells.clear()  # drop a block's cells
            return solution

        monkeypatch.setattr(api, "kway_solution", corrupted)
        with pytest.raises(BudgetExceededError, match="VerificationError") as err:
            solve(mapped)
        assert isinstance(err.value.__cause__, VerificationError)
        assert err.value.log.outcomes() == ["rejected"]


class TestDeadline:
    def test_tight_deadline_returns_best_so_far(self, mapped):
        """A deadline far below the solve time still yields a verified,
        fully populated solution instead of raising."""
        # A delay at every carve makes the budget expire mid-search
        # regardless of machine speed.
        with faults.inject(Fault("kway.carve", delay=0.02)):
            result = solve(mapped, deadline=0.1, max_retries=0)
        assert isinstance(result.solution, KWaySolution)
        assert all_cells_placed(mapped, result.solution)
        assert result.run_log.attempts()  # something was tried and logged

    def test_graceful_zero_budget_truncates(self, mapped):
        """An already-expired budget dumps everything into one
        best-effort block."""
        solution = partition_heterogeneous(
            mapped, KWayConfig(budget=Budget(0.0), **FAST)
        )
        assert solution.truncated
        assert solution.k == 1
        assert all_cells_placed(mapped, solution)
        assert solution.summary()["truncated"] is True


class TestRetry:
    def test_recovers_from_injected_crash_with_new_seed(self, mapped):
        with faults.inject(
            Fault("engine.run", error=FaultError, match={"style": FUNCTIONAL}, times=1)
        ):
            result = solve(mapped, max_retries=2)
        outcomes = result.run_log.outcomes()
        assert outcomes[0] == "error"
        assert outcomes[-1] == "ok"
        attempts = result.run_log.attempts()
        assert attempts[0].seed == KWAY["seed"]  # the plain call first
        assert attempts[0].seed != attempts[1].seed  # perturbed retry
        assert winning_engine(result.run_log) == "fm+functional"  # no degradation
        assert "FaultError" in attempts[0].detail


class TestDegradation:
    def test_cascade_ends_at_plain_fm(self, mapped):
        """Persistent failures of both replication styles drive the run
        down to the plain-FM baseline."""
        with faults.inject(
            Fault("engine.run", error=FaultError, match={"style": FUNCTIONAL}),
            Fault("engine.run", error=FaultError, match={"style": TRADITIONAL}),
        ):
            result = solve(mapped, max_retries=0)
        assert result.run_log.degradations() == ["fm+traditional", "fm"]
        assert winning_engine(result.run_log) == "fm"
        assert result.run_log.outcomes()[-1] == "ok"
        assert all_cells_placed(mapped, result.solution)

    def test_no_fallback_disables_cascade(self, mapped):
        with faults.inject(
            Fault("engine.run", error=FaultError, match={"style": FUNCTIONAL})
        ):
            with pytest.raises(BudgetExceededError, match="FaultError") as err:
                solve(mapped, max_retries=0, fallback=False)
        assert isinstance(err.value.__cause__, FaultError)


class TestGiveUp:
    def test_total_failure_raises_with_log(self, mapped):
        with faults.inject(Fault("kway.carve", error=FaultError)):
            with pytest.raises(BudgetExceededError) as err:
                solve(mapped, max_retries=1)
        log = err.value.log
        assert log is not None
        # 2 attempts on each of the 3 cascade rungs, all failed.
        assert len(log.attempts()) == 6
        assert set(log.outcomes()) == {"error"}
        assert log.degradations() == ["fm+traditional", "fm"]

    def test_plain_request_failure_names_its_cause(self, mapped):
        with faults.inject(Fault("kway.carve", error=FaultError)):
            with pytest.raises(BudgetExceededError, match="FaultError") as err:
                solve(mapped)
        assert err.value.log.outcomes() == ["error"]


class TestBipartition:
    def test_happy_path(self, mapped):
        result = solve(mapped, "bipartition", max_retries=0)
        assert result.solution.runs == 2
        assert result.solution.best_cut >= 0
        assert result.run_log.outcomes() == ["ok"]

    def test_crash_then_recover(self, mapped):
        with faults.inject(
            Fault("engine.run", error=FaultError, match={"style": FUNCTIONAL}, times=1)
        ):
            result = solve(mapped, "bipartition", max_retries=1)
        assert result.run_log.outcomes() == ["error", "ok"]
        assert result.solution.runs == 2

    def test_deadline_truncates_runs(self, mapped):
        with faults.inject(Fault("engine.run", delay=0.05)):
            result = solve(
                mapped, "bipartition", runs=40, deadline=0.12, max_retries=0
            )
        assert 1 <= result.solution.runs < 40
        # A truncated attempt is a checkpoint, not a stop: the cascade
        # goes on down the ladder until the deadline has passed.
        assert set(result.run_log.outcomes()) == {"truncated"}

    def test_truncated_report_is_not_ok(self):
        """A report cut short reads ``ok`` False on the object, in its
        document and after a round trip, and its batch job is degraded."""
        from repro.batch.manifest import MANIFEST_SCHEMA_NAME
        from repro.batch.scheduler import run_batch

        fields = dict(scale=0.1, seed=3, runs=40, deadline=0.12)
        with faults.inject(Fault("engine.run", delay=0.05)):
            result = api.run_request(build_request("bipartition", "s5378", **fields))
        assert result.solution.truncated and result.solution.runs < 40
        assert not result.ok
        assert result.to_dict()["ok"] is False
        again = api.RunResult.from_json(result.to_json())
        assert again.solution.truncated and not again.ok
        manifest = {
            "schema": MANIFEST_SCHEMA_NAME,
            "defaults": {"verb": "bipartition", **fields},
            "jobs": [{"circuit": "s5378"}],
        }
        with faults.inject(Fault("engine.run", delay=0.05)):
            batch = run_batch(manifest, cache="off")
        assert [o.status for o in batch.outcomes] == ["degraded"]


class TestTruncatedResultsAreNotStored:
    """A deadline-truncated result is returned but never memoized."""

    def _run_cached(self, tmp_path, mapped, verb, **fields):
        store = SolutionCache(str(tmp_path / "cache"))
        with use_cache(store):
            result = solve(mapped, verb, cache="use", **fields)
        return result, store

    def test_kway(self, tmp_path, mapped):
        with faults.inject(Fault("kway.carve", delay=0.05)):
            result, store = self._run_cached(
                tmp_path, mapped, "partition",
                deadline=0.05, max_retries=0, fallback=False,
            )
        assert result.solution.truncated
        assert result.cache_info == {"status": "skipped", "reason": "truncated"}
        key = build_request(
            "partition", "s5378", library="tiny", deadline=0.05,
            max_retries=0, fallback=False, **KWAY,
        ).cache_key(mapped)
        assert store.get(key) is None

    def test_bipartition(self, tmp_path, mapped):
        with faults.inject(Fault("engine.run", delay=0.05)):
            result, store = self._run_cached(
                tmp_path, mapped, "bipartition",
                runs=40, deadline=0.12, max_retries=0,
            )
        assert result.solution.runs < 40
        assert result.cache_info == {"status": "skipped", "reason": "truncated"}
        key = build_request(
            "bipartition", "s5378", runs=40, seed=5, deadline=0.12, max_retries=0
        ).cache_key(mapped)
        assert store.get(key) is None


class TestCli:
    def test_partition_with_deadline(self, capsys):
        from repro.cli import main

        code = main(
            [
                "partition",
                "s5378",
                "--scale",
                "0.08",
                "--deadline",
                "60",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] in [a.value for a in Algorithm]
        assert payload["run_log_summary"]["attempts"] >= 1
        assert isinstance(payload["run_log"], list)

    def test_bipartition_with_deadline(self, capsys):
        from repro.cli import main

        code = main(
            [
                "bipartition",
                "s5378",
                "--scale",
                "0.08",
                "--runs",
                "2",
                "--deadline",
                "60",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fm+functional, 1 attempt(s)" in out
