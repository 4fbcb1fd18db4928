"""Deterministic fan-out: one worker-pool helper.

Every scan in the system -- the multi-start runs, the k-way carve scan,
whole batch and service jobs -- runs its tasks through a
:class:`WorkerPool`.  A caller hands it a *(build-state, run-task)* pair
of module-level functions: ``build(shared, budget)`` turns the ``shared``
payload into the read-only state the tasks need, ``run(state, item,
budget)`` runs one task against it.  The pairs in use:

* :func:`seeded_runs` -- one seeded bipartitioning run per task (plain
  FM, replication-aware FM or the multilevel V-cycle, picked by the
  config type) for the multi-start drivers;
* the k-way carver's per-fill-band candidate scan
  (:mod:`repro.partition.kway`);
* whole batch and service jobs, one :func:`repro.api.run_request` each
  (:func:`repro.batch.worker.job_pool`).

**Where tasks run.**  The pool decides, not its callers: with one worker
(``resolve_jobs(jobs) == 1``) :meth:`WorkerPool.map` runs the tasks in
the calling process, building the state on the first task; with more it
ships ``shared`` to a process pool once.  :meth:`WorkerPool.submit` always
uses a worker process, because the job pool needs the isolation (cancel
flags, worker death, shutdown) whatever its size.

**Determinism.**  A scan plans its work items (derived seeds, carve
candidates) in one order and reduces the results in that order, and the
same task function runs each item in either mode, so for a given seed
every job count returns the same winner -- parallelism changes
wall-clock, never results -- as long as no deadline expires mid-scan (an
expired :class:`~repro.robust.budget.Budget` truncates a scan at a
timing-dependent point, so no mode is deterministic then).

**Budgets.**  In-process, build and run receive the caller's own
``Budget`` object, and :meth:`WorkerPool.map` stops before a task once it
has expired (never before the first).  Monotonic-clock deadlines are
process-local, so a parent ``Budget`` cannot be shipped to workers:
each pool captures ``budget.remaining()`` once at construction, and a
worker hands build and run a fresh budget with that allotment, winding
down cooperatively on its own clock within a second-order skew of the
parent deadline.

**Observability.**  In-process tasks record into the active registry.
Worker processes start with the disabled default registry, so solver
metrics recorded inside a worker would be lost.  When the *parent's*
registry is enabled at pool construction, each worker task runs under a
fresh enabled worker-local registry and ships its picklable snapshot
back with the result; the parent folds the snapshots into its active
registry in submission order (counters add, gauges last-write-wins,
histograms bucket-wise), so ``jobs=N`` metrics match ``jobs=1`` up to
span records.  The context also carries the parent's trace id (stamped
onto every worker-side record) and, when set, a ``trace_dir``: each
worker then appends its spans/events to a per-process
``worker-<pid>.jsonl`` stream in that directory, which
``repro.obs.export`` merges back into one timeline on the trace id.

**Fault injection.**  Every pool captures the parent's active
:mod:`repro.robust.faults` plans (:func:`~repro.robust.faults.export_spec`)
at construction and replays them in each worker's initializer
(:func:`~repro.robust.faults.install_spec`), so injected faults fire in
children, not just the parent.  Hit counters are per-worker -- a fresh
plan per process keeps drills deterministic regardless of job placement.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.robust import faults
from repro.robust.budget import Budget

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0``/negative mean "all cores"."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _budget_allotment(budget: Optional[Budget]) -> Optional[float]:
    """Capture a budget as its picklable remaining seconds."""
    if budget is None:
        return None
    remaining = budget.remaining()
    return None if remaining == float("inf") else remaining


def _rebuild_budget(remaining: Optional[float], limited: bool) -> Optional[Budget]:
    """Worker-side budget from the captured allotment."""
    if not limited:
        return None
    return Budget(remaining)


def _parent_obs_context() -> Optional[Dict[str, Any]]:
    """Picklable observability context for pool workers (``None`` = off)."""
    from repro.obs.metrics import get_registry

    reg = get_registry()
    if not reg.enabled:
        return None
    return {"trace": reg.trace_id, "trace_dir": reg.trace_dir}


def _call_with_obs(obs_ctx: Optional[Dict[str, Any]], fn):
    """Run ``fn`` in a worker; returns ``(result, snapshot-or-None)``."""
    if not obs_ctx:
        return fn(), None
    from repro.obs.events import JsonlEmitter
    from repro.obs.metrics import MetricsRegistry, use_registry

    emitter = None
    trace_dir = obs_ctx.get("trace_dir")
    if trace_dir:
        emitter = JsonlEmitter(
            os.path.join(trace_dir, f"worker-{os.getpid()}.jsonl"), append=True
        )
    reg = MetricsRegistry(
        enabled=True, emitter=emitter, trace_id=obs_ctx.get("trace")
    )
    try:
        with use_registry(reg):
            reg.emit_meta()
            result = fn()
        return result, reg.snapshot()
    finally:
        if emitter is not None:
            reg.close()


def _merge_worker_pairs(pairs: List[Tuple[Any, Optional[Dict[str, Any]]]]) -> List[Any]:
    """Unwrap ``(result, snapshot)`` pairs, folding snapshots into the
    parent's active registry in submission order."""
    from repro.obs.metrics import get_registry

    reg = get_registry()
    merge = reg.enabled
    results: List[Any] = []
    for result, snap in pairs:
        results.append(result)
        if merge and snap:
            reg.merge_snapshot(snap)
    if merge:
        reg.counter("parallel.tasks").inc(len(results))
    return results


# ---------------------------------------------------------------------------
# The helper
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    """The worker-global context: the task function, the shipped budget
    allotment and observability context, and the state built once."""

    run: Callable[[Any, Any, Optional[Budget]], Any]
    allotment: Tuple[Optional[float], bool]
    obs: Optional[Dict[str, Any]]
    state: Any = None


_WORKER: Optional[_Worker] = None


def _worker_init(build, shared, run, allotment, obs_ctx, fault_spec) -> None:
    global _WORKER
    faults.install_spec(fault_spec)
    _WORKER = _Worker(run, allotment, obs_ctx)
    _WORKER.state = build(shared, _rebuild_budget(*allotment))


def _worker_task(item: Any):
    worker = _WORKER
    assert worker is not None
    return _call_with_obs(
        worker.obs,
        lambda: worker.run(worker.state, item, _rebuild_budget(*worker.allotment)),
    )


_UNBUILT = object()


class WorkerPool:
    """Runs tasks on state built once from a shared payload.

    ``build(shared, budget)`` builds the state and ``run(state, item,
    budget)`` runs one task.  Both must be module-level functions (they
    travel to workers by reference); ``shared`` and the items must
    pickle.  :meth:`map` returns results in submission order, computed
    in the calling process when the pool has one worker.
    :meth:`submit` / :meth:`collect` serve callers that need per-task
    futures (the batch scheduler's deadline-aware collection, the
    service) and always run in a worker process.  Workers' metric
    snapshots merge into the parent registry in the order results are
    taken.  The process pool starts on first use.
    """

    def __init__(
        self,
        build: Callable[[Any, Optional[Budget]], Any],
        shared: Any,
        run: Callable[[Any, Any, Optional[Budget]], Any],
        jobs: int,
        budget: Optional[Budget] = None,
    ) -> None:
        self._workers = resolve_jobs(jobs)
        self._build = build
        self._shared = shared
        self._run = run
        self._budget = budget
        self._state: Any = _UNBUILT
        self._initargs = (
            build, shared, run, (_budget_allotment(budget), budget is not None),
            _parent_obs_context(), faults.export_spec(),
        )
        self._ex: Optional[ProcessPoolExecutor] = None

    def _executor(self) -> ProcessPoolExecutor:
        if self._ex is None:
            from concurrent.futures import ProcessPoolExecutor

            self._ex = ProcessPoolExecutor(
                max_workers=self._workers,
                initializer=_worker_init,
                initargs=self._initargs,
            )
        return self._ex

    def map(self, items: Sequence[Any]) -> List[Any]:
        """Run the items; results in submission order.

        With one worker the items run here, on state built at the first
        of them, and the run stops before an item once the budget has
        expired (never before the first item).
        """
        if self._workers > 1:
            return _merge_worker_pairs(
                list(self._executor().map(_worker_task, items))
            )
        budget = self._budget
        results: List[Any] = []
        for item in items:
            if results and budget is not None and budget.expired:
                break
            if self._state is _UNBUILT:
                self._state = self._build(self._shared, budget)
            results.append(self._run(self._state, item, budget))
        return results

    def submit(self, item: Any) -> Future:
        return self._executor().submit(_worker_task, item)

    @staticmethod
    def collect(future: Future, timeout: Optional[float] = None) -> Any:
        """The task result from a future (may raise ``TimeoutError``)."""
        return _merge_worker_pairs([future.result(timeout=timeout)])[0]

    def close(self, wait: bool = False) -> None:
        """Cancel queued tasks and release the workers; ``wait`` blocks
        until running tasks have returned and the workers exited."""
        if self._ex is not None:
            self._ex.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Seeded multi-start runs
# ---------------------------------------------------------------------------


def _runs_state(
    shared: Tuple[Any, Any], budget: Optional[Budget]
) -> Tuple[Any, Any, Any]:
    """The hypergraph, the base config and the engine's shared tables."""
    from repro.hypergraph.compact import CompactHypergraph
    from repro.partition.fm_replication import ReplicationConfig, ReplicationTables

    hg, base = shared
    if isinstance(base, ReplicationConfig):
        return hg, base, ReplicationTables(hg)
    return hg, base, CompactHypergraph.from_hypergraph(hg)


def _runs_task(
    state: Tuple[Any, Any, Any], seed: int, budget: Optional[Budget]
) -> Any:
    from repro.partition.fm import FMConfig, fm_bipartition
    from repro.partition.fm_replication import (
        ReplicationConfig,
        replication_bipartition,
    )
    from repro.partition.multilevel import vcycle_bipartition

    hg, base, tables = state
    config = replace(base, seed=seed, budget=budget)
    if isinstance(base, FMConfig):
        return fm_bipartition(hg, config, compact=tables)
    if isinstance(base, ReplicationConfig):
        return replication_bipartition(hg, config, tables=tables)
    return vcycle_bipartition(hg, config, compact=tables)


def seeded_runs(hg, base_config, seeds: Sequence[int], jobs: int) -> List[Any]:
    """One run per seed; results in seed order.

    The engine follows from the config type: an
    :class:`~repro.partition.fm.FMConfig` runs plain FM, a
    :class:`~repro.partition.fm_replication.ReplicationConfig` runs
    replication-aware FM, a
    :class:`~repro.partition.multilevel.MultilevelConfig` runs the
    V-cycle.  Every run derives its config with
    :func:`dataclasses.replace` (only the seed and budget change) and
    shares the hypergraph's CSR or replication tables, built once per
    process.  The config's budget is the pool's budget: in-process runs
    share the object and stop once it expires (the first run always
    completes).
    """
    ship = replace(base_config, budget=None)
    workers = max(1, min(resolve_jobs(jobs), len(seeds)))
    with WorkerPool(
        _runs_state, (hg, ship), _runs_task, workers, base_config.budget
    ) as pool:
        return pool.map(seeds)
