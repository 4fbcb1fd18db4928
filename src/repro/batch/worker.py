"""Per-job execution: the function a batch worker runs for one job.

:func:`execute_job` turns a :class:`~repro.batch.manifest.BatchJob` into
a :class:`JobOutcome` by executing its request through
:func:`repro.api.run_request` with the batch's cache policy.  It runs
identically in the parent process (``--jobs 1``) and inside a
:func:`job_pool` worker; everything it returns is picklable and small
(reports and quality vectors travel, full solutions stay in the on-disk
cache).

:func:`mapped_netlist` is the one mapped-netlist memo of a process: a
bounded, locked map from ``request.netlist_id`` to the technology-mapped
netlist, shared by batch jobs and the service's hot path.  The scheduler
orders same-netlist jobs adjacently to maximize the reuse.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Optional, Tuple

from repro.batch.manifest import BatchJob
from repro.core.results import solve_row
from repro.request import PartitionRequest
from repro.robust import faults
from repro.robust.budget import Budget, CancelFlag, cancel_scope

#: Mapped netlists kept per process.  serve-mixed's pool of variant
#: designs is sized against this bound.
NETLIST_MEMO_CAP = 8

_NETLISTS: Dict[Tuple[str, float, int], Any] = {}
_NETLISTS_LOCK = threading.Lock()


@dataclass
class JobOutcome:
    """The picklable result of one batch job."""

    job_id: str
    verb: str
    circuit: str
    seed: int
    #: "ok" | "degraded" (infeasible/truncated solution) | "failed" |
    #: "skipped" (batch deadline expired before dispatch/collection)
    status: str
    #: "hit" | "miss" | "refreshed" | "off"
    cache_status: str = "off"
    key: Optional[str] = None
    #: Solve wall-clock as reported by the verb (the *original* solve
    #: time on a cache hit, so repeated batches report identical values).
    elapsed_seconds: float = 0.0
    #: Actual wall-clock spent by this worker on the job.
    wall_seconds: float = 0.0
    #: Original solve time a cache hit avoided re-spending.
    saved_seconds: float = 0.0
    #: The per-job report (:class:`~repro.core.results.KWayReport` for
    #: partition jobs, :class:`~repro.core.results.BipartitionReport`
    #: for bipartition jobs); ``None`` when the job failed/was skipped.
    report: Optional[Any] = None
    #: The ledger-style quality vector of ``report`` (stable-comparison
    #: material for ``repro batch check``).
    quality: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "verb": self.verb,
            "circuit": self.circuit,
            "seed": self.seed,
            "status": self.status,
            "cache_status": self.cache_status,
            "key": self.key,
            "elapsed_seconds": self.elapsed_seconds,
            "wall_seconds": self.wall_seconds,
            "saved_seconds": self.saved_seconds,
            "quality": self.quality,
            "error": self.error,
        }

    def stable_view(self) -> Dict[str, Any]:
        """The run-to-run comparable slice of this outcome.

        Excludes everything that legitimately varies between a cold and
        a warm batch (cache status, worker wall-clock, entry paths);
        keeps identity, verdict and the full quality vector.
        ``elapsed_seconds`` *is* included: cache hits report the
        original solve time, so it must reproduce bit-identically too.
        """
        return {
            "job_id": self.job_id,
            "verb": self.verb,
            "circuit": self.circuit,
            "seed": self.seed,
            "status": self.status,
            "elapsed_seconds": self.elapsed_seconds,
            "quality": self.quality,
        }


def mapped_netlist(request: PartitionRequest) -> Any:
    """The request's base mapped netlist, via the per-process memo.

    Used by the front doors only (batch jobs, the service): a library
    caller of :func:`repro.api.run_request` always maps afresh, so an
    edited ``.bench`` file never comes back as a stale mapping.
    Safe to call from several threads; the mapping itself runs outside
    the lock.
    """
    from repro import api

    nid = request.netlist_id
    with _NETLISTS_LOCK:
        mapped = _NETLISTS.get(nid)
    if mapped is None:
        mapped = api.map(request.circuit, scale=request.scale, seed=nid[2]).solution
        with _NETLISTS_LOCK:
            if len(_NETLISTS) >= NETLIST_MEMO_CAP:
                _NETLISTS.pop(next(iter(_NETLISTS)))
            _NETLISTS[nid] = mapped
    return mapped


def execute_job(job: BatchJob, cache: str = "use") -> JobOutcome:
    """Run one job through :func:`repro.api.run_request` and distill
    the outcome.

    Failures are captured, never raised: a batch must report a broken
    job and keep going (the per-job attempt cascade inside the verb
    already handled retry/degradation before an exception escapes).
    A job solves in one process: the batch fans out over jobs, never
    inside one.  It solves on the netlist the job carries, if any, and
    otherwise on the process memo's.
    """
    from repro import api

    request = job.request
    start = perf_counter()
    try:
        mapped = job.mapped if job.mapped is not None else mapped_netlist(request)
        result = api.run_request(request, circuit=mapped, cache=cache, jobs=1)
        report, quality = solve_row(
            request.verb, result.solution, request.threshold, result.elapsed_seconds
        )
    except Exception as exc:  # noqa: BLE001 - job isolation boundary
        return failed_outcome(
            job, f"{type(exc).__name__}: {exc}", wall_seconds=perf_counter() - start
        )
    info = result.cache_info or {}
    return JobOutcome(
        job_id=job.job_id,
        verb=request.verb,
        circuit=request.circuit,
        seed=request.seed,
        status="ok" if result.ok else "degraded",
        cache_status=info.get("status", "off"),
        key=info.get("key"),
        elapsed_seconds=result.elapsed_seconds,
        wall_seconds=perf_counter() - start,
        saved_seconds=float(info.get("saved_seconds", 0.0)),
        report=report,
        quality=quality,
    )


def skipped_outcome(job: BatchJob, reason: str) -> JobOutcome:
    """The outcome of a job the scheduler never (fully) ran."""
    return JobOutcome(
        job_id=job.job_id,
        verb=job.request.verb,
        circuit=job.request.circuit,
        seed=job.request.seed,
        status="skipped",
        error=reason,
    )


def failed_outcome(
    job: BatchJob, reason: str, wall_seconds: float = 0.0
) -> JobOutcome:
    """The outcome of a job that raised, or whose *worker* died out from
    under it (OOM, ``os._exit``, a broken process pool) so that no
    outcome ever came back and the scheduler synthesizes the verdict."""
    return JobOutcome(
        job_id=job.job_id,
        verb=job.request.verb,
        circuit=job.request.circuit,
        seed=job.request.seed,
        status="failed",
        wall_seconds=wall_seconds,
        error=reason,
    )


# ---------------------------------------------------------------------------
# The job pool
# ---------------------------------------------------------------------------


def _pool_state(shared: Tuple[Optional[str], str], budget: Optional[Budget]) -> str:
    """Pool-worker state: install the batch's solution cache; the task
    needs only the cache policy.  The job pool has no budget: a job's
    deadline travels in its request."""
    cache_dir, policy = shared
    if cache_dir:
        from repro.cache.store import SolutionCache, set_cache

        set_cache(SolutionCache(cache_dir))
    return policy


def _pool_task(policy: str, job: BatchJob, budget: Optional[Budget]) -> JobOutcome:
    # Worker-only fault site: a drill kills (exit_code=) or fails the
    # worker that picked up one particular job, before any solve work.
    faults.maybe_fire("batch.job", job=job.job_id)
    # The job's cancellation sentinel holds for the whole solve: any
    # Budget the solvers poll reports expired once the submitting side
    # (the service's DELETE handler) touches the file, so a cancelled
    # job frees its worker slot at the next checkpoint instead of
    # running to its deadline.
    flag = CancelFlag(job.cancel_path) if job.cancel_path else None
    with cancel_scope(flag):
        return execute_job(job, cache=policy)


def job_pool(cache_dir: Optional[str], policy: str, workers: int) -> Any:
    """A :class:`~repro.perf.parallel.WorkerPool` running whole jobs.

    Every worker installs the batch's solution cache at startup, so all
    jobs in all workers read and write one sharded store (atomic
    tmp+rename writes make concurrent same-key stores race benignly).
    Jobs are ``submit``-ed one by one: the scheduler and the service
    need per-job futures, not an ordered map.
    """
    from repro.perf.parallel import WorkerPool

    return WorkerPool(_pool_state, (cache_dir, policy), _pool_task, workers)


__all__ = [
    "JobOutcome",
    "NETLIST_MEMO_CAP",
    "execute_job",
    "failed_outcome",
    "job_pool",
    "mapped_netlist",
    "skipped_outcome",
]
