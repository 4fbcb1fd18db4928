"""Per-job execution: the function a batch worker runs for one job.

:func:`execute_job` turns a :class:`~repro.batch.manifest.BatchJob` into
a :class:`JobOutcome` by converting it to a canonical
:class:`~repro.request.PartitionRequest` and executing it through
:func:`repro.api.run_request` with the batch's cache policy.  It runs
identically in the parent process
(``--jobs 1``) and inside a :class:`~repro.perf.parallel.BatchJobPool`
worker; everything it returns is picklable and small (reports and
quality vectors travel, full solutions stay in the on-disk cache).

Workers keep a small per-process memo of mapped netlists, so
consecutive jobs on the same (circuit, scale, seed) triple share one
technology-mapping build -- the scheduler orders same-netlist jobs
adjacently to maximize that reuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Optional, Tuple

from repro.batch.manifest import BatchJob
from repro.core.results import kway_report_from_solution
from repro.obs import ledger as obs_ledger

#: Mapped-netlist memo entries kept per worker process.
_MEMO_CAP = 4

_MAPPED_MEMO: Dict[Tuple[str, float, int], Any] = {}


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


def _mapped_for(job: BatchJob) -> Any:
    """The job's mapped netlist, via the per-process memo."""
    from repro import api

    nid = job.netlist_id
    if nid not in _MAPPED_MEMO:
        if len(_MAPPED_MEMO) >= _MEMO_CAP:
            _MAPPED_MEMO.pop(next(iter(_MAPPED_MEMO)))
        _MAPPED_MEMO[nid] = api.map(
            job.circuit, scale=nid[1], seed=nid[2]
        ).solution
    return _MAPPED_MEMO[nid]


def execute_job(job: BatchJob, cache: str = "use") -> JobOutcome:
    """Run one job through :func:`repro.api.run_request` and distill
    the outcome.

    Failures are captured, never raised: a batch must report a broken
    job and keep going (the per-job resilient-runner policies inside the
    verb already handled retry/degradation before an exception escapes).
    """
    from repro import api

    start = perf_counter()
    try:
        request = job.to_request()
        mapped = _mapped_for(job)
        # One execution path for every front door: the job becomes a
        # canonical request and runs through the same run_request flow
        # library callers, the CLI and the service use (the memoized
        # mapped netlist rides the side-channel).
        result = api.run_request(request, circuit=mapped, cache=cache)
        if job.verb == "partition":
            report = kway_report_from_solution(
                result.solution, request.threshold, result.elapsed_seconds
            )
            quality = obs_ledger.quality_from_kway_report(report)
        else:
            report = result.solution
            quality = obs_ledger.quality_from_bipartition(report)
    except Exception as exc:  # noqa: BLE001 - job isolation boundary
        return JobOutcome(
            job_id=job.job_id,
            verb=job.verb,
            circuit=job.circuit,
            seed=job.seed,
            status="failed",
            wall_seconds=perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    info = result.cache_info or {}
    return JobOutcome(
        job_id=job.job_id,
        verb=job.verb,
        circuit=job.circuit,
        seed=job.seed,
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
        verb=job.verb,
        circuit=job.circuit,
        seed=job.seed,
        status="skipped",
        error=reason,
    )


def failed_outcome(job: BatchJob, reason: str) -> JobOutcome:
    """The outcome of a job whose *worker* died out from under it.

    :func:`execute_job` already converts in-job exceptions to ``failed``
    verdicts; this covers the layer below -- a pool worker killed hard
    (OOM, ``os._exit``, a broken process pool), where no outcome ever
    came back and the scheduler must synthesize the verdict.
    """
    return JobOutcome(
        job_id=job.job_id,
        verb=job.verb,
        circuit=job.circuit,
        seed=job.seed,
        status="failed",
        error=reason,
    )


__all__ = [
    "JobOutcome",
    "execute_job",
    "failed_outcome",
    "skipped_outcome",
]
