"""The batch scheduler: cache-deduplicated, deadline-aware job dispatch.

:func:`run_batch` drives every job of a manifest to an outcome:

1. **Expansion** -- the manifest becomes concrete
   :class:`~repro.batch.manifest.BatchJob` instances (seeds unrolled).
2. **Deduplication** -- jobs with the same cache identity (their
   requests minus the execution-only fields) are split into one
   *primary* per identity and its *duplicates*.  Primaries run first;
   duplicates run in a second wave so they land on the entry the
   primary just stored -- a guaranteed cache hit instead of a redundant
   solve.
3. **Ordering** -- primaries are dispatched priority-first (higher
   ``priority`` wins, manifest order breaks ties) with same-netlist
   jobs kept adjacent: the mapped-netlist build is the shared prefix of
   every job on that netlist, and the mapped-netlist memo
   (:func:`repro.batch.worker.mapped_netlist`) holds only a few.
4. **Dispatch** -- with one worker (``jobs=1``, or a single primary)
   jobs execute in-process; otherwise a
   :func:`~repro.batch.worker.job_pool` fans jobs out, each worker
   sharing the batch's on-disk solution cache.  Per-job resilience
   (deadline/max_retries/fallback from the manifest) happens *inside*
   the verb's attempt cascade (:func:`~repro.robust.runner.run_cascade`);
   the scheduler's own ``deadline`` is a global
   :class:`~repro.robust.budget.Budget` -- jobs that cannot start (or
   finish being collected) before it expires are reported ``skipped``,
   never silently dropped.  While collecting, each outstanding job is
   waited on in fair :meth:`~repro.robust.budget.Budget.share` slices.

The resulting :class:`BatchReport` carries per-job verdicts, the cache
hit rate and the wall-clock the cache saved; its ``stable_view`` is the
run-to-run comparable slice that ``repro batch check`` diffs for
bit-identical repeatability.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.batch.manifest import (
    BatchJob,
    REPORT_SCHEMA_NAME,
    expand_manifest,
)
from repro.batch.worker import (
    JobOutcome,
    execute_job,
    failed_outcome,
    job_pool,
    skipped_outcome,
)
from repro.obs.ledger import canonical_json
from repro.obs.metrics import get_registry
from repro.perf.parallel import resolve_jobs
from repro.robust.budget import Budget

#: Event callback type: receives small progress dicts as the batch runs.
ProgressFn = Callable[[Dict[str, Any]], None]


@dataclass
class BatchReport:
    """Everything a finished batch knows about itself."""

    name: str
    cache_policy: str
    jobs: int
    workers: int
    outcomes: List[JobOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0
    deduplicated: int = 0

    # -- aggregate views ------------------------------------------------
    def counts(self, attr: str) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for outcome in self.outcomes:
            key = getattr(outcome, attr)
            out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_status == "hit")

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.status in ("ok", "degraded"))

    @property
    def hit_rate(self) -> float:
        """Cache hits over completed jobs (0.0 when nothing completed)."""
        done = self.completed
        return self.hits / done if done else 0.0

    @property
    def saved_seconds(self) -> float:
        """Solve time the cache avoided re-spending, summed over hits."""
        return sum(o.saved_seconds for o in self.outcomes)

    def stable_view(self) -> List[Dict[str, Any]]:
        """Run-to-run comparable per-job results, sorted by job id."""
        return sorted(
            (o.stable_view() for o in self.outcomes),
            key=lambda v: v["job_id"],
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA_NAME,
            "name": self.name,
            "generated_ts": time.time(),
            "cache_policy": self.cache_policy,
            "jobs": self.jobs,
            "workers": self.workers,
            "deduplicated": self.deduplicated,
            "wall_seconds": self.wall_seconds,
            "saved_seconds": self.saved_seconds,
            "cache": {
                "hit_rate": self.hit_rate,
                **{f"{k}": v for k, v in self.counts("cache_status").items()},
            },
            "verdicts": self.counts("status"),
            "outcomes": [o.as_dict() for o in self.outcomes],
            "stable_view": self.stable_view(),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def summary(self) -> str:
        verdicts = ", ".join(f"{k}={v}" for k, v in self.counts("status").items())
        return (
            f"batch {self.name!r}: {self.jobs} jobs ({verdicts}); "
            f"cache hit rate {self.hit_rate:.0%}, "
            f"saved {self.saved_seconds:.2f}s solve time, "
            f"wall {self.wall_seconds:.2f}s"
        )


#: Request fields that say how to execute, not what to solve.
_EXECUTION_FIELDS = ("cache", "jobs", "trace_id")


def job_identity(job: BatchJob) -> str:
    """The dedupe identity of a job: its request minus the
    execution-only fields.

    Two jobs with equal identity resolve to the same cache entry, so
    only one of them (the *primary*) needs to solve; the scheduler
    computes this without technology-mapping anything in the parent.
    A threshold of ``1`` and one of ``1.0`` stay apart, as their cache
    keys do.
    """
    doc = job.request.to_dict()
    for name in _EXECUTION_FIELDS:
        doc.pop(name, None)
    return canonical_json(doc)


def order_jobs(jobs: List[BatchJob]) -> Tuple[List[BatchJob], List[BatchJob]]:
    """Split into dispatch-ordered (primaries, duplicates).

    Primaries are grouped by netlist (shared mapping build), groups
    ordered by their best priority then first appearance, jobs inside a
    group by priority then manifest order.
    """
    primaries: List[BatchJob] = []
    duplicates: List[BatchJob] = []
    seen: set = set()
    for job in jobs:
        ident = job_identity(job)
        if ident in seen:
            duplicates.append(job)
        else:
            seen.add(ident)
            primaries.append(job)

    group_rank: Dict[tuple, Tuple[int, int]] = {}
    for job in primaries:
        nid = job.request.netlist_id
        best = group_rank.get(nid)
        cand = (-job.priority, job.index)
        if best is None or cand < best:
            group_rank[nid] = cand
    primaries.sort(
        key=lambda j: (group_rank[j.request.netlist_id], -j.priority, j.index)
    )
    duplicates.sort(key=lambda j: (-j.priority, j.index))
    return primaries, duplicates


# Progress fan-out is serialized.  Both callers (``repro batch run`` and
# ``experiments.common.run_manifest``) drive their waves from one thread,
# but ``run_batch`` is a library call: batches run from several threads
# against one callback or registry must not interleave their events.
_EMIT_LOCK = threading.Lock()


def _emit(
    on_event: Optional[ProgressFn],
    payload: Dict[str, Any],
    trace: Optional[str] = None,
) -> None:
    with _EMIT_LOCK:
        if on_event is not None:
            on_event(payload)
        reg = get_registry()
        if reg.enabled:
            # "name" would collide with emit_event's positional event name.
            fields = {
                ("batch_name" if k == "name" else k): v
                for k, v in payload.items()
                if k != "event"
            }
            event = payload["event"]
            if not event.startswith("batch."):
                event = f"batch.{event}"
            # Per-job events carry the dispatching request's trace id so
            # scheduler decisions line up with the solve on one timeline.
            with reg.trace_scope(trace):
                reg.emit_event(event, **fields)


def _run_wave_sequential(
    wave: List[BatchJob],
    cache: str,
    budget: Optional[Budget],
    on_event: Optional[ProgressFn],
) -> List[JobOutcome]:
    outcomes: List[JobOutcome] = []
    for job in wave:
        if budget is not None and budget.expired:
            outcomes.append(skipped_outcome(job, "batch deadline expired"))
            _emit(on_event, {"event": "job.skipped", "job_id": job.job_id},
                  trace=job.request.trace_id)
            continue
        _emit(on_event, {"event": "job.start", "job_id": job.job_id},
              trace=job.request.trace_id)
        outcome = execute_job(job, cache=cache)
        outcomes.append(outcome)
        _emit(on_event, {
            "event": "job.done",
            "job_id": job.job_id,
            "status": outcome.status,
            "cache_status": outcome.cache_status,
            "wall_seconds": outcome.wall_seconds,
        }, trace=job.request.trace_id)
    return outcomes


def _run_wave_pool(
    wave: List[BatchJob],
    pool: Any,
    budget: Optional[Budget],
    on_event: Optional[ProgressFn],
) -> List[JobOutcome]:
    pending: List[Tuple[BatchJob, Any]] = []
    for job in wave:
        if budget is not None and budget.expired:
            break
        _emit(on_event, {"event": "job.start", "job_id": job.job_id},
              trace=job.request.trace_id)
        pending.append((job, pool.submit(job)))
    outcomes: List[JobOutcome] = []
    expired = False
    for n, (job, future) in enumerate(pending):
        outcome: Optional[JobOutcome] = None
        while outcome is None:
            if expired or (budget is not None and budget.expired):
                expired = True
                future.cancel()
                outcome = skipped_outcome(job, "batch deadline expired")
                break
            # Fair wait: at most this job's even share of the remaining
            # global budget per slice, re-checking expiry between slices.
            slice_s = None
            if budget is not None:
                slice_s = max(0.05, budget.share(len(pending) - n) or 0.0)
            try:
                outcome = pool.collect(future, timeout=slice_s)
            except FuturesTimeout:
                continue
            except Exception as exc:  # noqa: BLE001 - worker-death boundary
                # A worker died hard (BrokenProcessPool, os._exit, OOM):
                # the job gets a failed verdict and the batch keeps
                # reporting -- remaining futures of the broken pool
                # resolve the same way instead of crashing the run.
                outcome = failed_outcome(
                    job, f"worker died: {type(exc).__name__}: {exc}"
                )
        outcomes.append(outcome)
        _emit(on_event, {
            "event": "job.done" if outcome.status != "skipped" else "job.skipped",
            "job_id": job.job_id,
            "status": outcome.status,
            "cache_status": outcome.cache_status,
            "wall_seconds": outcome.wall_seconds,
        }, trace=job.request.trace_id)
    for job in wave[len(pending):]:
        outcomes.append(skipped_outcome(job, "batch deadline expired"))
        _emit(on_event, {"event": "job.skipped", "job_id": job.job_id},
              trace=job.request.trace_id)
    return outcomes


def run_batch(
    manifest: Dict[str, Any],
    jobs: int = 1,
    cache: str = "use",
    cache_dir: Optional[str] = None,
    deadline: Optional[float] = None,
    on_event: Optional[ProgressFn] = None,
) -> BatchReport:
    """Run every job of ``manifest``; returns the finished report.

    ``jobs`` is the worker-process count (``0`` = all cores), capped at
    the number of primaries; one worker runs the jobs in-process.
    ``cache`` is the policy (a :class:`~repro.request.CachePolicy`
    value) handed to every verb call; ``cache_dir`` is the explicit
    store location :func:`~repro.cache.store.resolve_cache` takes;
    ``deadline`` is the global wall-clock budget in seconds.
    ``on_event`` receives progress dicts
    (``job.start`` / ``job.done`` / ``job.skipped`` / ``batch.done``);
    the same events go to the observability registry when tracing.
    """
    from repro.cache.store import SolutionCache, resolve_cache, use_cache

    start = time.perf_counter()
    expanded = expand_manifest(manifest)
    primaries, duplicates = order_jobs(expanded)
    budget = Budget(deadline) if deadline is not None else None
    store: Optional[SolutionCache] = None
    if cache != "off":
        store = resolve_cache(cache_dir)

    workers = max(1, min(resolve_jobs(jobs), len(primaries)))
    if workers == 1:
        def run_wave(wave: List[BatchJob], policy: str) -> List[JobOutcome]:
            if store is None:
                return _run_wave_sequential(wave, policy, budget, on_event)
            with use_cache(store):
                return _run_wave_sequential(wave, policy, budget, on_event)

        outcomes = run_wave(primaries, cache)
        # Duplicates re-read what the primaries stored; with the cache
        # off there is nothing to reuse, so they solve like primaries.
        outcomes += run_wave(duplicates, "use" if cache != "off" else "off")
    else:
        pool_dir = store.root if store is not None else None
        with job_pool(pool_dir, cache, workers) as pool:
            outcomes = _run_wave_pool(primaries, pool, budget, on_event)
        if duplicates:
            dup_policy = "use" if cache != "off" else "off"
            with job_pool(
                pool_dir, dup_policy, min(workers, len(duplicates))
            ) as pool:
                outcomes += _run_wave_pool(duplicates, pool, budget, on_event)

    by_index = {job.job_id: job.index for job in expanded}
    outcomes.sort(key=lambda o: by_index.get(o.job_id, 1 << 30))
    report = BatchReport(
        name=str(manifest.get("name", "batch")),
        cache_policy=cache,
        jobs=len(expanded),
        workers=workers,
        outcomes=outcomes,
        wall_seconds=time.perf_counter() - start,
        deduplicated=len(duplicates),
    )
    reg = get_registry()
    reg.counter("batch.jobs").inc(len(expanded))
    _emit(on_event, {
        "event": "batch.done",
        "name": report.name,
        "jobs": report.jobs,
        "hit_rate": report.hit_rate,
        "saved_seconds": report.saved_seconds,
        "wall_seconds": report.wall_seconds,
    })
    return report


def check_reports(
    first: Dict[str, Any],
    second: Dict[str, Any],
    min_hit_rate: float = 0.9,
) -> List[str]:
    """Repeatability gate between two batch report dicts.

    Returns problems (empty = pass): the second run must reach
    ``min_hit_rate`` cache hits, and both runs' stable views -- job
    verdicts plus full quality vectors, original solve times included
    -- must be bit-identical.
    """
    problems: List[str] = []
    rate = first_rate = None
    try:
        first_rate = float(first["cache"]["hit_rate"])
        rate = float(second["cache"]["hit_rate"])
    except (KeyError, TypeError, ValueError):
        problems.append("report missing cache.hit_rate")
    if rate is not None and rate < min_hit_rate:
        problems.append(
            f"second run hit rate {rate:.0%} below required {min_hit_rate:.0%} "
            f"(first run: {first_rate:.0%})"
        )
    a = first.get("stable_view")
    b = second.get("stable_view")
    if a is None or b is None:
        problems.append("report missing stable_view")
    elif canonical_json(a) != canonical_json(b):
        ids_a = {v.get("job_id"): v for v in a}
        ids_b = {v.get("job_id"): v for v in b}
        for job_id in sorted(set(ids_a) | set(ids_b)):
            va, vb = ids_a.get(job_id), ids_b.get(job_id)
            if va is None or vb is None:
                problems.append(f"{job_id}: present in only one report")
            elif canonical_json(va) != canonical_json(vb):
                problems.append(f"{job_id}: results differ between runs")
    return problems


__all__ = [
    "BatchReport",
    "check_reports",
    "job_identity",
    "order_jobs",
    "run_batch",
]
