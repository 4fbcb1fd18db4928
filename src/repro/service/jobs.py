"""Service job records: lifecycle, priority queue and retention table.

Pure data structures -- no asyncio, no sockets -- so the scheduler logic
is unit-testable without a running server.  The server
(:mod:`repro.service.server`) owns all mutation; these classes only make
the states and orderings explicit:

* :class:`Job` -- one submitted :class:`~repro.request.PartitionRequest`
  with its lifecycle state, buffered progress events and (eventually)
  its serialized :class:`~repro.api.RunResult` document;
* :class:`JobQueue` -- a priority heap (higher ``priority`` first,
  submission order breaks ties) of queued jobs;
* :class:`JobTable` -- id -> job with bounded retention of finished
  jobs, so a long-running service cannot grow without limit.

State machine::

    queued -> running -> done | failed
    queued -> cancelled | expired          (never dispatched)
    running -> cancelled                   (cancel flag; solve winds
                                            down at its next checkpoint)
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.batch.manifest import BatchJob
from repro.request import PartitionRequest
from repro.robust.budget import Budget

#: Every state a job may be in.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled", "expired")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled", "expired")


@dataclass
class Job:
    """One service job: a request plus its execution lifecycle."""

    job_id: str
    request: PartitionRequest
    client: str = "anonymous"
    priority: int = 0
    state: str = "queued"
    submitted_ts: float = field(default_factory=time.time)
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    #: Whether the submit-time cache lookup served this job instantly.
    cached: bool = False
    #: The serialized ``RunResult`` document (``RunResult.to_dict()``)
    #: once the job is done; an outcome summary when full solutions are
    #: unavailable (cache policy ``off``).
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Buffered lifecycle/progress events, replayed to late stream
    #: subscribers then followed live.
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Service-level deadline (from the request's ``deadline``): a job
    #: still queued when it expires is never dispatched.
    budget: Optional[Budget] = None
    #: The pool future while running (server-owned, best-effort cancel).
    future: Any = None
    #: Sentinel-file path for mid-solve cancellation: the server touches
    #: it on ``DELETE`` of a running job and the pool worker's budgets
    #: (via :class:`~repro.robust.budget.CancelFlag`) wind the solve
    #: down at the next checkpoint.
    cancel_path: Optional[str] = None
    #: The base mapped netlist the submit-time cache lookup built to key
    #: the request, held while the job is queued and handed to the pool
    #: worker at dispatch (the server then drops it).
    mapped: Any = field(default=None, compare=False, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_batch_job(self) -> BatchJob:
        """The pool-executable form of this job: its request, trace id
        included, so worker-side spans and the ledger record carry the
        id the service minted at submit, and its netlist, so the worker
        does not map it again."""
        return BatchJob(
            job_id=self.job_id,
            request=self.request,
            priority=self.priority,
            cancel_path=self.cancel_path,
            mapped=self.mapped,
        )

    def snapshot(self) -> Dict[str, Any]:
        """The status document returned by ``GET /v1/jobs/<id>``."""
        doc: Dict[str, Any] = {
            "job_id": self.job_id,
            "state": self.state,
            "client": self.client,
            "priority": self.priority,
            "cached": self.cached,
            "submitted_ts": self.submitted_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "events": len(self.events),
            "request": self.request.to_dict(),
        }
        if self.request.trace_id is not None:
            doc["trace_id"] = self.request.trace_id
        if self.error is not None:
            doc["error"] = self.error
        return doc


class JobQueue:
    """Priority heap of queued jobs: higher ``priority`` first, earlier
    submission first within a priority band.

    Cancellation is lazy: a cancelled job stays in the heap and is
    discarded when popped (the standard tombstone pattern -- O(log n)
    push/pop, no O(n) removal).
    """

    def __init__(self) -> None:
        self._heap: List[Any] = []
        self._seq = itertools.count()

    def push(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.priority, next(self._seq), job))

    def pop(self) -> Optional[Job]:
        """The next dispatchable job, skipping tombstones; ``None`` when
        drained."""
        while self._heap:
            job = heapq.heappop(self._heap)[2]
            if job.state == "queued":
                return job
        return None

    def __len__(self) -> int:
        return sum(1 for item in self._heap if item[2].state == "queued")


class JobTable:
    """Id -> :class:`Job` with bounded retention of *finished* jobs.

    Live jobs (queued/running) are never evicted; terminal jobs beyond
    ``keep_finished`` are dropped oldest-first, so status/stream URLs
    stay valid for a while after completion without unbounded growth.
    """

    def __init__(self, keep_finished: int = 512) -> None:
        self.keep_finished = keep_finished
        self._jobs: Dict[str, Job] = {}
        self._finished: List[str] = []

    def add(self, job: Job) -> None:
        self._jobs[job.job_id] = job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def finish(self, job: Job) -> None:
        """Record that ``job`` reached a terminal state; evicts the
        oldest finished jobs past the retention bound."""
        self._finished.append(job.job_id)
        while len(self._finished) > self.keep_finished:
            victim = self._finished.pop(0)
            self._jobs.pop(victim, None)

    def jobs(self) -> List[Job]:
        """All retained jobs, oldest submission first."""
        return sorted(self._jobs.values(), key=lambda j: j.submitted_ts)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for job in self._jobs.values():
            out[job.state] = out.get(job.state, 0) + 1
        return dict(sorted(out.items()))

    def inflight(self, client: str) -> int:
        """Queued + running jobs currently held by ``client``."""
        return sum(
            1
            for job in self._jobs.values()
            if job.client == client and not job.terminal
        )

    def __len__(self) -> int:
        return len(self._jobs)


__all__ = ["JOB_STATES", "TERMINAL_STATES", "Job", "JobQueue", "JobTable"]
