"""Wall-clock budgets for cooperative solver deadlines.

A :class:`Budget` is a small monotonic-clock deadline object threaded
through ``FMConfig`` / ``ReplicationConfig`` / ``KWayConfig``.  The
solvers poll it at cheap checkpoints (between passes, every few hundred
moves inside a pass, at every carve of the k-way flow) and, once it
expires, stop refining and return their best state so far: a timed-out
k-way run still yields a structurally valid (possibly infeasible,
``truncated``) solution.

Budgets nest: :meth:`Budget.child` returns a sub-budget clamped to the
parent's deadline, which is how the attempt cascade
(:func:`~repro.robust.runner.run_cascade`) splits one overall
deadline into exponentially sized per-attempt slices.  The clock is
injectable for deterministic tests.

Cancellation rides the same checkpoints: a :class:`CancelFlag`
installed process-wide (:func:`cancel_scope`) makes *every* budget
report :attr:`Budget.expired` as soon as the flag's sentinel file
appears.  The job service uses this to reach into a pool worker mid
solve -- ``DELETE`` on a running job touches the sentinel and the
worker's solve winds down and frees the slot at its next checkpoint
instead of running to its deadline.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional

from repro.robust.errors import ConfigError


class CancelFlag:
    """A poll-cheap, cross-process cancellation token (a sentinel file).

    The requesting side (the service) calls :meth:`set` -- creating the
    file -- from *its* process; the solving side polls :meth:`is_set`
    from the pool worker.  Polls are throttled (one ``os.path.exists``
    per ``poll_seconds``, and none at all once the flag has latched), so
    wiring the probe into :attr:`Budget.expired` adds nothing
    measurable to solver hot paths.
    """

    __slots__ = ("path", "poll_seconds", "_latched", "_next_poll", "_clock")

    def __init__(
        self,
        path: str,
        poll_seconds: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = path
        self.poll_seconds = poll_seconds
        self._latched = False
        self._next_poll = 0.0
        self._clock = clock

    def set(self) -> None:
        """Raise the flag (idempotent): create the sentinel file."""
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        with open(self.path, "a", encoding="utf-8"):
            pass

    def clear(self) -> None:
        """Remove the sentinel (used by tests and job cleanup)."""
        try:
            os.remove(self.path)
        except OSError:
            pass
        self._latched = False
        self._next_poll = 0.0

    def is_set(self) -> bool:
        """Whether the flag is raised; latches once observed."""
        if self._latched:
            return True
        now = self._clock()
        if now < self._next_poll:
            return False
        self._next_poll = now + self.poll_seconds
        if os.path.exists(self.path):
            self._latched = True
        return self._latched


#: The process-wide cancellation flag solvers observe through
#: :attr:`Budget.expired`; ``None`` means cancellation is not wired up.
_CANCEL: Optional[CancelFlag] = None


def cancelled() -> bool:
    """Whether the installed process-wide flag (if any) is raised."""
    return _CANCEL is not None and _CANCEL.is_set()


def ambient_budget() -> Optional["Budget"]:
    """An unlimited budget when cancellation is wired up, else ``None``.

    Deadline-less solves normally run with no budget at all, which would
    leave them blind to an installed :class:`CancelFlag` (solvers only
    poll budgets they are given).  Callers that want such solves to stay
    cancellable thread ``budget=ambient_budget()`` instead of ``None``:
    the unlimited budget never expires on its own but reports
    :attr:`Budget.expired` the moment the flag is raised.
    """
    return None if _CANCEL is None else Budget(None)


class cancel_scope:
    """Install ``flag`` process-wide (``None`` removes it) for the scope;
    restores the previous flag on exit.

    A plain class-based context manager (not ``@contextmanager``) so the
    pool worker can keep one instance per task with zero generator
    overhead.
    """

    __slots__ = ("_flag", "_previous")

    def __init__(self, flag: Optional[CancelFlag]) -> None:
        self._flag = flag
        self._previous: Optional[CancelFlag] = None

    def __enter__(self) -> Optional[CancelFlag]:
        global _CANCEL
        self._previous = _CANCEL
        _CANCEL = self._flag
        return self._flag

    def __exit__(self, *exc_info: object) -> None:
        global _CANCEL
        _CANCEL = self._previous


class Budget:
    """A wall-clock deadline with cooperative check points.

    ``seconds=None`` means unlimited: :attr:`expired` is always False
    and :meth:`remaining` returns ``inf``, so threading a default budget
    through a solver changes nothing.
    """

    __slots__ = ("_clock", "start", "seconds", "deadline")

    def __init__(
        self,
        seconds: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds < 0:
            raise ConfigError("budget seconds must be non-negative")
        self._clock = clock
        self.start = clock()
        self.seconds = seconds
        self.deadline = None if seconds is None else self.start + seconds

    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        """Seconds since the budget was created."""
        return self._clock() - self.start

    def remaining(self) -> float:
        """Seconds left before expiry (``inf`` when unlimited, >= 0)."""
        if self.deadline is None:
            return float("inf")
        return max(0.0, self.deadline - self._clock())

    @property
    def expired(self) -> bool:
        """True once the deadline has passed *or* the job is cancelled.

        Cancellation (see :class:`CancelFlag`) deliberately reuses the
        deadline machinery: every solver already winds down when its
        budget expires, so raising the process-wide flag stops a running
        solve at its next checkpoint with no new code in any solver.
        """
        if _CANCEL is not None and _CANCEL.is_set():
            return True
        return self.deadline is not None and self._clock() >= self.deadline

    def share(self, n: int) -> Optional[float]:
        """An even ``1/n`` split of the remaining time, in seconds.

        Returns ``None`` when the budget is unlimited.  The batch
        scheduler (:mod:`repro.batch.scheduler`) uses this as the fair
        per-job wait slice while collecting outstanding jobs, so one
        stuck job cannot silently consume every other job's share of a
        global deadline.
        """
        if n <= 0:
            raise ConfigError("share() needs a positive job count")
        if self.deadline is None:
            return None
        return self.remaining() / n

    # ------------------------------------------------------------------
    def child(self, seconds: Optional[float] = None) -> "Budget":
        """A sub-budget clamped to this budget's own deadline.

        ``seconds=None`` inherits the parent's remaining time exactly.
        The child shares the parent's clock, so fake clocks in tests
        govern the whole tree.
        """
        remaining = self.remaining()
        if seconds is None:
            allot = None if remaining == float("inf") else remaining
        else:
            allot = seconds if remaining == float("inf") else min(seconds, remaining)
        return Budget(allot, clock=self._clock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.deadline is None:
            return "Budget(unlimited)"
        return f"Budget({self.seconds:.3f}s, remaining={self.remaining():.3f}s)"
