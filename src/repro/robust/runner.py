"""The attempt cascade behind every solve.

:func:`run_cascade` is the one solve loop of :func:`repro.api.run_request`,
for both verbs and every request.  The verb supplies its *attempt* -- the
plain solver call for one engine, seed and budget -- and the cascade turns
it into a restartable, deadline-aware search:

* **the first attempt is the plain call** -- the requested engine, the
  request's own seed and, without a deadline, no budget beyond
  :func:`~repro.robust.budget.ambient_budget`.  A request that sets none
  of ``deadline`` / ``max_retries`` / ``fallback`` gets exactly that one
  attempt;
* **deadlines** -- one overall wall-clock budget, split into
  exponentially sized per-attempt slices (early attempts are cheap
  probes, the final attempt gets everything left), each threaded into
  the solver as a :class:`~repro.robust.budget.Budget` whose expiry
  winds the solve down, so a timed-out attempt still returns a
  structurally valid best-so-far solution;
* **retry with seed perturbation** -- every later attempt derives a
  fresh seed, so a crash or a rejected solution is retried on a
  different random trajectory;
* **engine degradation** -- on repeated failure the engine cascade
  steps down ``fm+functional -> fm+traditional -> fm``; the k-way
  attempt relaxes its carve bounds on the lower rungs
  (:func:`relaxed_carve`);
* **best-so-far checkpointing** -- every solution an attempt returns is
  ranked and kept; the cascade stops at the first ``ok`` attempt, and
  when the budget runs out the best checkpoint is returned instead.
  Only when *no* attempt produced a solution does it raise
  :class:`~repro.robust.errors.BudgetExceededError`, chained to the last
  attempt's exception.

Every decision is recorded in a machine-readable :class:`RunLog`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.flow import ALGORITHM_STYLE
from repro.obs.metrics import get_registry
from repro.robust.budget import Budget, ambient_budget
from repro.robust.errors import (
    BudgetExceededError,
    ConfigError,
    FATAL,
    VerificationError,
)

#: Degradation cascade, strongest engine first (paper's contribution
#: down to the plain [15] baseline).
ENGINE_LADDER: Tuple[str, ...] = tuple(ALGORITHM_STYLE)

#: ``max_retries`` of a request that sets another resilience field but
#: not this one.
DEFAULT_MAX_RETRIES = 2

#: Cap on the exponential split: no attempt slice is smaller than
#: remaining / 2**_MAX_SPLIT_EXP.
_MAX_SPLIT_EXP = 4

#: A verb's attempt: ``(engine, rung, seed, budget) -> (solution, rank)``.
#: ``rank`` orders checkpoints, lowest first: ``(truncated, infeasible,
#: *objective)``.  Its first two entries also name the attempt's outcome.
Attempt = Callable[[str, int, int, Optional[Budget]], Tuple[Any, Tuple[Any, ...]]]


def engine_cascade(engine: str, fallback: bool = True) -> List[str]:
    """The engines tried for a request starting at ``engine``."""
    if engine not in ENGINE_LADDER:
        raise ConfigError(
            f"unknown engine {engine!r}; expected one of {ENGINE_LADDER}"
        )
    if not fallback:
        return [engine]
    return list(ENGINE_LADDER[ENGINE_LADDER.index(engine):])


def relaxed_carve(
    rung: int, fill_levels: Tuple[float, ...], devices_per_carve: int
) -> Tuple[Tuple[float, ...], int]:
    """The k-way carve bounds on cascade rung ``rung``: lower rungs add
    low fill bands and widen the device candidates."""
    if rung == 0:
        return fill_levels, devices_per_carve
    extra = (0.15,) if rung == 1 else (0.15, 0.10)
    return fill_levels + extra, devices_per_carve + rung


# ---------------------------------------------------------------------------
# Machine-readable run log
# ---------------------------------------------------------------------------


@dataclass
class RunEvent:
    """One orchestration decision or attempt outcome."""

    kind: str  # "attempt" | "degrade" | "checkpoint" | "give-up"
    engine: str = ""
    attempt: int = -1
    seed: int = -1
    allotted: float = float("inf")  # seconds granted to the attempt
    elapsed: float = 0.0
    outcome: str = ""  # "ok" | "truncated" | "infeasible" | "error" | "rejected"
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "engine": self.engine,
            "attempt": self.attempt,
            "seed": self.seed,
            "allotted": None if math.isinf(self.allotted) else round(self.allotted, 6),
            "elapsed": round(self.elapsed, 6),
            "outcome": self.outcome,
            "detail": self.detail,
        }


@dataclass
class RunLog:
    """Ordered record of everything a cascade decided and saw."""

    events: List[RunEvent] = field(default_factory=list)

    def record(self, event: RunEvent) -> RunEvent:
        self.events.append(event)
        reg = get_registry()
        if reg.enabled:
            # Mirror every orchestration decision into the observability
            # stream so traces line up with the runner's own log.
            reg.counter(f"runner.{event.kind}").inc()
            reg.emit_event(f"runner.{event.kind}", **event.as_dict())
        return event

    # -- queries used by callers and tests -----------------------------
    def attempts(self) -> List[RunEvent]:
        """All solver attempts, in order."""
        return [e for e in self.events if e.kind == "attempt"]

    def degradations(self) -> List[str]:
        """Engines stepped down to, in cascade order."""
        return [e.engine for e in self.events if e.kind == "degrade"]

    def outcomes(self) -> List[str]:
        return [e.outcome for e in self.attempts()]

    def as_dicts(self) -> List[Dict[str, object]]:
        """JSON-ready representation of the full log."""
        return [e.as_dict() for e in self.events]

    def summary(self) -> Dict[str, object]:
        attempts = self.attempts()
        return {
            "attempts": len(attempts),
            "ok": sum(1 for e in attempts if e.outcome in ("ok", "truncated", "infeasible")),
            "failed": sum(1 for e in attempts if e.outcome in ("error", "rejected")),
            "degradations": self.degradations(),
        }

    def as_record(self) -> Dict[str, object]:
        """Ledger-ready view: the summary plus per-attempt outcomes.

        Stored under the (volatile) ``runner`` field of a run-ledger
        record -- orchestration behavior is timing-dependent (deadlines,
        retries), so it is excluded from quality-drift comparisons but
        kept for forensics.
        """
        return {
            "summary": self.summary(),
            "attempts": [
                {
                    "engine": e.engine,
                    "attempt": e.attempt,
                    "seed": e.seed,
                    "outcome": e.outcome,
                }
                for e in self.attempts()
            ],
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "RunLog":
        """The log back from :meth:`as_record`, as far as the record holds
        it: attempts and degradations, without timings or checkpoints."""
        events = [RunEvent(kind="attempt", **a) for a in record["attempts"]]
        degraded = record["summary"]["degradations"]
        return cls(events + [RunEvent(kind="degrade", engine=e) for e in degraded])


# ---------------------------------------------------------------------------
# The cascade
# ---------------------------------------------------------------------------


def _attempt_seconds(total: Budget, attempts_left: int) -> Optional[float]:
    """Exponential budget split: probe cheap, spend big at the end."""
    remaining = total.remaining()
    if math.isinf(remaining):
        return None
    if attempts_left <= 1:
        return remaining
    return remaining / (2 ** min(attempts_left - 1, _MAX_SPLIT_EXP))


def run_cascade(
    attempt: Attempt,
    *,
    engine: str,
    seed: int,
    deadline: Optional[float] = None,
    max_retries: Optional[int] = None,
    fallback: Optional[bool] = None,
) -> Tuple[Any, RunLog]:
    """Run ``attempt`` down the cascade; returns ``(solution, log)``.

    ``deadline`` / ``max_retries`` / ``fallback`` are a request's
    resilience fields, resolved here and nowhere else: with none set the
    cascade is one attempt on ``engine`` with no deadline; with any set
    the unset ones default to :data:`DEFAULT_MAX_RETRIES` retries per
    rung and the fallback ladder on.  Attempt 1 runs ``engine`` at
    ``seed``; retries, reseeding and degradation start only after an
    attempt raises or returns a solution that is not ``ok``.  The first
    ``ok`` solution is returned; otherwise the best checkpoint once the
    deadline expires or the attempts run out.  :data:`FATAL` errors
    propagate unchanged; when no attempt returned a solution,
    :class:`BudgetExceededError` is raised from the last attempt's
    exception and names it.
    """
    if deadline is None and max_retries is None and fallback is None:
        retries, ladder = 0, False
    else:
        retries = DEFAULT_MAX_RETRIES if max_retries is None else max_retries
        ladder = fallback is not False
    cascade = engine_cascade(engine, ladder)
    plan = [(rung, name, retry) for rung, name in enumerate(cascade)
            for retry in range(1 + retries)]
    total = Budget(deadline)
    log = RunLog()
    best: Any = None
    best_rank: Tuple[Any, ...] = ()
    error: Optional[Exception] = None
    for done, (rung, rung_engine, retry) in enumerate(plan, 1):
        if best is not None and total.expired:
            break
        if rung and not retry:
            log.record(
                RunEvent(
                    kind="degrade",
                    engine=rung_engine,
                    elapsed=total.elapsed(),
                    detail=f"stepping down from {cascade[rung - 1]}",
                )
            )
        allot = _attempt_seconds(total, len(plan) - done + 1)
        run_seed = (
            seed if done == 1 else seed * 9973 + rung * 7919 + retry * 104729 + 1
        )
        event = RunEvent(
            kind="attempt",
            engine=rung_engine,
            attempt=done,
            seed=run_seed,
            allotted=float("inf") if allot is None else allot,
        )
        budget = ambient_budget() if deadline is None else total.child(allot)
        started = time.monotonic()
        try:
            solution, rank = attempt(rung_engine, rung, run_seed, budget)
        except FATAL:
            raise
        except Exception as exc:  # noqa: BLE001 - logged and retried
            event.elapsed = time.monotonic() - started
            event.outcome = (
                "rejected" if isinstance(exc, VerificationError) else "error"
            )
            event.detail = f"{type(exc).__name__}: {exc}"
            log.record(event)
            error = exc
            continue
        event.elapsed = time.monotonic() - started
        event.outcome = "truncated" if rank[0] else "infeasible" if rank[1] else "ok"
        event.detail = f"objective={rank[2:]}"
        log.record(event)
        if best is None or rank < best_rank:
            best, best_rank = solution, rank
            log.record(
                RunEvent(
                    kind="checkpoint",
                    engine=rung_engine,
                    seed=run_seed,
                    elapsed=total.elapsed(),
                    outcome=event.outcome,
                    detail=event.detail,
                )
            )
        if event.outcome == "ok":
            break
    if best is not None:
        return best, log
    log.record(RunEvent(kind="give-up", elapsed=total.elapsed(), outcome="failed"))
    raise BudgetExceededError(
        f"all {len(plan)} attempt(s) across {len(cascade)} engine(s) failed "
        f"within {total.elapsed():.3f}s; last: {type(error).__name__}: {error}",
        log=log,
    ) from error
