"""Structured exception taxonomy for the whole reproduction.

Every failure the library can produce descends from :class:`ReproError`,
so callers can write ``except ReproError`` at the service boundary and
know that anything else escaping is a genuine bug.  The taxonomy further
distinguishes *retryable* failures (rejected solutions, an infeasible
carve that a different seed may avoid) from *fatal* ones (a
malformed netlist, a nonsensical configuration), which is what the
attempt cascade (:func:`repro.robust.runner.run_cascade`) keys its
retry/degradation decisions on.

Compatibility: the pre-existing ad-hoc exceptions were plain
``ValueError``/``RuntimeError``; every re-parented class below keeps the
old builtin as a base so existing ``except ValueError`` / ``except
RuntimeError`` call sites (and tests) continue to work unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence


class ReproError(Exception):
    """Base class of every structured error raised by this library."""


class ConfigError(ReproError, ValueError):
    """A configuration value is malformed or out of range.

    Fatal: retrying with another seed cannot fix a bad knob.  Subclasses
    ``ValueError`` because that is what the original validation raised.
    """


class InfeasibleError(ReproError, RuntimeError, ValueError):
    """The search cannot produce a feasible answer in its current setup.

    Raised e.g. when no device in the library can host a carve or the
    block limit is exceeded.  Retryable in the wide sense: a different
    seed, a relaxed carve bound, or a degraded engine may still succeed.
    Subclasses both ``RuntimeError`` and ``ValueError`` because the
    historical call sites raised either, depending on the module.
    """


class BudgetExceededError(ReproError):
    """Every attempt failed and the wall-clock budget is exhausted.

    Terminal: raised by :func:`~repro.robust.runner.run_cascade` only
    when no attempt produced a solution to return instead, chained to
    the last attempt's exception.  The cascade attaches its
    :class:`~repro.robust.runner.RunLog` as ``log`` so post-mortems can
    see every attempt that was made.
    """

    def __init__(self, message: str, log: Optional[object] = None) -> None:
        super().__init__(message)
        self.log = log


class ParseError(ReproError, ValueError):
    """A netlist file is malformed, truncated or unsupported.

    Carries ``source`` (file name, when known) and ``lineno`` so error
    messages always localize the offending input.  Fatal: re-reading the
    same bytes cannot succeed.
    """

    def __init__(
        self,
        message: str,
        *,
        source: Optional[str] = None,
        lineno: Optional[int] = None,
    ) -> None:
        prefix = ""
        if source:
            prefix += f"{source}: "
        if lineno is not None:
            prefix += f"line {lineno}: "
        super().__init__(prefix + message)
        self.source = source
        self.lineno = lineno


class DeltaError(ReproError, ValueError):
    """An ECO netlist delta is malformed or cannot be applied.

    Raised by :mod:`repro.techmap.delta` when a delta document fails
    schema validation, targets an unknown cell, touches a fixed primary
    I/O terminal, or would leave the netlist structurally inconsistent
    (dangling readers, double drivers).  Fatal: re-applying the same
    delta to the same netlist cannot succeed.
    """


class VerificationError(ReproError):
    """An independently-checked solution violates its invariants.

    Carries the full ``violations`` list from
    :func:`repro.partition.verify.verify_solution`.  Retryable: the
    runner rejects the corrupt solution and re-runs with a new seed.
    """

    def __init__(self, violations: Sequence[str], circuit: str = "") -> None:
        head = f"solution for {circuit!r} " if circuit else "solution "
        super().__init__(
            head
            + f"failed verification with {len(violations)} violation(s); "
            + "; ".join(list(violations)[:3])
        )
        self.violations: List[str] = list(violations)
        self.circuit = circuit


#: Exception classes the cascade refuses to retry: the input or the
#: configuration is wrong and no amount of re-running will change that.
#: Every other exception is retried with a new seed or a degraded engine.
FATAL = (ConfigError, ParseError, DeltaError)
