"""Resilient solver orchestration: budgets, retries, degradation, faults.

This package wraps the partitioning entry points in budgeted,
fault-tolerant execution:

* :mod:`repro.robust.errors` -- the structured exception taxonomy
  (:class:`ReproError` and friends) every module of the library raises;
* :mod:`repro.robust.budget` -- wall-clock :class:`Budget` objects the
  solvers poll cooperatively;
* :mod:`repro.robust.runner` -- the attempt cascade every solve runs
  (:func:`~repro.robust.runner.run_cascade`): deadlines, retry with seed
  perturbation, an engine-degradation cascade (``fm+functional ->
  fm+traditional -> fm``) and best-so-far checkpointing on top of the
  raw flows, recording every decision in a machine-readable
  :class:`RunLog`;
* :mod:`repro.robust.faults` -- a deterministic fault-injection harness
  used by the tests to prove every degradation path fires.

``errors``, ``budget`` and ``faults`` are import-light (the low-level
solvers import them), while ``runner`` pulls in the whole partitioning
stack -- it is therefore loaded lazily on first attribute access to keep
``repro.partition`` -> ``repro.robust`` imports cycle-free.
"""

from __future__ import annotations

from repro.robust.budget import Budget
from repro.robust.errors import (
    BudgetExceededError,
    ConfigError,
    InfeasibleError,
    ParseError,
    ReproError,
    VerificationError,
)
from repro.robust.faults import (
    Fault,
    FaultError,
    FaultPlan,
    export_spec,
    inject,
    install_spec,
    maybe_fire,
)

__all__ = [
    "Budget",
    "ReproError",
    "ConfigError",
    "InfeasibleError",
    "BudgetExceededError",
    "ParseError",
    "VerificationError",
    "Fault",
    "FaultError",
    "FaultPlan",
    "export_spec",
    "inject",
    "install_spec",
    "maybe_fire",
    # lazily resolved from repro.robust.runner:
    "run_cascade",
    "RunLog",
    "RunEvent",
]

_RUNNER_EXPORTS = {"run_cascade", "RunLog", "RunEvent"}


def __getattr__(name: str):
    if name in _RUNNER_EXPORTS:
        from repro.robust import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
