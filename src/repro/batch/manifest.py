"""Batch manifests: many solver jobs as one declarative JSON document.

A manifest (schema ``repro-batch-manifest/1``) describes a sweep --
netlist x device-library x algorithm x seeds -- as data::

    {
      "schema": "repro-batch-manifest/1",
      "name": "tables4to7-quick",
      "defaults": {"scale": 0.25, "algorithm": "fm+functional"},
      "jobs": [
        {"verb": "partition", "circuit": "s5378", "threshold": "inf",
         "seeds": [0, 1], "priority": 5},
        {"verb": "bipartition", "circuit": "c3540", "runs": 10}
      ]
    }

``defaults`` apply to every job; a job's own fields win.  A ``seeds``
list expands one entry into one :class:`BatchJob` per seed (a scalar
``seed`` is also accepted).  ``threshold`` accepts the paper's
``T = inf`` baseline as the string ``"inf"`` (strict JSON has no
infinity literal).  Per-job ``deadline`` / ``max_retries`` / ``fallback``
shape each job's attempt cascade exactly as the same
:class:`~repro.request.PartitionRequest` fields do -- and, like those,
they are part of the job's cache identity.

:func:`expand_manifest` yields fully-resolved jobs in manifest order;
:func:`load_manifest` reads and validates a file.  The scheduler
(:mod:`repro.batch.scheduler`) consumes the jobs; it never re-reads the
manifest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.partition.devices import library_by_name
from repro.request import (
    REQUEST_VERBS,
    VERB_PARAMS,
    PartitionRequest,
    build_request,
    threshold_label,
)

#: Manifest identifier expected in the ``schema`` field.
MANIFEST_SCHEMA_NAME = "repro-batch-manifest/1"

#: Report identifier stamped into every batch report.
REPORT_SCHEMA_NAME = "repro-batch-report/1"

class ManifestError(ValueError):
    """A manifest that cannot be expanded into valid jobs."""


@dataclass
class BatchJob:
    """One fully-resolved job: a request plus its scheduling fields.

    The request is the canonical :class:`~repro.request.PartitionRequest`
    a worker hands to :func:`repro.api.run_request`, so a batch job and a
    service or library call with equal fields are bit-identical by
    construction.  Execution policy (cache, worker count) is the
    scheduler's call and is passed to ``run_request`` separately.
    """

    job_id: str
    request: PartitionRequest
    priority: int = 0
    #: Position in the expanded manifest (stable tie-break for dispatch).
    index: int = 0
    #: Sentinel-file path for mid-solve cancellation (service jobs): the
    #: pool worker polls it through
    #: :class:`repro.robust.budget.CancelFlag` and winds the solve down
    #: when the submitting side creates the file.
    cancel_path: Optional[str] = None
    #: The request's base mapped netlist when the submitting side has
    #: already built it (the service maps every request to key it), so
    #: the worker solves on it instead of mapping again; ``None`` maps in
    #: the worker.
    mapped: Any = field(default=None, compare=False, repr=False)


_META_KEYS = ("verb", "circuit", "seed", "seeds", "priority")

# A job may set the fields that name its verb's solve
# (:data:`repro.request.VERB_PARAMS`); whatever neither the job nor
# ``defaults`` supplies takes the request's declared default.

#: Every field any verb knows -- a default outside this set is a typo.
_ALL_PARAMS = frozenset(name for params in VERB_PARAMS.values() for name in params)


def _job_params(
    verb: str,
    defaults: Dict[str, Any],
    raw: Dict[str, Any],
    where: str,
) -> Dict[str, Any]:
    """The request fields a job sets: its own over the manifest defaults.

    A *default* naming a field the job's verb does not take is silently
    skipped (one ``defaults`` block may serve mixed-verb manifests, e.g.
    ``n_solutions`` alongside bipartition jobs) -- unless no verb knows
    it at all.  A field set on the *job itself* must be valid for its
    verb.  Whatever neither sets takes the request's default.
    """
    known = VERB_PARAMS[verb]
    params: Dict[str, Any] = {}
    for key, value in defaults.items():
        if key in _META_KEYS:
            continue
        if key not in _ALL_PARAMS:
            raise ManifestError(f"{where}: unknown default field {key!r}")
        if key in known:
            params[key] = value
    for key, value in raw.items():
        if key in _META_KEYS:
            continue
        if key not in known:
            raise ManifestError(f"{where}: unknown {verb} field {key!r}")
        params[key] = value
    if "library" in params:
        # Validate the name early; null means the default library.
        try:
            params["library"] = library_by_name(params["library"]).name
        except ValueError as exc:
            raise ManifestError(f"{where}: {exc}") from None
    return params


def _job_seeds(raw: Dict[str, Any], where: str) -> List[int]:
    if "seeds" in raw and "seed" in raw:
        raise ManifestError(f"{where}: give either 'seed' or 'seeds', not both")
    seeds = raw.get("seeds", [raw.get("seed", PartitionRequest.seed)])
    if not isinstance(seeds, list) or not seeds:
        raise ManifestError(f"{where}: 'seeds' must be a non-empty list")
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ManifestError(f"{where}: seed {seed!r} is not an int")
    return list(seeds)


def expand_manifest(manifest: Dict[str, Any]) -> List[BatchJob]:
    """Validate a manifest dict and expand it into concrete jobs.

    Jobs come back in manifest order (seeds expand in list order); the
    ``job_id`` is ``<verb>:<circuit>:<distinguishing params>:<seed>`` and
    unique within the batch.
    """
    if not isinstance(manifest, dict):
        raise ManifestError(f"manifest is {type(manifest).__name__}, expected object")
    if manifest.get("schema") != MANIFEST_SCHEMA_NAME:
        raise ManifestError(
            f"manifest schema {manifest.get('schema')!r}, "
            f"expected {MANIFEST_SCHEMA_NAME!r}"
        )
    defaults = manifest.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ManifestError("manifest 'defaults' must be an object")
    raw_jobs = manifest.get("jobs")
    if not isinstance(raw_jobs, list) or not raw_jobs:
        raise ManifestError("manifest 'jobs' must be a non-empty list")

    jobs: List[BatchJob] = []
    seen_ids: Dict[str, int] = {}
    for n, raw in enumerate(raw_jobs):
        where = f"jobs[{n}]"
        if not isinstance(raw, dict):
            raise ManifestError(f"{where}: job is not an object")
        meta = dict(defaults)
        if "seed" in raw or "seeds" in raw:
            # A job's own seed spec fully shadows the default's, so a
            # defaults-level "seed" never conflicts with a job "seeds".
            meta.pop("seed", None)
            meta.pop("seeds", None)
        meta.update(raw)
        verb = meta.get("verb", "partition")
        if verb not in REQUEST_VERBS:
            raise ManifestError(
                f"{where}: unknown verb {verb!r}; known: {REQUEST_VERBS}"
            )
        circuit = meta.get("circuit")
        if not isinstance(circuit, str) or not circuit:
            raise ManifestError(f"{where}: 'circuit' must be a non-empty string")
        priority = meta.get("priority", 0)
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise ManifestError(f"{where}: 'priority' must be an int")
        params = _job_params(verb, defaults, raw, where)
        for seed in _job_seeds(meta, where):
            try:
                request = build_request(verb, circuit, seed=seed, **params)
            except ValueError as exc:
                raise ManifestError(f"{where}: {exc}") from None
            if verb == "partition":
                disc = f"T={threshold_label(request.threshold)}"
            else:
                disc = f"runs={request.runs}"
            base_id = f"{verb}:{circuit}:{disc}:s{seed}"
            dup = seen_ids.get(base_id, 0)
            seen_ids[base_id] = dup + 1
            job_id = base_id if dup == 0 else f"{base_id}#{dup}"
            jobs.append(
                BatchJob(
                    job_id=job_id,
                    request=request,
                    priority=priority,
                    index=len(jobs),
                )
            )
    return jobs


def load_manifest(path: str) -> Dict[str, Any]:
    """Read a manifest file; raises :class:`ManifestError` on bad JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    expand_manifest(manifest)  # validate eagerly, fail at load time
    return manifest


__all__ = [
    "BatchJob",
    "MANIFEST_SCHEMA_NAME",
    "ManifestError",
    "REPORT_SCHEMA_NAME",
    "expand_manifest",
    "load_manifest",
]
