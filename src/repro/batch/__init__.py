"""Batch execution of many solver jobs against the solution cache.

``repro.batch`` turns a declarative manifest (netlist x device-library x
algorithm x seeds; :mod:`repro.batch.manifest`) into scheduled work
(:mod:`repro.batch.scheduler`): jobs are deduplicated against the
content-addressed solution cache (:mod:`repro.cache`), ordered so
shared-netlist work stays adjacent, fanned out over a process pool
(:func:`repro.batch.worker.job_pool`) with a global
deadline budget and per-job resilience policies, and distilled
into a batch report whose ``stable_view`` must reproduce bit-identically
between a cold and a warm (all-cache-hit) run.

The ``repro batch`` CLI (``run`` / ``manifest`` / ``check``) is the
command-line surface; ``docs/CACHING.md`` documents the manifest and
report formats.
"""

from repro.batch.manifest import (
    BatchJob,
    MANIFEST_SCHEMA_NAME,
    ManifestError,
    REPORT_SCHEMA_NAME,
    expand_manifest,
    load_manifest,
)
from repro.batch.scheduler import BatchReport, check_reports, run_batch
from repro.batch.worker import JobOutcome, execute_job

__all__ = [
    "BatchJob",
    "BatchReport",
    "JobOutcome",
    "MANIFEST_SCHEMA_NAME",
    "ManifestError",
    "REPORT_SCHEMA_NAME",
    "check_reports",
    "execute_job",
    "expand_manifest",
    "load_manifest",
    "run_batch",
]
