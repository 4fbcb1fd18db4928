"""Performance layer: parallel multi-start fan-out and benchmarking.

:mod:`repro.perf.parallel`
    :class:`~repro.perf.parallel.WorkerPool`, the one helper the scans
    run through -- the multi-start sweep (``seeded_runs`` behind
    :func:`~repro.partition.fm.multi_start`), the k-way carve
    candidate scan, batch and service jobs.  It runs tasks in-process at
    one worker and over a process pool otherwise; scans reduce results
    in plan order, so every job count returns the same winner for a
    given seed.

:mod:`repro.perf.bench`
    Timing helpers and the ``BENCH_partition.json`` writer used by
    ``benchmarks/bench_fm_hot.py`` and the CI perf-smoke job.
"""

from repro.perf.parallel import resolve_jobs

__all__ = ["resolve_jobs"]
