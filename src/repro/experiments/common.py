"""Shared experiment plumbing: suite loading, table formatting, manifests.

The paper's evaluation runs over nine benchmark circuits; experiments here
take a ``scale`` knob (1.0 = the published circuit sizes) and a ``circuits``
subset so benches can run quickly by default and at full fidelity on demand.

Every data point of Tables III-VII is a solver job of a batch manifest,
run by :func:`run_manifest` through :func:`repro.batch.scheduler.run_batch`
and so through :func:`repro.api.run_request`: k-way solutions are
verified, every result is cached (a repeated table replays from the
solution cache, CPU seconds included) and the jobs spread over every
core.  Suite loading is memoized in-process for the tables that only
inspect the mapped circuits (Table II, Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import api
from repro.batch.scheduler import BatchReport, run_batch
from repro.hypergraph.build import build_hypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.netlist.benchmarks import BENCHMARK_NAMES, RECORDED_SEED
from repro.techmap.mapped import MappedNetlist

#: Circuit subset used by quick (default) bench runs.
QUICK_CIRCUITS: Tuple[str, ...] = ("c3540", "c6288", "s5378", "s9234")
#: Default scale for quick bench runs.
QUICK_SCALE = 0.3


@dataclass
class TableResult:
    """A rendered experiment table."""

    title: str
    headers: List[str]
    rows: List[List[object]]
    notes: List[str] = field(default_factory=list)

    def text(self) -> str:
        """Render as an aligned ASCII table."""
        cells = [self.headers] + [
            [_fmt(v) for v in row] for row in self.rows
        ]
        widths = [
            max(len(row[col]) for row in cells) for col in range(len(self.headers))
        ]
        lines = [self.title, "=" * len(self.title)]
        header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
        lines.append(header_line)
        lines.append("-" * len(header_line))
        for row in cells[1:]:
            lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def row_dict(self) -> List[Dict[str, object]]:
        return [dict(zip(self.headers, row)) for row in self.rows]


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


@dataclass
class SuiteCircuit:
    """One loaded benchmark circuit in all representations."""

    name: str
    mapped: MappedNetlist
    hg_full: Hypergraph  # with terminal nodes
    hg_relaxed: Hypergraph  # terminals relaxed (experiment 1 setting)


@lru_cache(maxsize=8)
def _load_suite_cached(
    circuits: Tuple[str, ...], scale: float, seed: int
) -> Tuple[SuiteCircuit, ...]:
    loaded = []
    for name in circuits:
        mapped = api.map(name, scale=scale, seed=seed).solution
        loaded.append(
            SuiteCircuit(
                name=name,
                mapped=mapped,
                hg_full=build_hypergraph(mapped, include_terminals=True),
                hg_relaxed=build_hypergraph(mapped, include_terminals=False),
            )
        )
    return tuple(loaded)


def load_suite(
    circuits: Optional[Sequence[str]] = None,
    scale: float = 1.0,
    seed: int = RECORDED_SEED,
) -> List[SuiteCircuit]:
    """Load (and memoize) a benchmark suite at the given scale.

    Circuits are mapped by :func:`repro.api.map` at run seed ``seed``,
    as every request is, so a table that inspects the suite and a table
    that partitions it see the same netlists.
    """
    names = tuple(circuits) if circuits else BENCHMARK_NAMES
    return list(_load_suite_cached(names, scale, seed))


def run_manifest(
    manifest: Dict[str, Any],
    jobs: int = 0,
    cache: str = "use",
    cache_dir: Optional[str] = None,
) -> BatchReport:
    """Run an experiment manifest through the batch scheduler.

    ``jobs=0`` uses every core; ``cache="use"`` with no ``cache_dir``
    reads and fills the store :func:`repro.cache.resolve_cache` picks
    (``REPRO_CACHE``, otherwise ``results/cache``), so an interrupted
    recording resumes and a repeated table is a replay.  Raises
    ``RuntimeError`` when any job ends without a report: a table must
    not render a hole.
    """
    batch = run_batch(manifest, jobs=jobs, cache=cache, cache_dir=cache_dir)
    bad = [o.job_id for o in batch.outcomes if o.report is None]
    if bad:
        raise RuntimeError(f"batch {batch.name!r} left jobs without results: {bad}")
    return batch


def geomean_percent(values: Iterable[float]) -> float:
    """Arithmetic mean of percentages (the paper averages this way)."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
