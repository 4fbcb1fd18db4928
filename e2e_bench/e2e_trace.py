"""The benchmark's own tracer: spans around calls into the program's layers.

The traced run wraps public functions at the names their callers look
them up through (``repro.api.kway_solution``, ``SolutionCache.get``,
...), records one span per call in memory -- name, start, end, parent
and the request's trace id -- and restores the original objects
afterwards.  Untraced runs install nothing.  Self time is a span's
duration minus the part of it its child spans cover, so a phase's rows
(plus the time outside every span) add up to the phase.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (module, attribute or ``Class.method``, span name).  A span name is
#: ``<layer>.<operation>``; the layer is a ``repro`` package.
LAYER_WRAPS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.batch.scheduler", "run_batch", "batch.run"),
    ("repro.batch.scheduler", "execute_job", "batch.job"),
    ("repro.api", "run_request", "api.run_request"),
    ("repro.netlist.benchmarks", "benchmark_circuit", "netlist.gen"),
    ("repro.api", "benchmark_circuit", "netlist.gen"),
    ("repro.api", "load_bench", "netlist.load"),
    ("repro.api", "map_circuit", "techmap.map"),
    ("repro.techmap.delta", "NetlistDelta.apply", "techmap.delta"),
    ("repro.obs.ledger", "netlist_fingerprint", "obs.fingerprint"),
    ("repro.cache.store", "netlist_fingerprint", "obs.fingerprint"),
    ("repro.cache.store", "SolutionCache.get", "cache.get"),
    ("repro.cache.store", "SolutionCache.put", "cache.put"),
    ("repro.cache.store", "nearest_ancestor", "cache.ancestor"),
    ("repro.cache.codec", "decode_solution", "cache.decode"),
    ("repro.cache.codec", "encode_solution", "cache.encode"),
    ("repro.api", "kway_solution", "partition.kway"),
    ("repro.partition.kway", "ReplicationTables", "partition.tables"),
    ("repro.partition.fm_replication", "ReplicationEngine.run", "partition.engine"),
    ("repro.api", "verify_solution", "partition.verify"),
    ("repro.partition.incremental", "incremental_partition", "partition.incr"),
    ("repro.partition.incremental", "fm_bipartition", "partition.fm"),
)

OUTSIDE = "(outside spans)"


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace")

    def __init__(self, name: str, start: float, end: float, parent: int,
                 trace: Optional[str]) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace = trace

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.trace]


class Tracer:
    """In-memory spans and counts, plus the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.trace_id: Optional[str] = None
        self._open: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------
    def begin(self, name: str) -> Span:
        span = Span(name, perf_counter(), 0.0,
                    self._open[-1] if self._open else -1, self.trace_id)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        self._open.pop()

    def innermost(self) -> Optional[str]:
        return self.spans[self._open[-1]].name if self._open else None

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    # -- wrappers -----------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: Optional[str],
             on_result: Optional[Callable[["Tracer", Any], None]] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span called
        ``name`` (none when ``name`` is ``None``) and feeds the result to
        ``on_result``; :meth:`restore` puts the original object back."""
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if name is None:
                result = original(*args, **kwargs)
            else:
                span = tracer.begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.end(span)
            if on_result is not None:
                on_result(tracer, result)
            return result

        functools.update_wrapper(wrapper, original, updated=())
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install_layers(self) -> None:
        """Wrap every entry of :data:`LAYER_WRAPS` plus the count-only hooks."""
        for module_name, attr, name in LAYER_WRAPS:
            owner, leaf = _resolve(module_name, attr)
            hook = _cache_get_hook if name == "cache.get" else None
            self.wrap(owner, leaf, name, hook)
        owner, leaf = _resolve("repro.cache.store", "SolutionCache.entries")
        self.wrap(owner, leaf, None, _entries_hook)

    # -- serialization --------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every span and count once, at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "trace"],
                       "spans": [s.as_list() for s in self.spans],
                       "counts": dict(self.counts)}, fh)


def _resolve(module_name: str, attr: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


def _cache_get_hook(tracer: Tracer, entry: Any) -> None:
    tracer.counts["cache.get_hits" if entry is not None else "cache.get_misses"] += 1


def _entries_hook(tracer: Tracer, entries: Any) -> None:
    # nearest_ancestor reads every listed entry; count them per scan.
    if tracer.innermost() == "cache.ancestor":
        tracer.counts["cache.ancestor_reads"] += len(entries)


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    length = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                length += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        length += cur_hi - cur_lo
    return length


def self_times(spans: Sequence[Span], lo: float = float("-inf"),
               hi: float = float("inf")) -> Dict[str, Tuple[int, float]]:
    """``{name: (calls, self seconds)}`` over the spans starting in
    ``[lo, hi]``; a span's self time is its duration minus the union of
    its children's intervals, clipped to the span."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out: Dict[str, List[float]] = {}
    for i, span in enumerate(spans):
        if not lo <= span.start <= hi:
            continue
        inner = [(max(a, span.start), min(b, span.end))
                 for a, b in children.get(i, ()) if b > span.start and a < span.end]
        row = out.setdefault(span.name, [0, 0.0])
        row[0] += 1
        row[1] += (span.end - span.start) - _covered(inner)
    return {name: (int(c), s) for name, (c, s) in out.items()}


def phase_table(spans: Sequence[Span], lo: float, hi: float
                ) -> List[Tuple[str, int, float]]:
    """Self-time rows of the phase ``[lo, hi]``, largest first, plus the
    time no span covers; the rows add up to ``hi - lo``."""
    rows = [(name, calls, secs) for name, (calls, secs)
            in self_times(spans, lo, hi).items()]
    rows.sort(key=lambda r: -r[2])
    top = [(s.start, min(s.end, hi)) for s in spans
           if s.parent < 0 and lo <= s.start <= hi]
    rows.append((OUTSIDE, 0, (hi - lo) - _covered(top)))
    return rows


def format_table(title: str, rows: Sequence[Tuple[str, int, float]],
                 phase_s: float) -> str:
    lines = [title, f"  {'span':<26}{'calls':>8}{'self_s':>12}{'share':>9}"]
    for name, calls, secs in rows:
        share = secs / phase_s if phase_s > 0 else 0.0
        lines.append(f"  {name:<26}{calls:>8}{secs:>12.4f}{share:>9.1%}")
    lines.append(f"  {'total':<26}{'':>8}{sum(r[2] for r in rows):>12.4f}"
                 f"{'':>9}  (phase {phase_s:.4f} s)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Worker-side streams of ``repro serve --trace-dir``
# ---------------------------------------------------------------------------


def read_worker_streams(trace_dir: str, traces: Iterable[str]
                        ) -> Tuple[List[Span], Counter]:
    """Spans and counters of the pool-worker tasks whose trace id is in
    ``traces``.

    Each worker task writes a ``meta`` line, its spans (stamped with the
    job's trace id) and, when it closes, its counters (unstamped); a task
    is therefore the run of lines from one ``meta`` line to the next.
    Span ids restart per task, so parents are re-indexed per task.
    """
    wanted = set(traces)
    spans: List[Span] = []
    counters: Counter = Counter()
    names = sorted(n for n in os.listdir(trace_dir)
                   if n.startswith("worker-") and n.endswith(".jsonl"))
    for name in names:
        tasks: List[List[Dict[str, Any]]] = []
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if rec.get("kind") == "meta" or not tasks:
                    tasks.append([])
                tasks[-1].append(rec)
        for task in tasks:
            trace = next((r["trace"] for r in task if r.get("trace")), None)
            if trace not in wanted:
                continue
            records = [r for r in task if r.get("kind") == "span"]
            index = {r["id"]: len(spans) + i for i, r in enumerate(records)}
            for rec in records:
                start = float(rec["start_ts"])
                spans.append(Span(rec["name"], start, start + float(rec["dur_s"]),
                                  index.get(rec.get("parent"), -1), trace))
            for rec in task:
                if rec.get("kind") == "counter":
                    counters[rec["name"]] += rec["value"]
    return spans, counters
