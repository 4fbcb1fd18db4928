"""Shared pieces of the end-to-end benchmark: request records, statistics,
output checks, run context and the per-run work directory.

Nothing here imports ``repro`` at module load, so the statistics and the
tracer can be tested without the program on ``sys.path``; the checks
import what they need when called.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

INF = float("inf")

#: Set-ups per run unless a workload names its own; ``setup_s`` is the median.
SETUP_REPEATS = 3


# ---------------------------------------------------------------------------
# Per-request records
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One operation of a timed phase, with its check verdict.

    ``due`` is when an open-loop generator meant to send it (``None`` for
    closed-loop calls, which are timed from ``sent``).  A failed operation
    -- a failed check, an exception, a refusal, a failed or expired job --
    has a latency of +inf, so it counts as missing every latency limit.
    """

    cls: str  # "miss" | "hit" | "setup"
    name: str
    sent: float
    done: float
    due: Optional[float] = None
    cache: str = ""
    verdict: str = "ok"
    #: Workload-specific timestamps (a served job's server-side times).
    extra: Optional[Dict[str, float]] = None
    #: Reference seconds per measured second around this operation
    #: (see :class:`SpeedProbe`).
    factor: float = 1.0
    #: Seconds the speed probe took inside this operation, which its
    #: latency leaves out.
    probe_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"

    @property
    def latency(self) -> float:
        if not self.ok:
            return INF
        return self.done - (self.sent if self.due is None else self.due) - self.probe_s

    def fail(self, reason: str) -> None:
        """Record the first failure reason (later ones add nothing)."""
        if self.ok:
            self.verdict = reason


def latencies(ops: Iterable[Op], cls: str, scaled: bool = True) -> List[float]:
    """Latencies of one class, in reference seconds unless ``scaled`` is off."""
    return [op.latency * (op.factor if scaled else 1.0)
            for op in ops if op.cls == cls]


# ---------------------------------------------------------------------------
# Statistics that understand failures (+inf samples)
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    """Median with +inf for failed samples; +inf for an empty sample."""
    if not values:
        return INF
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    lo, hi = ordered[mid - 1], ordered[mid]
    if math.isinf(hi):
        return INF
    return (lo + hi) / 2.0


def total(values: Sequence[float]) -> float:
    """Sum of latencies; +inf as soon as one request failed."""
    return math.fsum(values) if all(math.isfinite(v) for v in values) else INF


def tail(values: Sequence[float]) -> Tuple[Optional[int], float, int]:
    """``(percentile, latency, samples)`` at the highest whole percentile
    that still has at least ten samples above it (nearest rank).

    With fewer than twenty samples no percentile at or above the median
    qualifies; the median is returned with its percentile (50) so the
    caller always has a number, and the sample count says how little it
    rests on.
    """
    n = len(values)
    if n == 0:
        return None, INF, 0
    ordered = sorted(values)
    for pct in range(99, 49, -1):
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            return pct, ordered[rank - 1], n
    return 50, median(ordered), n


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def recompute_cost(solution: Any) -> Tuple[float, float]:
    """Eq. 1 and eq. 2 of a k-way solution, recomputed from its blocks.

    Eq. 1 is the sum of the block devices' prices.  Eq. 2 charges one
    IOB per net of a block that spans more than one block or carries one
    of the block's pads, over the blocks' summed IOB capacity.  Neither
    reads the solver's own ``terminals`` bookkeeping.
    """
    eq1 = math.fsum(block.device.price for block in solution.blocks)
    spans: Dict[str, set] = defaultdict(set)
    for block in solution.blocks:
        for net in block.nets:
            spans[net].add(block.index)
    used = sum(
        1
        for block in solution.blocks
        for net in block.nets
        if len(spans[net]) > 1 or net in block.pad_nets
    )
    capacity = sum(block.device.terminals for block in solution.blocks)
    return eq1, (used / capacity if capacity else 0.0)


def check_solution(mapped: Any, solution: Any) -> List[str]:
    """Every reason ``solution`` is not a correct answer for ``mapped``.

    Structural verification by the program's independent checker, the
    recomputed objectives against the ones the solution reports, and
    feasibility (an over-capacity or deadline-truncated answer is not a
    partition of the design into the chosen devices).
    """
    from repro.partition.verify import verify_solution

    problems = list(verify_solution(mapped, solution))
    eq1, eq2 = recompute_cost(solution)
    if eq1 != solution.cost.total_cost:
        problems.append(f"eq.1 {eq1} != reported {solution.cost.total_cost}")
    if eq2 != solution.cost.avg_iob_utilization:
        problems.append(
            f"eq.2 {eq2} != reported {solution.cost.avg_iob_utilization}"
        )
    if not solution.feasible or solution.truncated:
        problems.append("solution is infeasible or truncated")
    return problems


def solution_doc(solution: Any) -> str:
    """The canonical bytes of a solution document (cache codec form)."""
    from repro.cache.codec import encode_solution

    return json.dumps(encode_solution(solution), sort_keys=True,
                      separators=(",", ":"))


def quality(solutions: Sequence[Any]) -> Tuple[float, float]:
    """``(total_cost, iob_util)``: eq. 1 summed and eq. 2 averaged over
    distinct solutions, both recomputed."""
    if not solutions:
        return INF, INF
    pairs = [recompute_cost(s) for s in solutions]
    return (math.fsum(p[0] for p in pairs),
            math.fsum(p[1] for p in pairs) / len(pairs))


# ---------------------------------------------------------------------------
# Run context and work directory
# ---------------------------------------------------------------------------


#: Median :class:`SpeedProbe` sample on an idle core of the machine the
#: bounds were set on (a 2-core shared VM, Python 3.11).
REFERENCE_PROBE_S = 0.0018

_PROBE_DOC = json.dumps({"cells": [
    {"name": f"c{i}", "inputs": [f"n{(i * 7 + j * 131) % 1999}" for j in range(4)],
     "outputs": [f"n{i}"]} for i in range(200)]})
_PROBE_GRAPH = [[(v * 31 + k * 97 + 13) % 600 for k in range(4)] for v in range(600)]


def _probe_work() -> int:
    """A fixed slice of the program's kind of work on the benchmark's own
    data: one FM-style pass (neighbour gains, a lazy heap, locked moves)
    and a small document parsed and indexed by net name."""
    adj = _PROBE_GRAPH
    n = len(adj)
    side = [v & 1 for v in range(n)]
    gain = [sum(1 if side[u] != side[v] else -1 for u in adj[v]) for v in range(n)]
    heap = [(-gain[v], v) for v in range(n)]
    heapq.heapify(heap)
    locked = [False] * n
    moves = 0
    while heap and moves < n // 2:
        g, v = heapq.heappop(heap)
        if locked[v] or -g != gain[v]:
            continue
        locked[v] = True
        side[v] ^= 1
        moves += 1
        for u in adj[v]:
            if not locked[u]:
                gain[u] += 2 if side[u] != side[v] else -2
                heapq.heappush(heap, (-gain[u], u))
    readers: Dict[str, set] = {}
    for cell in json.loads(_PROBE_DOC)["cells"]:
        for net in cell["inputs"]:
            readers.setdefault(net, set()).add(cell["name"])
    return moves + len(readers)


class SpeedProbe:
    """How fast the machine runs while a phase does: a fixed few
    milliseconds of work, timed in short bursts between operations and,
    for work done in this process, also while it runs.

    On a shared machine the same work takes up to twice as long from one
    second to the next.  Time metrics are therefore reported in reference
    seconds: each operation's measured time is multiplied by the reference
    probe time over the trimmed mean probe time around it (the samples
    inside it, or the nearest ones for a short operation).  Raw seconds
    and every sample are kept in the run's records.
    """

    BURST = 2
    #: CPU seconds between the samples :meth:`running` takes.
    TICK_S = 0.05
    #: A factor rests on at least this many samples.
    AT_LEAST = 16

    def __init__(self, clock: Any = time.perf_counter) -> None:
        self.clock = clock
        #: ``(clock time, probe seconds)`` per sample.
        self.samples: List[Tuple[float, float]] = []

    def _one(self) -> float:
        start = time.perf_counter()
        _probe_work()
        elapsed = time.perf_counter() - start
        self.samples.append((self.clock(), elapsed))
        return elapsed

    def sample(self) -> float:
        """Take one burst now; returns the seconds it took."""
        return sum(self._one() for _ in range(self.BURST))

    @contextmanager
    def running(self) -> Iterator["SpeedProbe"]:
        """Also sample while this process computes: a ``SIGPROF`` timer
        takes one sample every ``TICK_S`` CPU seconds, inside whatever
        operation is running.  :meth:`scale` with ``inside=True`` takes
        those samples' time out of the operations' latencies."""
        previous = signal.signal(signal.SIGPROF, lambda *_: self._one())
        signal.setitimer(signal.ITIMER_PROF, self.TICK_S, self.TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def spent(self, lo: float, hi: float) -> float:
        """Probe seconds of the samples that started in ``[lo, hi]``."""
        return math.fsum(dt for t, dt in self.samples if lo <= t <= hi)

    def factor(self, lo: float = -INF, hi: float = INF) -> float:
        """Reference probe time over the trimmed mean of the samples taken
        in ``[lo, hi]``, or of the ``AT_LEAST`` samples nearest to it when
        fewer were.  The trim drops the slowest and fastest tenth: single
        samples stretched by a page fault or a collection."""
        inside = [dt for t, dt in self.samples if lo <= t <= hi]
        if len(inside) < self.AT_LEAST:
            nearest = sorted(self.samples, key=lambda s: max(lo - s[0], s[0] - hi))
            inside = [dt for _, dt in nearest[:self.AT_LEAST]]
        if not inside:
            return 1.0
        inside.sort()
        cut = len(inside) // 10
        kept = inside[cut:len(inside) - cut]
        return REFERENCE_PROBE_S * len(kept) / math.fsum(kept)

    def scale(self, ops: Iterable[Op], inside: bool = False,
              local: bool = True) -> None:
        """Give each operation the factor of the samples around it, or
        with ``local`` off the factor of every sample.  With ``inside``
        the samples were taken in this process during the operations, and
        their time is left out of each operation's latency."""
        for op in ops:
            op.factor = (self.factor(op.sent if op.due is None else op.due, op.done)
                         if local else self.factor())
            if inside:
                op.probe_s = self.spent(op.sent, op.done)


def pass_factor(ops: Sequence[Op]) -> float:
    """The latency-weighted factor of a group of operations (what their
    summed time scales by)."""
    raw = math.fsum(op.latency for op in ops)
    return math.fsum(op.latency * op.factor for op in ops) / raw if raw else 1.0


def run_context(root: str) -> Dict[str, Any]:
    """What a result needs to be traced back to the code and machine."""
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            )
            rev = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            rev = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_revision": rev,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg": list(os.getloadavg()),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def dir_mb(path: str) -> float:
    size = 0
    for base, _, files in os.walk(path):
        for name in files:
            try:
                size += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return size / 1e6


def fresh_dir(path: str) -> str:
    """An empty directory at ``path`` (whatever was there is removed)."""
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def derive_seed(seed: int, *labels: Any) -> int:
    """A 30-bit seed for one input, derived from the workload seed."""
    text = ":".join(str(x) for x in (seed,) + labels)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16) >> 2


def op_records(ops: Sequence[Op]) -> List[Dict[str, Any]]:
    return [asdict(op) for op in ops]


def finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None
