"""Classic Fiduccia-Mattheyses bipartitioning (reference [15] of the paper).

This is the replication-free baseline of the paper's first experiment
("F-M min-cut") and the inner engine of the no-replication k-way flow.  The
implementation follows the original algorithm: single-node moves, gain
ordering, one lock per node per pass, best-prefix rollback, and repeated
passes until a pass yields no improvement.

Differences from the textbook presentation, forced by the pin-level model:

* a node may contribute several pins to one net (e.g. a CLB output feeding
  back to its own input); gains use pin *counts* per net per side;
* gain maintenance uses exact delta updates on move: when a net's side
  counts pass through the "critical window" (counts small enough to
  matter), the gains of the nodes on that net are adjusted by the
  contribution difference in O(1) each, which preserves exactness at
  near-linear cost; the cut size is maintained incrementally the same way;
* move selection uses bounded gain-bucket arrays (one per side) indexed by
  gain, each bucket ordered by push counter, with stamp-based lazy
  invalidation.  Selection order -- highest gain, ties broken by earliest
  push, side 0 preferred on cross-side ties -- reproduces the original
  lazy-heap engine (kept verbatim in :mod:`repro.partition.reference`)
  bit for bit; ``tests/test_fm_equivalence.py`` enforces this;
* a pass stops as soon as its best prefix is decided: a net with locked
  pins on both sides stays cut until the rollback, so once the
  pass-start cut minus the number of such nets is no more than the best
  gain so far, no later move can change the pass's outcome.  The stop
  is exact -- the same moves, best prefix, rollback and pass gain as a
  full pass -- and only ``fm.moves`` and ``fm.thaws`` fall.

The hypergraph is traversed through a shared read-only
:class:`~repro.hypergraph.compact.CompactHypergraph` (flat CSR incidence
arrays); callers that run FM many times on one hypergraph -- multi-start,
the k-way carver -- build it once and pass it to every run.

Balance is expressed either as a tolerance around the perfect 50/50 CLB
split or as explicit ``side0_bounds``; zero-weight nodes (terminals) move
freely.  ``fixed`` pins nodes to a side (used by the k-way carver).
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.hypergraph.compact import CompactHypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.obs.metrics import get_registry
from repro.perf.parallel import seeded_runs
from repro.robust import faults
from repro.robust.budget import Budget

if TYPE_CHECKING:
    from repro.partition.fm_replication import ReplicationConfig, ReplicationResult
    from repro.partition.multilevel import MultilevelConfig, MultilevelResult

#: How many accepted moves between budget polls inside a pass; keeps the
#: cooperative deadline check off the per-move hot path.
_BUDGET_POLL_MOVES = 128

#: Upper bounds for the ``fm.pass_seconds`` histogram.
_PASS_SECONDS_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)


@dataclass
class FMConfig:
    """Knobs for one FM run."""

    seed: int = 0
    balance_tolerance: float = 0.02
    max_passes: int = 16
    side0_bounds: Optional[Tuple[int, int]] = None
    fixed: Dict[int, int] = field(default_factory=dict)
    #: Optional wall-clock budget; when it expires the run stops refining
    #: at the next checkpoint and returns its best state so far.
    budget: Optional[Budget] = None
    #: Seed each pass only from nodes incident to a cut net.  The frontier
    #: still expands naturally (neighbour refreshes re-queue interior nodes
    #: as the boundary moves), but pass startup cost drops from O(n) pushes
    #: to O(boundary) -- the multilevel refiner's hot path.  Off by default:
    #: full seeding is what the bit-identity contract with the reference
    #: engine covers.
    boundary_refine: bool = False


@dataclass
class FMResult:
    """Outcome of one FM run."""

    assignment: List[int]
    cut_size: int
    initial_cut: int
    passes: int
    pass_gains: List[int]

    @property
    def improvement(self) -> int:
        return self.initial_cut - self.cut_size


class _GainBuckets:
    """Bounded gain-bucket array for one side.

    ``buckets[g + offset]`` holds the pending entries of gain ``g`` as a
    min-heap on ``(push counter, node, stamp)``, so within one gain level
    the earliest push wins -- the same total order as the reference
    engine's ``(-gain, counter)`` heap key.  Entries are invalidated
    lazily via the per-node stamp; ``hi`` tracks the highest possibly
    non-empty bucket and only ever descends between pushes.
    """

    __slots__ = ("offset", "buckets", "hi")

    def __init__(self, max_gain: int) -> None:
        self.offset = max_gain
        self.buckets: List[List[Tuple[int, int, int]]] = [
            [] for _ in range(2 * max_gain + 1)
        ]
        self.hi = -1

    def push(self, gain: int, counter: int, node: int, stamp: int) -> None:
        i = gain + self.offset
        heapq.heappush(self.buckets[i], (counter, node, stamp))
        if i > self.hi:
            self.hi = i

    def peek(
        self, locked: List[bool], stamps: List[int], sides: List[int], want: int
    ) -> Optional[Tuple[int, int, int, int]]:
        """Best live entry as ``(gain, counter, node, stamp)``; purges stale."""
        hi = self.hi
        buckets = self.buckets
        while hi >= 0:
            bucket = buckets[hi]
            while bucket:
                counter, node, stamp = bucket[0]
                if (
                    locked[node]
                    or stamp != stamps[node]
                    or sides[node] != want
                ):
                    heapq.heappop(bucket)
                    continue
                self.hi = hi
                return (hi - self.offset, counter, node, stamp)
            hi -= 1
        self.hi = -1
        return None

    def pop_top(self) -> None:
        """Remove the entry last returned by :meth:`peek`."""
        heapq.heappop(self.buckets[self.hi])


class _FMState:
    """Mutable run state shared by the pass loop.

    Net side counts, the cut size and every node's exact move gain are
    maintained incrementally by :meth:`apply`; :meth:`gain` and
    :meth:`cut_size` are O(1) reads.
    """

    def __init__(
        self,
        hg: Optional[Hypergraph],
        config: FMConfig,
        initial: Optional[Sequence[int]],
        compact: Optional[CompactHypergraph] = None,
    ):
        if hg is None and compact is None:
            raise ValueError("either hg or compact is required")
        self.hg = hg
        self.config = config
        self.compact = compact or CompactHypergraph.from_hypergraph(hg)
        cp = self.compact
        rng = random.Random(config.seed)
        n_nodes = cp.n_nodes

        self.weights = cp.weights  # shared read-only
        self.side: List[int] = self._initial_sides(rng, initial)

        self._counts0 = [0] * cp.n_nets
        self._counts1 = [0] * cp.n_nets
        nns, nn, nnc = cp.node_net_start, cp.node_nets, cp.node_net_counts
        for v in range(n_nodes):
            row = self._counts0 if self.side[v] == 0 else self._counts1
            for i in range(nns[v], nns[v + 1]):
                row[nn[i]] += nnc[i]

        self.sizes = [0, 0]
        for v, w in enumerate(self.weights):
            self.sizes[self.side[v]] += w

        self.total_weight = sum(self.weights)
        if config.side0_bounds is not None:
            self.lo0, self.hi0 = config.side0_bounds
        else:
            slack = max(1, int(config.balance_tolerance * self.total_weight))
            half = self.total_weight / 2.0
            self.lo0 = max(0, int(half) - slack)
            self.hi0 = min(self.total_weight, int(half + 0.5) + slack)

        self.locked = [False] * n_nodes
        # Observability tallies, written only at pass boundaries.
        self.moves_total = 0
        self.thaws_total = 0
        self.fixed_set = set(config.fixed)
        self.movable = [i for i in range(n_nodes) if i not in self.fixed_set]
        self.stamp = [0] * n_nodes
        self._push_counter = 0

        # Incrementally maintained cut size and exact per-node gains.  The
        # pass loop refreshes only the gains it will read (unlocked nodes)
        # and re-derives the full array at pass boundaries when needed.
        self._cut = sum(
            1
            for e in range(cp.n_nets)
            if self._counts0[e] > 0 and self._counts1[e] > 0
        )
        self.gains = [0] * n_nodes
        self._gains_dirty = False
        self._recompute_gains()

    def _recompute_gains(self) -> None:
        """Re-derive every node's exact gain from the current counts."""
        cp = self.compact
        c0, c1 = self._counts0, self._counts1
        side, gains = self.side, self.gains
        nns, nn, nnc = cp.node_net_start, cp.node_nets, cp.node_net_counts
        for v in range(cp.n_nodes):
            s = side[v]
            total = 0
            for i in range(nns[v], nns[v + 1]):
                net = nn[i]
                k = nnc[i]
                f, t = (c0[net], c1[net]) if s == 0 else (c1[net], c0[net])
                if t == 0:
                    if f > k:
                        total -= 1
                elif f == k:
                    total += 1
            gains[v] = total
        self._gains_dirty = False

    def _initial_sides(
        self, rng: random.Random, initial: Optional[Sequence[int]]
    ) -> List[int]:
        cp, config = self.compact, self.config
        if initial is not None:
            sides = list(initial)
            if len(sides) != cp.n_nodes:
                raise ValueError("initial assignment length mismatch")
        else:
            order = list(range(cp.n_nodes))
            rng.shuffle(order)
            total = sum(cp.weights)
            if config.side0_bounds is not None:
                target0 = (config.side0_bounds[0] + config.side0_bounds[1]) / 2.0
            else:
                target0 = total / 2.0
            sides = [1] * cp.n_nodes
            acc = 0
            for idx in order:
                w = cp.weights[idx]
                if w == 0:
                    sides[idx] = rng.randrange(2)
                elif acc + w <= target0:
                    sides[idx] = 0
                    acc += w
        for node_idx, fixed_side in config.fixed.items():
            sides[node_idx] = fixed_side
        return sides

    # ------------------------------------------------------------------
    @property
    def counts(self) -> List[List[int]]:
        """Per-net ``[side0, side1]`` pin counts (materialized view)."""
        return [list(pair) for pair in zip(self._counts0, self._counts1)]

    def gain(self, node_idx: int) -> int:
        """Exact cut delta of moving ``node_idx`` to the other side."""
        return self.gains[node_idx]

    def cut_size(self) -> int:
        return self._cut

    def admissible(self, node_idx: int) -> bool:
        w = self.weights[node_idx]
        if w == 0:
            return True
        if self.side[node_idx] == 0:
            new0 = self.sizes[0] - w
        else:
            new0 = self.sizes[0] + w
        return self.lo0 <= new0 <= self.hi0

    def apply(self, node_idx: int) -> None:
        """Move ``node_idx`` to the other side, updating counts, the cut
        size and every affected node's gain by exact deltas."""
        cp = self.compact
        c0, c1 = self._counts0, self._counts1
        side, gains = self.side, self.gains
        nns, nn, nnc = cp.node_net_start, cp.node_nets, cp.node_net_counts
        ens, en, enc = cp.net_node_start, cp.net_nodes, cp.net_node_counts
        maxk = cp.net_maxk
        v = node_idx
        s = side[v]
        gain_v = gains[v]
        cut = self._cut
        for i in range(nns[v], nns[v + 1]):
            net = nn[i]
            k = nnc[i]
            f, t = (c0[net], c1[net]) if s == 0 else (c1[net], c0[net])
            nf = f - k
            nt = t + k
            # Delta-update gains of the other nodes on nets whose counts
            # stay inside the critical window (outside it no contribution
            # can change, so skipping is exact).
            w = maxk[net]
            if not (f > w and t > w and nf > w and nt > w):
                for j in range(ens[net], ens[net + 1]):
                    u = en[j]
                    if u == v:
                        continue
                    ku = enc[j]
                    if side[u] == s:
                        fb, tb, fa, ta = f, t, nf, nt
                    else:
                        fb, tb, fa, ta = t, f, nt, nf
                    if tb == 0:
                        cb = -1 if fb > ku else 0
                    elif fb == ku:
                        cb = 1
                    else:
                        cb = 0
                    if ta == 0:
                        ca = -1 if fa > ku else 0
                    elif fa == ku:
                        ca = 1
                    else:
                        ca = 0
                    if ca != cb:
                        gains[u] += ca - cb
            # Write back counts and maintain the cut incrementally: the
            # net was cut iff the (non-mover) side count was positive, and
            # is cut afterwards iff the mover left pins behind.
            if s == 0:
                c0[net] = nf
                c1[net] = nt
            else:
                c1[net] = nf
                c0[net] = nt
            if t > 0:
                if nf == 0:
                    cut -= 1
            elif nf > 0:
                cut += 1
        self._cut = cut
        side[v] = 1 - s
        w_v = self.weights[v]
        self.sizes[s] -= w_v
        self.sizes[1 - s] += w_v
        # Moving back undoes exactly this cut delta.
        gains[v] = -gain_v

    def _apply_counts(self, node_idx: int) -> None:
        """Move ``node_idx`` updating counts, cut and sizes only.

        Leaves ``gains`` stale (marked dirty); the pass loop re-derives
        them at the next pass boundary.  Used for rollback, where no gain
        is ever read before the recompute.
        """
        cp = self.compact
        c0, c1 = self._counts0, self._counts1
        side = self.side
        nns, nn, nnc = cp.node_net_start, cp.node_nets, cp.node_net_counts
        v = node_idx
        s = side[v]
        cut = self._cut
        for i in range(nns[v], nns[v + 1]):
            net = nn[i]
            k = nnc[i]
            if s == 0:
                f = c0[net]
                t = c1[net]
                c0[net] = nf = f - k
                c1[net] = t + k
            else:
                f = c1[net]
                t = c0[net]
                c1[net] = nf = f - k
                c0[net] = t + k
            if t > 0:
                if nf == 0:
                    cut -= 1
            elif nf > 0:
                cut += 1
        self._cut = cut
        side[v] = 1 - s
        w_v = self.weights[v]
        self.sizes[s] -= w_v
        self.sizes[1 - s] += w_v
        self._gains_dirty = True


def fm_bipartition(
    hg: Optional[Hypergraph],
    config: Optional[FMConfig] = None,
    initial: Optional[Sequence[int]] = None,
    compact: Optional[CompactHypergraph] = None,
) -> FMResult:
    """Run FM on ``hg``; returns the best bipartition found.

    ``compact`` optionally supplies a pre-built
    :class:`~repro.hypergraph.compact.CompactHypergraph` of ``hg`` so
    multi-start callers pay the flattening cost once.  ``hg`` may be
    ``None`` when ``compact`` is given -- the engine reads topology only
    through the CSR arrays, which is how the multilevel V-cycle runs FM
    on coarse levels that exist purely as :class:`CompactHypergraph`s.
    """
    config = config or FMConfig()
    faults.maybe_fire("fm.run", seed=config.seed)
    state = _FMState(hg, config, initial, compact)
    initial_cut = state.cut_size()

    reg = get_registry()
    if reg.enabled:
        with reg.span("fm.run", seed=config.seed, nodes=state.compact.n_nodes):
            pass_gains = _run_passes(state, config, reg)
    else:
        pass_gains = _run_passes(state, config, None)

    return FMResult(
        assignment=list(state.side),
        cut_size=state.cut_size(),
        initial_cut=initial_cut,
        passes=len(pass_gains),
        pass_gains=pass_gains,
    )


def _run_passes(state: _FMState, config: FMConfig, reg) -> List[int]:
    """The pass loop, with per-pass timing when a registry is active."""
    pass_gains: List[int] = []
    initial_cut = state.cut_size()
    hist = reg.histogram("fm.pass_seconds", _PASS_SECONDS_BUCKETS) if reg else None
    moves0, thaws0 = state.moves_total, state.thaws_total

    for _ in range(config.max_passes):
        if config.budget is not None and config.budget.expired:
            break
        if hist is not None:
            t0 = time.perf_counter()
            gain_of_pass = _run_pass(state)
            hist.observe(time.perf_counter() - t0)
        else:
            gain_of_pass = _run_pass(state)
        pass_gains.append(gain_of_pass)
        if gain_of_pass <= 0:
            break

    if reg is not None:
        reg.counter("fm.runs").inc()
        reg.counter("fm.passes").inc(len(pass_gains))
        reg.counter("fm.moves").inc(state.moves_total - moves0)
        reg.counter("fm.thaws").inc(state.thaws_total - thaws0)
        # Per-run convergence series for the run ledger (one event per
        # run, outside the pass loop -- no hot-path cost).
        reg.emit_event(
            "fm.run_gains",
            seed=config.seed,
            initial_cut=initial_cut,
            final_cut=state.cut_size(),
            gains=list(pass_gains),
        )
    return pass_gains


def _run_pass(state: _FMState) -> int:
    """One FM pass; returns the gain of the accepted prefix.

    The hot loop is fused: one traversal per accepted move updates the
    mover's net counts, the cut, and the exact gains of the *unlocked*
    members of window nets, re-queueing each member as its gain settles.
    Locked members are skipped -- they can never be selected again this
    pass -- which leaves their gains stale; the next pass re-derives the
    full gain array before its initial pushes.  The last push per node
    always carries the exact post-move gain (a node's gain only depends
    on its own nets, and each shared net's delta lands before that net's
    push), and earlier pushes are stamp-invalidated exactly as in the
    reference engine, so selection order is preserved bit for bit.  The
    pass ends early once no later prefix can beat its best one (the
    dead-net bound of the module docstring); fixed nodes seed the bound,
    so a pass whose cut nets are all dead from the start returns 0
    without moving.
    """
    if state._gains_dirty:
        state._recompute_gains()
    locked = state.locked
    fixed_set = state.fixed_set
    for idx in range(len(locked)):
        # Fixed nodes stay locked so neighbour refreshes cannot requeue them.
        locked[idx] = idx in fixed_set
    cp = state.compact
    side, stamps, gains = state.side, state.stamp, state.gains
    weights, sizes = state.weights, state.sizes
    c0, c1 = state._counts0, state._counts1
    nns, nn, nnc = cp.node_net_start, cp.node_nets, cp.node_net_counts
    ens, en, enc = cp.net_node_start, cp.net_nodes, cp.net_node_counts
    maxk = cp.net_maxk
    lo0, hi0 = state.lo0, state.hi0
    buckets = (_GainBuckets(cp.max_degree), _GainBuckets(cp.max_degree))
    push0, push1 = buckets[0].push, buckets[1].push
    peek0, peek1 = buckets[0].peek, buckets[1].peek

    # Exact stop, as in the replication engine's pass loop: lmask[net]
    # holds bit 1 << side for each side with a locked pin, dead counts the
    # nets that read 3.  Such a net stays cut until the rollback, so once
    # start_cut - dead <= best_gain no later prefix can improve the pass.
    lmask = [0] * cp.n_nets
    dead = 0
    for u in fixed_set:
        bit = 1 << side[u]
        for i in range(nns[u], nns[u + 1]):
            net = nn[i]
            m = lmask[net]
            if not m & bit:
                lmask[net] = m | bit
                if m | bit == 3:
                    dead += 1
    start_cut = state._cut
    if start_cut - dead <= 0:
        return 0  # no prefix can gain: the full pass would undo itself

    pc = state._push_counter
    if state.config.boundary_refine:
        # Seed only nodes touching a cut net; interior nodes join via
        # neighbour refreshes once the boundary reaches them.
        for u in state.movable:
            for i in range(nns[u], nns[u + 1]):
                e = nn[i]
                if c0[e] > 0 and c1[e] > 0:
                    stamps[u] = st = stamps[u] + 1
                    pc += 1
                    (push0 if side[u] == 0 else push1)(gains[u], pc, u, st)
                    break
    else:
        for u in state.movable:
            stamps[u] = st = stamps[u] + 1
            pc += 1
            (push0 if side[u] == 0 else push1)(gains[u], pc, u, st)

    moves: List[int] = []
    n_moves = 0
    cumulative = 0
    best_gain = 0
    best_index = 0
    budget = state.config.budget
    # Balance-blocked entries parked by the direction of the side-0 size
    # change that could re-admit them; each holds (entry side, entry).
    needs_grow0: List[Tuple[int, Tuple[int, int, int, int]]] = []
    needs_shrink0: List[Tuple[int, Tuple[int, int, int, int]]] = []

    while True:
        # Pick the best live, admissible entry across both sides: highest
        # gain, ties by earliest push, side 0 preferred on cross-side ties
        # (matching the reference engine's heap comparison).
        chosen = -1
        while chosen < 0:
            e0 = peek0(locked, stamps, side, 0)
            e1 = peek1(locked, stamps, side, 1)
            if e0 is None and e1 is None:
                chosen = -2
                break
            if e1 is None or (e0 is not None and e0[0] >= e1[0]):
                sel, entry = 0, e0
            else:
                sel, entry = 1, e1
            buckets[sel].pop_top()
            node_idx = entry[2]
            w = weights[node_idx]
            if side[node_idx] == 0:
                new0 = sizes[0] - w
            else:
                new0 = sizes[0] + w
            if w == 0 or lo0 <= new0 <= hi0:
                chosen = node_idx
            elif new0 < lo0:
                # Park by which direction of side-0 movement re-admits it.
                needs_grow0.append((sel, entry))
            else:
                needs_shrink0.append((sel, entry))
        if chosen == -2:
            break

        gain = gains[chosen]
        s = side[chosen]
        locked[chosen] = True
        new_bit = 2 if s == 0 else 1
        other_bit = 3 - new_bit
        # Fused move: counts + cut + delta-gains + pushes in one traversal.
        cut = state._cut
        for i in range(nns[chosen], nns[chosen + 1]):
            net = nn[i]
            k = nnc[i]
            if s == 0:
                f = c0[net]
                t = c1[net]
                c0[net] = nf = f - k
                c1[net] = nt = t + k
            else:
                f = c1[net]
                t = c0[net]
                c1[net] = nf = f - k
                c0[net] = nt = t + k
            if t > 0:
                if nf == 0:
                    cut -= 1
            elif nf > 0:
                cut += 1
            m = lmask[net]
            if not m & new_bit:
                lmask[net] = m | new_bit
                if m == other_bit:
                    dead += 1
            w = maxk[net]
            if f > w and t > w and nf > w and nt > w:
                continue
            for j in range(ens[net], ens[net + 1]):
                u = en[j]
                if locked[u]:
                    continue
                ku = enc[j]
                if side[u] == s:
                    fb, tb, fa, ta = f, t, nf, nt
                    su = s
                else:
                    fb, tb, fa, ta = t, f, nt, nf
                    su = 1 - s
                if tb == 0:
                    cb = -1 if fb > ku else 0
                elif fb == ku:
                    cb = 1
                else:
                    cb = 0
                if ta == 0:
                    ca = -1 if fa > ku else 0
                elif fa == ku:
                    ca = 1
                else:
                    ca = 0
                if ca != cb:
                    gains[u] += ca - cb
                stamps[u] = st = stamps[u] + 1
                pc += 1
                (push0 if su == 0 else push1)(gains[u], pc, u, st)
        state._cut = cut
        side[chosen] = 1 - s
        w_v = weights[chosen]
        sizes[s] -= w_v
        sizes[1 - s] += w_v

        moves.append(chosen)
        n_moves += 1
        cumulative += gain
        if cumulative > best_gain:
            best_gain = cumulative
            best_index = n_moves
        if start_cut - dead <= best_gain:
            break  # the best prefix is decided

        if (
            budget is not None
            and n_moves % _BUDGET_POLL_MOVES == 0
            and budget.expired
        ):
            break  # rollback below still lands on the best prefix

        # Restore parked entries only when this move changed side-0 size in
        # the direction that can re-admit them; parked entries are exactly
        # as inadmissible as before otherwise.
        if w_v > 0:
            thawed = needs_shrink0 if s == 0 else needs_grow0
            if thawed:
                for sel, entry in thawed:
                    node_idx = entry[2]
                    if not locked[node_idx] and entry[3] == stamps[node_idx]:
                        buckets[sel].push(entry[0], entry[1], node_idx, entry[3])
                        state.thaws_total += 1
                thawed.clear()

    state._push_counter = pc
    state.moves_total += n_moves
    if moves:
        state._gains_dirty = True
    # Roll back to the best prefix (counts-only; gains re-derived next pass).
    apply_counts = state._apply_counts
    for node_idx in reversed(moves[best_index:]):
        apply_counts(node_idx)
    return best_gain


def multi_start(
    hg: Hypergraph,
    runs: int,
    base_config: Union[FMConfig, ReplicationConfig, MultilevelConfig],
    jobs: int = 1,
) -> Tuple[List[Union[FMResult, ReplicationResult, MultilevelResult]], List[int]]:
    """``runs`` seeded runs and their cuts, in run order.

    Run ``i`` is seeded ``base_config.seed * 7919 + i``; the engine
    follows the config type (:func:`repro.perf.parallel.seeded_runs`),
    and a V-cycle run counts with its final cut.  ``jobs`` is the worker
    count (``0`` = all cores) and never changes a result; a budget that
    expires mid-sweep ends it after fewer runs (at least one).
    """
    seeds = [base_config.seed * 7919 + run for run in range(runs)]
    results = seeded_runs(hg, base_config, seeds, jobs)
    return results, [getattr(r, "final_cut", r.cut_size) for r in results]


def best_of_runs(
    hg: Hypergraph,
    runs: int,
    base_config: Optional[Union[FMConfig, ReplicationConfig, MultilevelConfig]] = None,
    jobs: int = 1,
) -> Tuple[Union[FMResult, ReplicationResult, MultilevelResult], List[int]]:
    """:func:`multi_start` (plain FM by default); returns (best result,
    all cut sizes).  The winner is the first run with the smallest cut,
    whatever the worker count."""
    results, cuts = multi_start(hg, runs, base_config or FMConfig(), jobs)
    return results[cuts.index(min(cuts))], cuts
