"""Reference (pre-optimization) partitioning engines, preserved verbatim.

These are the lazy-heap, full-gain-recompute implementations of
:mod:`repro.partition.fm` and :mod:`repro.partition.fm_replication` as they
existed before the fast CSR/delta-gain core landed.  They are kept for two
jobs:

* **behavioral spec** -- the optimized engines must return *bit-identical*
  assignments for every (hypergraph, config) pair; the equivalence tests in
  ``tests/test_fm_equivalence.py`` and the golden files under
  ``tests/golden/`` enforce this against these implementations;
* **performance baseline** -- ``benchmarks/bench_fm_hot.py`` times these
  engines against the optimized ones *in the same process on the same
  machine*, which makes the recorded speedup ratio meaningful across
  heterogeneous CI hardware.

The object-graph multilevel V-cycle (:func:`coarsen_once`,
:func:`_legacy_multilevel_bipartition`) lives here too: it is the
reference :mod:`repro.partition.multilevel` (the CSR engine) is compared
against in ``tests/test_multilevel.py``.  Terminals are never clustered.

Do not modify the algorithm bodies here; any intended behavior change must
land in the optimized engines first, then be re-captured by regenerating the
golden files (see ``docs/PERFORMANCE.md``).

The fault-injection hooks are intentionally absent: reference runs never
fire ``fm.run`` / ``engine.run`` fault sites, so fault-plan tests keep
deterministic fire counts no matter how often the reference path runs.
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hypergraph.hypergraph import PIN_OUT, Hypergraph, NodeKind
from repro.partition.fm import (
    FMConfig,
    FMResult,
    _BUDGET_POLL_MOVES,
    fm_bipartition,
)
from repro.partition.fm_replication import (
    FUNCTIONAL,
    NONE,
    TRADITIONAL,
    ReplicationConfig,
    ReplicationEngine,
    ReplicationResult,
)
from repro.partition.multilevel import (
    _MAX_SCORING_DEGREE,
    MultilevelConfig,
    MultilevelResult,
)
from repro.replication.gains import MoveVectors
from repro.replication.potential import node_potential

class ReferenceFMState:
    """Mutable run state shared by the pass loop."""

    def __init__(self, hg: Hypergraph, config: FMConfig, initial: Optional[Sequence[int]]):
        self.hg = hg
        self.config = config
        rng = random.Random(config.seed)
        n_nodes = len(hg.nodes)

        # (net, pin count) pairs per node, distinct nets.
        self.node_net_pins: List[List[Tuple[int, int]]] = []
        for node in hg.nodes:
            counts: Dict[int, int] = {}
            for net in node.input_nets:
                counts[net] = counts.get(net, 0) + 1
            for net in node.output_nets:
                counts[net] = counts.get(net, 0) + 1
            self.node_net_pins.append(list(counts.items()))

        # Critical window per net: the largest per-node pin count.
        self.net_maxk: List[int] = [0] * len(hg.nets)
        self.net_nodes: List[List[int]] = [[] for _ in hg.nets]
        for node_idx, pairs in enumerate(self.node_net_pins):
            for net, k in pairs:
                self.net_nodes[net].append(node_idx)
                if k > self.net_maxk[net]:
                    self.net_maxk[net] = k

        self.side: List[int] = self._initial_sides(rng, initial)
        self.counts: List[List[int]] = [[0, 0] for _ in hg.nets]
        for node_idx, pairs in enumerate(self.node_net_pins):
            s = self.side[node_idx]
            for net, k in pairs:
                self.counts[net][s] += k

        self.weights = [node.clb_weight for node in hg.nodes]
        self.sizes = [0, 0]
        for node_idx, w in enumerate(self.weights):
            self.sizes[self.side[node_idx]] += w

        self.total_weight = sum(self.weights)
        if config.side0_bounds is not None:
            self.lo0, self.hi0 = config.side0_bounds
        else:
            slack = max(1, int(config.balance_tolerance * self.total_weight))
            half = self.total_weight / 2.0
            self.lo0 = max(0, int(half) - slack)
            self.hi0 = min(self.total_weight, int(half + 0.5) + slack)

        self.locked = [False] * n_nodes
        self.fixed_set = set(config.fixed)
        self.movable = [i for i in range(n_nodes) if i not in self.fixed_set]
        self.stamp = [0] * n_nodes
        self._push_counter = 0

    def _initial_sides(
        self, rng: random.Random, initial: Optional[Sequence[int]]
    ) -> List[int]:
        hg, config = self.hg, self.config
        if initial is not None:
            sides = list(initial)
            if len(sides) != len(hg.nodes):
                raise ValueError("initial assignment length mismatch")
        else:
            order = list(range(len(hg.nodes)))
            rng.shuffle(order)
            total = sum(node.clb_weight for node in hg.nodes)
            if config.side0_bounds is not None:
                target0 = (config.side0_bounds[0] + config.side0_bounds[1]) / 2.0
            else:
                target0 = total / 2.0
            sides = [1] * len(hg.nodes)
            acc = 0
            for idx in order:
                w = hg.nodes[idx].clb_weight
                if w == 0:
                    sides[idx] = rng.randrange(2)
                elif acc + w <= target0:
                    sides[idx] = 0
                    acc += w
        for node_idx, fixed_side in config.fixed.items():
            sides[node_idx] = fixed_side
        return sides

    # ------------------------------------------------------------------
    def gain(self, node_idx: int) -> int:
        """Exact cut delta of moving ``node_idx`` to the other side."""
        s = self.side[node_idx]
        total = 0
        for net, k in self.node_net_pins[node_idx]:
            f = self.counts[net][s]
            t = self.counts[net][1 - s]
            if t == 0:
                if f > k:
                    total -= 1
            elif f == k:
                total += 1
        return total

    def cut_size(self) -> int:
        return sum(1 for c in self.counts if c[0] > 0 and c[1] > 0)

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
        s = self.side[node_idx]
        for net, k in self.node_net_pins[node_idx]:
            self.counts[net][s] -= k
            self.counts[net][1 - s] += k
        self.side[node_idx] = 1 - s
        w = self.weights[node_idx]
        self.sizes[s] -= w
        self.sizes[1 - s] += w


def reference_fm_bipartition(
    hg: Hypergraph,
    config: Optional[FMConfig] = None,
    initial: Optional[Sequence[int]] = None,
) -> FMResult:
    """Reference FM run (pre-optimization behavior)."""
    config = config or FMConfig()
    state = ReferenceFMState(hg, config, initial)
    initial_cut = state.cut_size()
    pass_gains: List[int] = []

    for _ in range(config.max_passes):
        if config.budget is not None and config.budget.expired:
            break
        gain_of_pass = _reference_run_pass(state)
        pass_gains.append(gain_of_pass)
        if gain_of_pass <= 0:
            break

    return FMResult(
        assignment=list(state.side),
        cut_size=state.cut_size(),
        initial_cut=initial_cut,
        passes=len(pass_gains),
        pass_gains=pass_gains,
    )


def _reference_run_pass(state: ReferenceFMState) -> int:
    """One FM pass; returns the gain of the accepted prefix."""
    for idx in range(len(state.locked)):
        # Fixed nodes stay locked so neighbour refreshes cannot requeue them.
        state.locked[idx] = idx in state.fixed_set
    heaps: List[List[Tuple[int, int, int, int]]] = [[], []]

    def push(node_idx: int) -> None:
        state.stamp[node_idx] += 1
        state._push_counter += 1
        heapq.heappush(
            heaps[state.side[node_idx]],
            (-state.gain(node_idx), state._push_counter, node_idx, state.stamp[node_idx]),
        )

    for node_idx in state.movable:
        push(node_idx)

    moves: List[int] = []
    cumulative = 0
    best_gain = 0
    best_index = 0
    deferred: List[Tuple[int, Tuple[int, int, int, int]]] = []

    while True:
        # Pick the best valid, admissible entry across both heaps.
        chosen = -1
        while chosen < 0:
            best_side = -1
            for s in (0, 1):
                heap = heaps[s]
                while heap:
                    neg_gain, _, node_idx, stamp = heap[0]
                    if (
                        state.locked[node_idx]
                        or stamp != state.stamp[node_idx]
                        or state.side[node_idx] != s
                    ):
                        heapq.heappop(heap)
                        continue
                    break
                if not heap:
                    continue
                if best_side < 0 or heap[0][0] < heaps[best_side][0][0]:
                    best_side = s
            if best_side < 0:
                chosen = -2
                break
            entry = heapq.heappop(heaps[best_side])
            node_idx = entry[2]
            if state.admissible(node_idx):
                chosen = node_idx
            else:
                deferred.append((best_side, entry))
        if chosen == -2:
            break

        gain = state.gain(chosen)
        state.apply(chosen)
        state.locked[chosen] = True
        moves.append(chosen)
        cumulative += gain
        if cumulative > best_gain:
            best_gain = cumulative
            best_index = len(moves)

        budget = state.config.budget
        if (
            budget is not None
            and len(moves) % _BUDGET_POLL_MOVES == 0
            and budget.expired
        ):
            break  # rollback below still lands on the best prefix

        # Inadmissible entries may have become admissible: restore them.
        for s, entry in deferred:
            node_idx = entry[2]
            if not state.locked[node_idx] and entry[3] == state.stamp[node_idx]:
                heapq.heappush(heaps[s], entry)
        deferred.clear()

        # Refresh gains of neighbours on nets whose critical window moved.
        new_side = state.side[chosen]
        for net, k in state.node_net_pins[chosen]:
            f_after = state.counts[net][new_side]
            t_after = state.counts[net][1 - new_side]
            f_before = f_after - k
            t_before = t_after + k
            window = state.net_maxk[net]
            if (
                min(f_before, t_before) > window
                and min(f_after, t_after) > window
            ):
                continue
            for other in state.net_nodes[net]:
                if other != chosen and not state.locked[other]:
                    push(other)

    # Roll back to the best prefix.
    for node_idx in reversed(moves[best_index:]):
        state.apply(node_idx)
    return best_gain



class ReferenceReplicationEngine:
    """The mutable partition state and move machinery.

    Exposed as a class (rather than only the :func:`replication_bipartition`
    driver) so tests and the k-way carver can drive and inspect it directly.
    """

    def __init__(
        self,
        hg: Hypergraph,
        config: Optional[ReplicationConfig] = None,
        initial: Optional[Sequence[int]] = None,
    ) -> None:
        self.hg = hg
        self.config = config or ReplicationConfig()
        self.rng = random.Random(self.config.seed)
        n_nodes = len(hg.nodes)
        n_nets = len(hg.nets)

        # --- static per-node pin tables -------------------------------
        # all_pins[v]: list[(net, count)] of the full cell.
        # orig_pins[v][o] / repl_pins[v][o]: the two instances' pin tables
        # when output o is taken by the replica (functional style).
        self.all_pins: List[List[Tuple[int, int]]] = []
        self.orig_pins: List[List[List[Tuple[int, int]]]] = []
        self.repl_pins: List[List[List[Tuple[int, int]]]] = []
        self.potentials: List[int] = []
        for node in hg.nodes:
            full: Dict[int, int] = {}
            for net in node.input_nets:
                full[net] = full.get(net, 0) + 1
            for net in node.output_nets:
                full[net] = full.get(net, 0) + 1
            self.all_pins.append(list(full.items()))
            per_output_orig: List[List[Tuple[int, int]]] = []
            per_output_repl: List[List[Tuple[int, int]]] = []
            if node.is_cell and node.n_outputs >= 2:
                for o in range(node.n_outputs):
                    kept_inputs: set = set()
                    for j, sup in enumerate(node.supports):
                        if j != o:
                            kept_inputs.update(sup)
                    orig: Dict[int, int] = {}
                    for pin in kept_inputs:
                        net = node.input_nets[pin]
                        orig[net] = orig.get(net, 0) + 1
                    for j, net in enumerate(node.output_nets):
                        if j != o:
                            orig[net] = orig.get(net, 0) + 1
                    repl: Dict[int, int] = {}
                    for pin in node.supports[o]:
                        net = node.input_nets[pin]
                        repl[net] = repl.get(net, 0) + 1
                    out_net = node.output_nets[o]
                    repl[out_net] = repl.get(out_net, 0) + 1
                    per_output_orig.append(list(orig.items()))
                    per_output_repl.append(list(repl.items()))
            self.orig_pins.append(per_output_orig)
            self.repl_pins.append(per_output_repl)
            self.potentials.append(node_potential(node) if node.is_cell else 0)

        self.net_nodes: List[List[int]] = [[] for _ in range(n_nets)]
        self.net_maxk: List[int] = [0] * n_nets
        for v, pairs in enumerate(self.all_pins):
            for net, k in pairs:
                self.net_nodes[net].append(v)
                if k > self.net_maxk[net]:
                    self.net_maxk[net] = k

        # --- dynamic state --------------------------------------------
        self.side: List[int] = self._initial_sides(initial)
        # rep[v] = (orig side, far output) or None.
        self.rep: List[Optional[Tuple[int, int]]] = [None] * n_nodes
        self.counts: List[List[int]] = [[0, 0] for _ in range(n_nets)]
        self.split: List[int] = [0] * n_nets  # traditional-replication splits
        for v in range(n_nodes):
            s = self.side[v]
            for net, k in self.all_pins[v]:
                self.counts[net][s] += k

        self.weights = [node.clb_weight for node in hg.nodes]
        self.sizes = [0, 0]
        for v, w in enumerate(self.weights):
            self.sizes[self.side[v]] += w
        self.total_weight = sum(self.weights)
        if self.config.side0_bounds is not None:
            self.lo0, self.hi0 = self.config.side0_bounds
            self.max_imbalance = None
        else:
            slack = max(1, int(self.config.balance_tolerance * self.total_weight))
            self.max_imbalance = 2 * slack
            self.lo0 = self.hi0 = None
        if self.config.max_growth is None:
            self.instance_cap = None
        else:
            self.instance_cap = int(
                (1.0 + self.config.max_growth) * self.total_weight
            )

        self.locked = [False] * n_nodes
        self.fixed_set = set(self.config.fixed)
        self.movable = [v for v in range(n_nodes) if v not in self.fixed_set]
        self.stamp = [0] * n_nodes
        self._push_counter = 0
        self._moves_only = False

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _initial_sides(self, initial: Optional[Sequence[int]]) -> List[int]:
        hg, config = self.hg, self.config
        if initial is not None:
            sides = list(initial)
            if len(sides) != len(hg.nodes):
                raise ValueError("initial assignment length mismatch")
        else:
            order = list(range(len(hg.nodes)))
            self.rng.shuffle(order)
            total = sum(node.clb_weight for node in hg.nodes)
            if config.side0_bounds is not None:
                target0 = (config.side0_bounds[0] + config.side0_bounds[1]) / 2.0
            else:
                target0 = total / 2.0
            sides = [1] * len(hg.nodes)
            acc = 0
            for idx in order:
                w = hg.nodes[idx].clb_weight
                if w == 0:
                    sides[idx] = self.rng.randrange(2)
                elif acc + w <= target0:
                    sides[idx] = 0
                    acc += w
        for node_idx, fixed_side in config.fixed.items():
            sides[node_idx] = fixed_side
        return sides

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    def cut_size(self) -> int:
        return sum(
            1
            for net in range(len(self.counts))
            if self.split[net] == 0
            and self.counts[net][0] > 0
            and self.counts[net][1] > 0
        )

    def is_cut(self, net: int) -> bool:
        return (
            self.split[net] == 0
            and self.counts[net][0] > 0
            and self.counts[net][1] > 0
        )

    def replicas(self) -> Dict[int, Tuple[int, int]]:
        return {v: r for v, r in enumerate(self.rep) if r is not None}

    def active_pins(self, v: int) -> List[Tuple[int, int, int]]:
        """Current active pins of node ``v`` as ``(net, side, count)``."""
        r = self.rep[v]
        if r is None:
            s = self.side[v]
            return [(net, s, k) for net, k in self.all_pins[v]]
        s, o = r
        if o < 0:  # traditional: full copies on both sides
            return [(net, s, k) for net, k in self.all_pins[v]] + [
                (net, 1 - s, k) for net, k in self.all_pins[v]
            ]
        return [(net, s, k) for net, k in self.orig_pins[v][o]] + [
            (net, 1 - s, k) for net, k in self.repl_pins[v][o]
        ]

    # ------------------------------------------------------------------
    # Move mechanics
    # ------------------------------------------------------------------
    def _state_pins(
        self, v: int, side: int, rep: Optional[Tuple[int, int]]
    ) -> List[Tuple[int, int, int]]:
        if rep is None:
            return [(net, side, k) for net, k in self.all_pins[v]]
        s, o = rep
        if o < 0:
            return [(net, s, k) for net, k in self.all_pins[v]] + [
                (net, 1 - s, k) for net, k in self.all_pins[v]
            ]
        return [(net, s, k) for net, k in self.orig_pins[v][o]] + [
            (net, 1 - s, k) for net, k in self.repl_pins[v][o]
        ]

    def _state_weight(self, v: int, rep: Optional[Tuple[int, int]]) -> Tuple[int, int]:
        """(side0 CLBs, side1 CLBs) of node ``v`` in the given state."""
        w = self.weights[v]
        if rep is None:
            return (w, 0) if self.side[v] == 0 else (0, w)
        return (w, w)

    def _net_delta(
        self,
        v: int,
        new_side: int,
        new_rep: Optional[Tuple[int, int]],
    ) -> Dict[int, List[int]]:
        """Per-net pin deltas [d_side0, d_side1, d_split] of a state change."""
        deltas: Dict[int, List[int]] = {}
        for net, s, k in self.active_pins(v):
            d = deltas.setdefault(net, [0, 0, 0])
            d[s] -= k
        cur = self.rep[v]
        if cur is not None and cur[1] < 0:
            for net in self.hg.nodes[v].output_nets:
                deltas.setdefault(net, [0, 0, 0])[2] -= 1
        for net, s, k in self._state_pins(v, new_side, new_rep):
            d = deltas.setdefault(net, [0, 0, 0])
            d[s] += k
        if new_rep is not None and new_rep[1] < 0:
            for net in self.hg.nodes[v].output_nets:
                deltas.setdefault(net, [0, 0, 0])[2] += 1
        return deltas

    def move_gain(self, v: int, new_side: int, new_rep: Optional[Tuple[int, int]]) -> int:
        """Exact cut delta (positive = improvement) of a state change."""
        gain = 0
        for net, (d0, d1, dsplit) in self._net_delta(v, new_side, new_rep).items():
            c0, c1 = self.counts[net]
            before = self.split[net] == 0 and c0 > 0 and c1 > 0
            after = (
                self.split[net] + dsplit == 0
                and c0 + d0 > 0
                and c1 + d1 > 0
            )
            gain += int(before) - int(after)
        return gain

    def set_state(
        self, v: int, new_side: int, new_rep: Optional[Tuple[int, int]]
    ) -> List[int]:
        """Commit a state change; returns the affected net indices."""
        deltas = self._net_delta(v, new_side, new_rep)
        for net, (d0, d1, dsplit) in deltas.items():
            self.counts[net][0] += d0
            self.counts[net][1] += d1
            self.split[net] += dsplit
        old_w = self._state_weight(v, self.rep[v])
        self.side[v] = new_side
        self.rep[v] = new_rep
        new_w = self._state_weight(v, new_rep)
        self.sizes[0] += new_w[0] - old_w[0]
        self.sizes[1] += new_w[1] - old_w[1]
        return list(deltas)

    # ------------------------------------------------------------------
    # Candidate moves
    # ------------------------------------------------------------------
    def _balance_ok(self, v: int, new_rep: Optional[Tuple[int, int]], new_side: int) -> bool:
        old_w = self._state_weight(v, self.rep[v])
        w = self.weights[v]
        if new_rep is None:
            new_w = (w, 0) if new_side == 0 else (0, w)
        else:
            new_w = (w, w)
        s0 = self.sizes[0] + new_w[0] - old_w[0]
        s1 = self.sizes[1] + new_w[1] - old_w[1]
        if self.instance_cap is not None and s0 + s1 > self.instance_cap:
            return False
        if self.lo0 is not None:
            return self.lo0 <= s0 <= self.hi0 and s1 >= 0
        assert self.max_imbalance is not None
        if w == 0:
            return True
        return abs(s0 - s1) <= self.max_imbalance

    def candidate_moves(self, v: int) -> List[Tuple[int, int, Optional[Tuple[int, int]]]]:
        """Legal moves for node ``v`` as ``(gain, new_side, new_rep)``.

        Balance admissibility is *not* filtered here; the pass loop defers
        balance-blocked moves and retries them as sizes change, like the
        classic FM bucket scan.
        """
        node = self.hg.nodes[v]
        moves: List[Tuple[int, int, Optional[Tuple[int, int]]]] = []
        r = self.rep[v]
        if r is None:
            s = self.side[v]
            moves.append((self.move_gain(v, 1 - s, None), 1 - s, None))
            if node.is_cell and self.config.style != NONE and not self._moves_only:
                if self.potentials[v] >= self.config.threshold:
                    if self.config.style == FUNCTIONAL and node.n_outputs >= 2:
                        for o in range(node.n_outputs):
                            rep = (s, o)
                            moves.append((self.move_gain(v, s, rep), s, rep))
                    elif self.config.style == TRADITIONAL and (
                        node.n_outputs >= 2
                        or self.config.allow_single_output_traditional
                    ):
                        rep = (s, -1)
                        moves.append((self.move_gain(v, s, rep), s, rep))
        else:
            for t in (0, 1):
                moves.append((self.move_gain(v, t, None), t, None))
        return moves

    def best_move(self, v: int) -> Optional[Tuple[int, int, Optional[Tuple[int, int]]]]:
        moves = self.candidate_moves(v)
        if not moves:
            return None
        return max(moves, key=lambda m: m[0])

    # ------------------------------------------------------------------
    # Paper vector extraction (for the unified-cost-model tests)
    # ------------------------------------------------------------------
    def move_vectors(self, v: int) -> MoveVectors:
        """Extract (A, C^I, Q^I, C^O, Q^O) for a SINGLE cell node.

        Requires one pin per net per cell (the paper's setting); raises
        ``ValueError`` otherwise.
        """
        node = self.hg.nodes[v]
        if self.rep[v] is not None:
            raise ValueError("vectors are defined for unreplicated cells")
        seen: set = set()
        for net in list(node.input_nets) + list(node.output_nets):
            if net in seen:
                raise ValueError("cell touches a net with more than one pin")
            seen.add(net)
        s = self.side[v]

        def pin_vectors(nets: Iterable[int]) -> Tuple[List[int], List[int]]:
            c_vec: List[int] = []
            q_vec: List[int] = []
            for net in nets:
                cut = self.is_cut(net)
                c_vec.append(int(cut))
                if cut:
                    q_vec.append(int(self.counts[net][s] == 1))
                else:
                    q_vec.append(int(self.counts[net][s] > 1))
            return c_vec, q_vec

        ci, qi = pin_vectors(node.input_nets)
        co, qo = pin_vectors(node.output_nets)
        return MoveVectors(
            a=tuple(node.adjacency_vector(o) for o in range(node.n_outputs)),
            ci=tuple(ci),
            qi=tuple(qi),
            co=tuple(co),
            qo=tuple(qo),
        )

    # ------------------------------------------------------------------
    # Pass loop
    # ------------------------------------------------------------------
    def _push(self, heap: List, v: int) -> None:
        best = self.best_move(v)
        if best is None:
            return
        self.stamp[v] += 1
        self._push_counter += 1
        heapq.heappush(
            heap, (-best[0], self._push_counter, v, self.stamp[v], best[1], best[2])
        )

    def run_pass(self) -> int:
        """One FM pass with replication moves; returns the accepted gain."""
        for v in range(len(self.locked)):
            # Fixed nodes stay locked so neighbour refreshes cannot requeue them.
            self.locked[v] = v in self.fixed_set
        heap: List = []
        for v in self.movable:
            self._push(heap, v)

        undo: List[Tuple[int, int, Optional[Tuple[int, int]]]] = []
        deferred: List[Tuple] = []
        cumulative = 0
        best_gain = 0
        best_index = 0

        while heap:
            entry = heapq.heappop(heap)
            neg_gain, _, v, stamp, new_side, new_rep = entry
            if self.locked[v] or stamp != self.stamp[v]:
                continue
            if not self._balance_ok(v, new_rep, new_side):
                # Balance-blocked: park the entry; retried after each move.
                deferred.append(entry)
                continue
            # The stored gain may be stale; verify and refresh if needed.
            gain = self.move_gain(v, new_side, new_rep)
            if gain != -neg_gain:
                self._push(heap, v)
                continue

            undo.append((v, self.side[v], self.rep[v]))
            changed = self.set_state(v, new_side, new_rep)
            self.locked[v] = True
            cumulative += gain
            if cumulative > best_gain:
                best_gain = cumulative
                best_index = len(undo)

            budget = self.config.budget
            if (
                budget is not None
                and len(undo) % _BUDGET_POLL_MOVES == 0
                and budget.expired
            ):
                break  # rollback below still lands on the best prefix

            for parked in deferred:
                pv = parked[2]
                if not self.locked[pv] and parked[3] == self.stamp[pv]:
                    heapq.heappush(heap, parked)
            deferred.clear()

            for net in changed:
                c0, c1 = self.counts[net]
                if min(c0, c1) > self.net_maxk[net] * 2 + 1:
                    continue
                for other in self.net_nodes[net]:
                    if other != v and not self.locked[other]:
                        self._push(heap, other)

        for v, old_side, old_rep in reversed(undo[best_index:]):
            self.set_state(v, old_side, old_rep)
        return best_gain

    def run(self) -> ReplicationResult:
        budget = self.config.budget
        initial_cut = self.cut_size()
        pass_gains: List[int] = []
        replication_on = self.config.style != NONE
        if replication_on and self.config.warm_start_moves_only:
            self._moves_only = True
            for _ in range(self.config.max_passes):
                if budget is not None and budget.expired:
                    break
                gain = self.run_pass()
                pass_gains.append(gain)
                if gain <= 0:
                    break
            self._moves_only = False
        for _ in range(self.config.max_passes):
            if budget is not None and budget.expired:
                break
            gain = self.run_pass()
            pass_gains.append(gain)
            if gain <= 0:
                break
        return ReplicationResult(
            sides=list(self.side),
            replicas=self.replicas(),
            cut_size=self.cut_size(),
            initial_cut=initial_cut,
            passes=len(pass_gains),
            pass_gains=pass_gains,
            n_cells=self.hg.n_cells,
        )


def reference_replication_bipartition(
    hg: Hypergraph,
    config: Optional[ReplicationConfig] = None,
    initial: Optional[Sequence[int]] = None,
) -> ReplicationResult:
    """Reference replication-aware FM run (pre-optimization behavior)."""
    return ReferenceReplicationEngine(hg, config, initial).run()


# ---------------------------------------------------------------------------
# Object-graph multilevel V-cycle
# ---------------------------------------------------------------------------


def _affinity_matching(
    hg: Hypergraph, rng: random.Random
) -> List[List[int]]:
    """Greedy heavy-connectivity matching; returns the coarse groups."""
    scores: List[Dict[int, float]] = [dict() for _ in hg.nodes]
    for net in hg.nets:
        members = [
            idx for idx in net.node_indices() if hg.nodes[idx].is_cell
        ]
        if len(members) < 2 or len(members) > _MAX_SCORING_DEGREE:
            continue
        w = 1.0 / (len(members) - 1)
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                scores[u][v] = scores[u].get(v, 0.0) + w
                scores[v][u] = scores[v].get(u, 0.0) + w

    order = [n.index for n in hg.nodes if n.is_cell]
    rng.shuffle(order)
    matched = [False] * len(hg.nodes)
    groups: List[List[int]] = []
    for u in order:
        if matched[u]:
            continue
        best_v = -1
        best_score = 0.0
        u_weight = hg.nodes[u].weight
        for v, score in scores[u].items():
            if matched[v]:
                continue
            # Prefer light partners: keeps coarse weights balanced.
            adj = score / (1.0 + 0.1 * (hg.nodes[v].weight + u_weight))
            if adj > best_score:
                best_score = adj
                best_v = v
        matched[u] = True
        if best_v >= 0:
            matched[best_v] = True
            groups.append([u, best_v])
        else:
            groups.append([u])
    return groups


def coarsen_once(
    hg: Hypergraph, rng: random.Random
) -> Tuple[Hypergraph, List[List[int]]]:
    """One coarsening level: returns (coarse hypergraph, coarse -> fine map).

    Terminals map one-to-one; only cells merge.  Nets internal to a group
    vanish; surviving nets keep one pin per (coarse node, direction).
    """
    groups = _affinity_matching(hg, rng)
    coarse = Hypergraph(f"{hg.name}|coarse")
    fine_to_coarse: Dict[int, int] = {}
    mapping: List[List[int]] = []

    for group in groups:
        node = coarse.add_node(f"g{len(mapping)}", NodeKind.CELL)
        node.weight = sum(hg.nodes[f].weight for f in group)
        for fine in group:
            fine_to_coarse[fine] = node.index
        mapping.append(list(group))
    for fine_node in hg.nodes:
        if fine_node.is_cell:
            continue
        node = coarse.add_node(fine_node.name, fine_node.kind)
        fine_to_coarse[fine_node.index] = node.index
        mapping.append([fine_node.index])

    for net in hg.nets:
        drivers: List[int] = []
        sinks: List[int] = []
        for node_idx, direction, _ in net.pins:
            cidx = fine_to_coarse[node_idx]
            if direction == PIN_OUT:
                drivers.append(cidx)
            else:
                sinks.append(cidx)
        coarse_nodes = set(drivers) | set(sinks)
        if len(coarse_nodes) < 2:
            continue  # internal (or dead) net: vanishes at this level
        cnet = coarse.add_net(net.name)
        seen_out = set()
        seen_in = set()
        for cidx in drivers:
            if cidx not in seen_out:
                seen_out.add(cidx)
                coarse.connect_output(coarse.nodes[cidx], cnet)
        for cidx in sinks:
            if cidx in seen_in or cidx in seen_out:
                continue
            seen_in.add(cidx)
            coarse.connect_input(coarse.nodes[cidx], cnet)
    # Coarse super-cells carry no functional structure; give every output a
    # full support so the structure stays check()-clean.
    for node in coarse.nodes:
        if node.is_cell:
            node.supports = [
                tuple(range(node.n_inputs)) for _ in node.output_nets
            ]
            if not node.output_nets:
                # A group may drive only internal nets; add a dead stub so
                # the node remains a legal cell.
                stub = coarse.add_net(f"__stub:{node.name}")
                coarse.connect_output(node, stub)
                node.supports = [tuple(range(node.n_inputs))]
    return coarse, mapping


def _legacy_multilevel_bipartition(
    hg: Hypergraph,
    config: Optional[MultilevelConfig] = None,
) -> MultilevelResult:
    """The original object-graph V-cycle, kept as the parity reference."""
    config = config or MultilevelConfig()
    rng = random.Random(config.seed)

    levels: List[Tuple[Hypergraph, List[List[int]]]] = []
    current = hg
    for _ in range(config.max_levels):
        if current.n_cells <= config.min_nodes:
            break
        coarse, mapping = coarsen_once(current, rng)
        if coarse.n_cells >= current.n_cells * config.coarsening_stall_ratio:
            break
        levels.append((coarse, mapping))
        current = coarse

    # Initial solution at the coarsest level.
    result = fm_bipartition(
        current,
        FMConfig(
            seed=rng.randrange(1 << 30),
            balance_tolerance=config.balance_tolerance,
            max_passes=config.max_passes,
        ),
    )
    assignment = result.assignment

    # Uncoarsen with per-level FM refinement.
    for coarse, mapping in reversed(levels):
        fine_hg = _fine_of(levels, coarse, hg)
        fine_assignment = [0] * len(fine_hg.nodes)
        for cidx, fines in enumerate(mapping):
            for fidx in fines:
                fine_assignment[fidx] = assignment[cidx]
        refined = fm_bipartition(
            fine_hg,
            FMConfig(
                seed=rng.randrange(1 << 30),
                balance_tolerance=config.balance_tolerance,
                max_passes=config.max_passes,
            ),
            initial=fine_assignment,
        )
        assignment = refined.assignment

    final = fm_bipartition(
        hg,
        FMConfig(
            seed=rng.randrange(1 << 30),
            balance_tolerance=config.balance_tolerance,
            max_passes=config.max_passes,
        ),
        initial=assignment,
    )
    assignment = final.assignment
    replication: Optional[ReplicationResult] = None
    if config.replication_refine:
        engine = ReplicationEngine(
            hg,
            ReplicationConfig(
                seed=rng.randrange(1 << 30),
                threshold=config.threshold,
                style=FUNCTIONAL,
                balance_tolerance=config.balance_tolerance,
                max_passes=config.max_passes,
                warm_start_moves_only=False,
            ),
            initial=assignment,
        )
        replication = engine.run()

    return MultilevelResult(
        assignment=assignment,
        cut_size=final.cut_size,
        levels=len(levels) + 1,
        replication=replication,
    )


def _fine_of(
    levels: List[Tuple[Hypergraph, List[List[int]]]],
    coarse: Hypergraph,
    original: Hypergraph,
) -> Hypergraph:
    """The hypergraph one level finer than ``coarse``."""
    for i, (level_hg, _) in enumerate(levels):
        if level_hg is coarse:
            return levels[i - 1][0] if i > 0 else original
    raise ValueError("level not found")
