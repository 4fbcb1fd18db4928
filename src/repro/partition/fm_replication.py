"""FM bipartitioning extended with replication moves (paper Section III.D).

The engine manages three node states:

* **SINGLE** -- one instance on one side (every node starts here);
* **functionally REPLICATED** -- two instances: the *original* keeps all
  outputs except one and the inputs supporting them, the *replica* on the
  far side drives the remaining output with exactly the inputs in its
  support (adjacency vector).  Shared inputs are pinned on both sides,
  exclusive inputs move with their output -- the paper's Figures 1/2/4;
* **traditionally REPLICATED** (ablation mode) -- the replica is a full
  copy; every output net is then served locally on both sides ("split"),
  which removes it from the cut unconditionally, while every input net is
  pinned on both sides.  This reproduces reference [13]'s behaviour and
  eq. (8).

The move repertoire per pass is: move a SINGLE node; replicate a SINGLE
multi-output cell whose replication potential satisfies ``psi >= T``
(choosing the output with the best gain, eq. 11); or un-replicate a
REPLICATED cell to either side (whose gain, as the paper notes, equals the
gain of moving one instance onto the other).  All gains are exact cut
deltas computed from per-net pin counts; ``tests/test_gain_model.py``
property-checks them against the closed-form expressions of
:mod:`repro.replication.gains`.

A pass stops as soon as its best prefix is decided: a net with locked
pins on both sides stays cut until the rollback, so once the pass-start
cut minus the number of such nets is no more than the best gain so far,
no later move can change the pass's outcome.  The stop is exact -- the
same moves, best prefix, rollback and pass gain as a full pass -- and
only the committed-move counters fall (see ``_run_pass_body``).
"""

from __future__ import annotations

import heapq
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.hypergraph.hypergraph import Hypergraph
from repro.obs.metrics import get_registry
from repro.replication.gains import MoveVectors
from repro.replication.potential import node_potential
from repro.robust import faults
from repro.robust.budget import Budget
from repro.robust.errors import ConfigError

#: Replication styles accepted by :class:`ReplicationConfig`.
FUNCTIONAL = "functional"
TRADITIONAL = "traditional"
NONE = "none"

#: How many committed moves between budget polls inside a pass.
_BUDGET_POLL_MOVES = 128

#: Upper bounds for the ``repl.pass_seconds`` histogram.
_PASS_SECONDS_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0)

# Move kinds, as slot bases into ``ReplicationTables.move_class[v]``: slot
# ``kind + side`` holds the class of a single move from ``side``, of a
# replication that keeps the original on ``side``, or of an
# un-replication onto ``side``.
_SINGLE = 0
_REPLICATE = 2
_UNREPLICATE = 4


def _lock_pins(lmask: List[int], pins: Iterable[Tuple[int, int, int]]) -> int:
    """Set bit ``1 << side`` in ``lmask[net]`` for each ``(net, side, count)``
    pin of a locked instance; returns how many nets now read 3."""
    newly_dead = 0
    for net, s, _ in pins:
        m = lmask[net]
        bit = 1 << s
        if not m & bit:
            lmask[net] = m | bit
            if m | bit == 3:
                newly_dead += 1
    return newly_dead


@dataclass
class ReplicationConfig:
    """Knobs for one replication-aware FM run.

    ``threshold`` is the paper's T: only cells with replication potential
    ``psi >= T`` may replicate (``float('inf')`` disables replication,
    ``0`` allows every multi-output cell).  ``style`` selects functional
    (the paper's contribution), traditional (reference [13], ablation) or
    none (plain FM semantics).
    """

    seed: int = 0
    threshold: Union[int, float] = 0
    style: str = FUNCTIONAL
    balance_tolerance: float = 0.02
    max_passes: int = 16
    side0_bounds: Optional[Tuple[int, int]] = None
    fixed: Dict[int, int] = field(default_factory=dict)
    allow_single_output_traditional: bool = True
    #: Optional cap on circuit growth: replication moves are inadmissible
    #: once total instances exceed ``(1 + max_growth) * total CLBs``.  None
    #: reproduces the paper's "we do not limit the replications explicitly";
    #: a cap makes style comparisons area-fair (traditional replication's
    #: split semantics can otherwise zero the cut by duplicating everything).
    max_growth: Optional[float] = None
    #: Run move-only FM passes to convergence before enabling replication
    #: moves.  Replication refines a good min-cut partition; from a random
    #: start its high-gain replications lock cells prematurely and strand
    #: the partition in poor local optima.
    warm_start_moves_only: bool = True
    #: Optional wall-clock budget; when it expires the engine stops
    #: refining at the next checkpoint and returns its best state so far.
    budget: Optional[Budget] = None

    def __post_init__(self) -> None:
        if self.style not in (FUNCTIONAL, TRADITIONAL, NONE):
            raise ConfigError(f"unknown replication style {self.style!r}")
        if self.max_growth is not None and self.max_growth < 0:
            raise ConfigError(f"max_growth {self.max_growth!r} is negative")


@dataclass
class ReplicationResult:
    """Outcome of one replication-aware FM run."""

    sides: List[int]
    replicas: Dict[int, Tuple[int, int]]  # node -> (original side, far output)
    cut_size: int
    initial_cut: int
    passes: int
    pass_gains: List[int]
    n_cells: int

    @property
    def n_replicated(self) -> int:
        return len(self.replicas)

    @property
    def replicated_fraction(self) -> float:
        return self.n_replicated / self.n_cells if self.n_cells else 0.0

    def instance_sizes(self) -> Tuple[int, int]:
        """CLB instances per side (replicated cells count on both)."""
        sizes = [0, 0]
        for node, side in enumerate(self.sides):
            if node in self.replicas:
                sizes[0] += 1
                sizes[1] += 1
            else:
                sizes[side] += 1
        return sizes[0], sizes[1]


class ReplicationTables:
    """Static per-node pin tables of one hypergraph, engine-independent.

    Building these is O(total pins) and was profiled as a significant
    fraction of short runs when done per :class:`ReplicationEngine`; the
    multi-start drivers and the k-way carver build one instance per
    hypergraph and hand it to every candidate engine.  All fields are
    read-only to the engines.

    * ``all_pins[v]``: ``list[(net, count)]`` of the full cell;
    * ``orig_pins[v][o]`` / ``repl_pins[v][o]``: the two instances' pin
      tables when output ``o`` is taken by the replica (functional style);
    * ``potentials[v]``: the paper's replication potential psi;
    * ``net_nodes`` / ``net_maxk``: net incidence and critical-window
      bounds for the refresh scans;
    * ``move_classes`` / ``move_class[v]``: the admissibility classes of
      the pass loop's move queues, and each node's class ids by move kind
      and side.
    """

    __slots__ = (
        "hg",
        "all_pins",
        "orig_pins",
        "repl_pins",
        "merged_pins",
        "trad_pins",
        "potentials",
        "net_nodes",
        "net_node_counts",
        "net_maxk",
        "weights",
        "is_cell",
        "n_outputs",
        "output_nets",
        "move_classes",
        "move_class",
    )

    def __init__(self, hg: Hypergraph) -> None:
        self.hg = hg
        n_nets = len(hg.nets)
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

        # Merged per-(cell, output) pin views for the specialized
        # replication gain paths: every net of the cell with its full,
        # original-instance and replica-instance pin counts, in all_pins
        # order.  (Original and replica nets are always subsets of the
        # cell's nets, so one flat list covers both instances.)
        self.merged_pins: List[List[List[Tuple[int, int, int, int]]]] = []
        # Traditional-style view per cell: (net, full count, split delta),
        # the split delta counting the cell's output pins on that net.
        self.trad_pins: List[List[Tuple[int, int, int]]] = []
        for v, node in enumerate(hg.nodes):
            merged: List[List[Tuple[int, int, int, int]]] = []
            for o in range(len(self.orig_pins[v])):
                od = dict(self.orig_pins[v][o])
                rd = dict(self.repl_pins[v][o])
                merged.append(
                    [
                        (net, k, od.get(net, 0), rd.get(net, 0))
                        for net, k in self.all_pins[v]
                    ]
                )
            self.merged_pins.append(merged)
            if node.is_cell:
                out_count: Dict[int, int] = {}
                for net in node.output_nets:
                    out_count[net] = out_count.get(net, 0) + 1
                self.trad_pins.append(
                    [
                        (net, k, out_count.get(net, 0))
                        for net, k in self.all_pins[v]
                    ]
                )
            else:
                self.trad_pins.append([])

        self.net_nodes: List[List[int]] = [[] for _ in range(n_nets)]
        self.net_node_counts: List[List[int]] = [[] for _ in range(n_nets)]
        self.net_maxk: List[int] = [0] * n_nets
        for v, pairs in enumerate(self.all_pins):
            for net, k in pairs:
                self.net_nodes[net].append(v)
                self.net_node_counts[net].append(k)
                if k > self.net_maxk[net]:
                    self.net_maxk[net] = k

        self.weights = [node.clb_weight for node in hg.nodes]
        self.is_cell = [node.is_cell for node in hg.nodes]
        self.n_outputs = [node.n_outputs for node in hg.nodes]
        self.output_nets = [list(node.output_nets) for node in hg.nodes]

        # A move's admissibility class is its (side-0 CLB delta, side-1
        # CLB delta, growth-checked) triple; nodes of equal weight share
        # one row of class ids.
        self.move_classes: List[Tuple[int, int, bool]] = []
        class_ids: Dict[Tuple[int, int, bool], int] = {}
        rows: Dict[int, Tuple[int, ...]] = {}
        self.move_class: List[Tuple[int, ...]] = []
        for w in self.weights:
            row = rows.get(w)
            if row is None:
                ids: List[int] = []
                for key in (
                    (-w, w, False),
                    (w, -w, False),
                    (0, w, True),
                    (w, 0, True),
                    (0, -w, True),
                    (-w, 0, True),
                ):
                    if key not in class_ids:
                        class_ids[key] = len(self.move_classes)
                        self.move_classes.append(key)
                    ids.append(class_ids[key])
                row = rows[w] = tuple(ids)
            self.move_class.append(row)


class ReplicationEngine:
    """The mutable partition state and move machinery.

    Exposed as a class (rather than only the :func:`replication_bipartition`
    driver) so tests and the k-way carver can drive and inspect it directly.
    Pass a pre-built :class:`ReplicationTables` when running many engines
    on one hypergraph to pay the static-table cost once.
    """

    def __init__(
        self,
        hg: Hypergraph,
        config: Optional[ReplicationConfig] = None,
        initial: Optional[Sequence[int]] = None,
        tables: Optional[ReplicationTables] = None,
    ) -> None:
        self.hg = hg
        self.config = config or ReplicationConfig()
        self.rng = random.Random(self.config.seed)
        n_nodes = len(hg.nodes)
        n_nets = len(hg.nets)

        if tables is None:
            tables = ReplicationTables(hg)
        elif tables.hg is not hg:
            raise ValueError("tables were built for a different hypergraph")
        self.tables = tables
        self.all_pins = tables.all_pins
        self.orig_pins = tables.orig_pins
        self.repl_pins = tables.repl_pins
        self.potentials = tables.potentials
        self.net_nodes = tables.net_nodes
        self.net_node_counts = tables.net_node_counts
        self.merged_pins = tables.merged_pins
        self.trad_pins = tables.trad_pins
        self.net_maxk = tables.net_maxk

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

        self.weights = tables.weights  # shared read-only
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

        # Observability tallies: committed moves by kind, sgain-maintenance
        # work.  Accumulated unconditionally (cheap: one add per commit /
        # recompute), read at run boundaries by :meth:`run`.
        self.n_single_moves = 0
        self.n_replicates = 0
        self.n_unreplicates = 0
        self.n_sgain_updates = 0
        self.n_sgain_recomputes = 0

        # Maintained single-move gains: while a pass runs, ``sgain[v]`` is
        # the exact cut gain of moving an *unreplicated, unlocked* node v
        # to the far side, kept fresh by delta updates in set_state.
        # Outside a pass the array is stale and ``_maintain_sgain`` is
        # False, so the public query paths recompute from scratch.
        self.sgain = [0] * n_nodes
        self._maintain_sgain = False

        # _repl_arity[v]: replication candidate shape for SINGLE cells --
        # n_outputs > 0 (functional: one candidate per output), -1
        # (traditional: one full-copy candidate), 0 (ineligible).  The
        # warm-start move-only phase still gates candidates at push time.
        cfg = self.config
        self._repl_arity = [0] * n_nodes
        if cfg.style != NONE:
            for v in range(n_nodes):
                if tables.is_cell[v] and tables.potentials[v] >= cfg.threshold:
                    n_out = tables.n_outputs[v]
                    if cfg.style == FUNCTIONAL and n_out >= 2:
                        self._repl_arity[v] = n_out
                    elif cfg.style == TRADITIONAL and (
                        n_out >= 2 or cfg.allow_single_output_traditional
                    ):
                        self._repl_arity[v] = -1
        # The output nets of the traditional candidates: the only nets a
        # replication-phase pass can split or un-split, so the pass
        # loop's stop never counts them as dead.
        self._splittable_nets = {
            net
            for v, arity in enumerate(self._repl_arity)
            if arity < 0
            for net in tables.output_nets[v]
        }

        # Scratch arrays for delta accumulation (replacing per-call dicts
        # on the gain/commit hot path): per-net side-0/side-1/split deltas
        # plus a token-marked first-touch list.  Zeroed again after use.
        self._d0 = [0] * n_nets
        self._d1 = [0] * n_nets
        self._dsplit = [0] * n_nets
        self._mark = [0] * n_nets
        self._mark_token = 0

        # Incrementally maintained cut size (see set_state).
        self._cut = sum(
            1
            for net in range(n_nets)
            if self.split[net] == 0
            and self.counts[net][0] > 0
            and self.counts[net][1] > 0
        )

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
        """Current cut size, maintained incrementally by :meth:`set_state`."""
        return self._cut

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
    def _state_weight(self, v: int, rep: Optional[Tuple[int, int]]) -> Tuple[int, int]:
        """(side0 CLBs, side1 CLBs) of node ``v`` in the given state."""
        w = self.weights[v]
        if rep is None:
            return (w, 0) if self.side[v] == 0 else (0, w)
        return (w, w)

    def _fill_deltas(
        self, v: int, new_side: int, new_rep: Optional[Tuple[int, int]]
    ) -> List[int]:
        """Accumulate the state change's per-net deltas into the scratch
        arrays ``_d0``/``_d1``/``_dsplit``; returns the touched nets in
        first-touch order (current state's pins, then the new state's),
        which the pass loop's refresh scan depends on.  The caller must
        zero the scratch entries of every returned net when done.
        """
        d0, d1, ds = self._d0, self._d1, self._dsplit
        mark = self._mark
        token = self._mark_token = self._mark_token + 1
        touched: List[int] = []
        append = touched.append

        # Remove the current state's pins.
        r = self.rep[v]
        if r is None:
            s = self.side[v]
            dfrom = d0 if s == 0 else d1
            for net, k in self.all_pins[v]:
                if mark[net] != token:
                    mark[net] = token
                    append(net)
                dfrom[net] -= k
        else:
            s, o = r
            if o < 0:  # traditional: full copies on both sides + splits
                for net, k in self.all_pins[v]:
                    if mark[net] != token:
                        mark[net] = token
                        append(net)
                    d0[net] -= k
                    d1[net] -= k
                for net in self.tables.output_nets[v]:
                    if mark[net] != token:
                        mark[net] = token
                        append(net)
                    ds[net] -= 1
            else:
                dorig = d0 if s == 0 else d1
                drepl = d1 if s == 0 else d0
                for net, k in self.orig_pins[v][o]:
                    if mark[net] != token:
                        mark[net] = token
                        append(net)
                    dorig[net] -= k
                for net, k in self.repl_pins[v][o]:
                    if mark[net] != token:
                        mark[net] = token
                        append(net)
                    drepl[net] -= k

        # Add the new state's pins.
        if new_rep is None:
            dto = d0 if new_side == 0 else d1
            for net, k in self.all_pins[v]:
                if mark[net] != token:
                    mark[net] = token
                    append(net)
                dto[net] += k
        else:
            s, o = new_rep
            if o < 0:
                for net, k in self.all_pins[v]:
                    if mark[net] != token:
                        mark[net] = token
                        append(net)
                    d0[net] += k
                    d1[net] += k
                for net in self.tables.output_nets[v]:
                    if mark[net] != token:
                        mark[net] = token
                        append(net)
                    ds[net] += 1
            else:
                dorig = d0 if s == 0 else d1
                drepl = d1 if s == 0 else d0
                for net, k in self.orig_pins[v][o]:
                    if mark[net] != token:
                        mark[net] = token
                        append(net)
                    dorig[net] += k
                for net, k in self.repl_pins[v][o]:
                    if mark[net] != token:
                        mark[net] = token
                        append(net)
                    drepl[net] += k
        return touched

    def move_gain(self, v: int, new_side: int, new_rep: Optional[Tuple[int, int]]) -> int:
        """Exact cut delta (positive = improvement) of a state change.

        Each (current state, target state) combination has a specialized
        flat loop over a precomputed pin view; state changes outside the
        move repertoire (replicated -> replicated) fall back to the
        generic scratch-array delta accumulation.
        """
        counts, split = self.counts, self.split
        r = self.rep[v]
        if r is None:
            s = self.side[v]
            if new_rep is None:
                # Plain single-node move: deltas are +/-k on the two
                # sides of each of the node's nets.
                gain = 0
                for net, k in self.all_pins[v]:
                    if split[net]:
                        continue  # split nets stay uncut under any move
                    c = counts[net]
                    c0 = c[0]
                    c1 = c[1]
                    if s == 0:
                        a0 = c0 - k
                        a1 = c1 + k
                    else:
                        a0 = c0 + k
                        a1 = c1 - k
                    if c0 > 0 and c1 > 0:
                        gain += 1
                    if a0 > 0 and a1 > 0:
                        gain -= 1
                return gain
            rs, o = new_rep
            if o >= 0:
                # Functional replicate: the original keeps side ``rs``
                # with its reduced pins, the replica lands opposite.
                gain = 0
                for net, ka, ko, kr in self.merged_pins[v][o]:
                    if split[net]:
                        continue
                    c = counts[net]
                    c0 = c[0]
                    c1 = c[1]
                    if s == 0:
                        a0 = c0 - ka
                        a1 = c1
                    else:
                        a0 = c0
                        a1 = c1 - ka
                    if rs == 0:
                        a0 += ko
                        a1 += kr
                    else:
                        a0 += kr
                        a1 += ko
                    if c0 > 0 and c1 > 0:
                        gain += 1
                    if a0 > 0 and a1 > 0:
                        gain -= 1
                return gain
            # Traditional replicate: a full copy appears on the far side
            # and every output net becomes split (uncut by definition).
            gain = 0
            for net, ka, dsp in self.trad_pins[v]:
                c = counts[net]
                c0 = c[0]
                c1 = c[1]
                sp = split[net]
                if s == 0:
                    a0 = c0
                    a1 = c1 + ka
                else:
                    a0 = c0 + ka
                    a1 = c1
                if sp == 0 and c0 > 0 and c1 > 0:
                    gain += 1
                if sp + dsp == 0 and a0 > 0 and a1 > 0:
                    gain -= 1
            return gain
        if new_rep is None:
            s, o = r
            t = new_side
            if o >= 0:
                # Functional un-replicate: collapse both instances into
                # one full copy on side ``t``.
                gain = 0
                for net, ka, ko, kr in self.merged_pins[v][o]:
                    if split[net]:
                        continue
                    c = counts[net]
                    c0 = c[0]
                    c1 = c[1]
                    if s == 0:
                        a0 = c0 - ko
                        a1 = c1 - kr
                    else:
                        a0 = c0 - kr
                        a1 = c1 - ko
                    if t == 0:
                        a0 += ka
                    else:
                        a1 += ka
                    if c0 > 0 and c1 > 0:
                        gain += 1
                    if a0 > 0 and a1 > 0:
                        gain -= 1
                return gain
            # Traditional un-replicate: drop the copy opposite ``t`` and
            # un-split the output nets.
            gain = 0
            for net, ka, dsp in self.trad_pins[v]:
                c = counts[net]
                c0 = c[0]
                c1 = c[1]
                sp = split[net]
                if t == 0:
                    a0 = c0
                    a1 = c1 - ka
                else:
                    a0 = c0 - ka
                    a1 = c1
                if sp == 0 and c0 > 0 and c1 > 0:
                    gain += 1
                if sp - dsp == 0 and a0 > 0 and a1 > 0:
                    gain -= 1
            return gain
        d0, d1, ds = self._d0, self._d1, self._dsplit
        touched = self._fill_deltas(v, new_side, new_rep)
        gain = 0
        for net in touched:
            c = counts[net]
            c0 = c[0]
            c1 = c[1]
            sp = split[net]
            if sp == 0 and c0 > 0 and c1 > 0:
                gain += 1
            if sp + ds[net] == 0 and c0 + d0[net] > 0 and c1 + d1[net] > 0:
                gain -= 1
            d0[net] = 0
            d1[net] = 0
            ds[net] = 0
        return gain

    def set_state(
        self, v: int, new_side: int, new_rep: Optional[Tuple[int, int]]
    ) -> List[int]:
        """Commit a state change; returns the affected net indices."""
        counts, split = self.counts, self.split
        d0, d1, ds = self._d0, self._d1, self._dsplit
        touched = self._fill_deltas(v, new_side, new_rep)
        cut = self._cut
        maintain = self._maintain_sgain
        if maintain:
            sgain, side, rep, locked = self.sgain, self.side, self.rep, self.locked
            net_nodes, net_counts = self.net_nodes, self.net_node_counts
            net_maxk = self.net_maxk
        nupd = 0
        for net in touched:
            c = counts[net]
            sp = split[net]
            b0 = c[0]
            b1 = c[1]
            bc = sp == 0 and b0 > 0 and b1 > 0
            if bc:
                cut -= 1
            a0 = b0 + d0[net]
            a1 = b1 + d1[net]
            nsp = sp + ds[net]
            c[0] = a0
            c[1] = a1
            split[net] = nsp
            ac = nsp == 0 and a0 > 0 and a1 > 0
            if ac:
                cut += 1
            d0[net] = 0
            d1[net] = 0
            ds[net] = 0
            if maintain:
                # A member's single-move gain contribution from this net is
                #   [net is cut] - [sp == 0 and c_(member side) > k_member]
                # (moving it leaves k on the far side, so the far side stays
                # populated).  Both predicates are unchanged when the split
                # flag did not flip and both side counts stay above the
                # net's max per-node pin count before *and* after -- the
                # exact critical window, so the skip loses nothing.
                w = net_maxk[net]
                if (
                    nsp != sp
                    or b0 <= w
                    or b1 <= w
                    or a0 <= w
                    or a1 <= w
                ):
                    for u, k_u in zip(net_nodes[net], net_counts[net]):
                        if u == v or locked[u] or rep[u] is not None:
                            continue
                        if side[u] == 0:
                            bs = b0
                            as_ = a0
                        else:
                            bs = b1
                            as_ = a1
                        cb = (1 if bc else 0) - (
                            1 if (sp == 0 and bs > k_u) else 0
                        )
                        ca = (1 if ac else 0) - (
                            1 if (nsp == 0 and as_ > k_u) else 0
                        )
                        if ca != cb:
                            sgain[u] += ca - cb
                            nupd += 1
        self._cut = cut
        self.n_sgain_updates += nupd
        old_w = self._state_weight(v, self.rep[v])
        self.side[v] = new_side
        self.rep[v] = new_rep
        new_w = self._state_weight(v, new_rep)
        self.sizes[0] += new_w[0] - old_w[0]
        self.sizes[1] += new_w[1] - old_w[1]
        return touched

    # ------------------------------------------------------------------
    # Candidate moves
    # ------------------------------------------------------------------
    def _admissible_classes(self) -> List[int]:
        """Ids of the move classes the current sizes admit.

        A class's size deltas decide the side balance check and, for
        replications and un-replications, the growth cap.  A single move
        keeps the instance total, so the cap is never checked for it.
        """
        size0, size1 = self.sizes
        cap, lo0, hi0 = self.instance_cap, self.lo0, self.hi0
        max_imb = self.max_imbalance
        admitted: List[int] = []
        for c, (d0, d1, grows) in enumerate(self.tables.move_classes):
            s0 = size0 + d0
            s1 = size1 + d1
            if grows and cap is not None and s0 + s1 > cap:
                continue
            if lo0 is not None:
                ok = lo0 <= s0 <= hi0 and s1 >= 0
            else:
                assert max_imb is not None
                ok = (d0 == 0 and d1 == 0) or abs(s0 - s1) <= max_imb
            if ok:
                admitted.append(c)
        return admitted

    def candidate_moves(self, v: int) -> List[Tuple[int, int, Optional[Tuple[int, int]]]]:
        """Legal moves for node ``v`` as ``(gain, new_side, new_rep)``.

        Balance admissibility is *not* filtered here; the pass loop queues
        moves by admissibility class and only selects from the classes
        the current sizes admit, like the classic FM bucket scan.
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

    def _recompute_sgains(self) -> None:
        """Re-derive ``sgain`` for every movable unreplicated node.

        Same arithmetic as :meth:`move_gain`'s single-move fast path; run
        at pass start, after which :meth:`set_state` keeps the values
        exact for unlocked nodes by delta updates.
        """
        counts, split = self.counts, self.split
        side, rep = self.side, self.rep
        sgain, all_pins = self.sgain, self.all_pins
        for v in self.movable:
            if rep[v] is not None:
                continue
            s = side[v]
            g = 0
            for net, k in all_pins[v]:
                if split[net]:
                    continue
                c = counts[net]
                c0 = c[0]
                c1 = c[1]
                if s == 0:
                    a0 = c0 - k
                    a1 = c1 + k
                else:
                    a0 = c0 + k
                    a1 = c1 - k
                if c0 > 0 and c1 > 0:
                    g += 1
                if a0 > 0 and a1 > 0:
                    g -= 1
            sgain[v] = g
        self.n_sgain_recomputes += 1

    def best_move(self, v: int) -> Tuple[int, int, Optional[Tuple[int, int]]]:
        """Highest-gain legal move of ``v``; ties resolve in candidate order
        (single move, then replications by output, then un-replicate to
        side 0 before side 1 -- ``max()``'s first-wins semantics over
        :meth:`candidate_moves`, without building the list)."""
        r = self.rep[v]
        if r is not None:
            g0 = self.move_gain(v, 0, None)
            g1 = self.move_gain(v, 1, None)
            if g0 >= g1:
                return (g0, 0, None)
            return (g1, 1, None)
        s = self.side[v]
        if self._maintain_sgain:
            best_gain = self.sgain[v]
        else:
            best_gain = self.move_gain(v, 1 - s, None)
        best: Tuple[int, int, Optional[Tuple[int, int]]] = (best_gain, 1 - s, None)
        arity = 0 if self._moves_only else self._repl_arity[v]
        if arity > 0:
            for o in range(arity):
                rep = (s, o)
                g = self.move_gain(v, s, rep)
                if g > best_gain:
                    best_gain = g
                    best = (g, s, rep)
        elif arity < 0:
            rep = (s, -1)
            g = self.move_gain(v, s, rep)
            if g > best_gain:
                best = (g, s, rep)
        return best

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
    def run_pass(self) -> int:
        """One FM pass with replication moves; returns the accepted gain."""
        for v in range(len(self.locked)):
            # Fixed nodes stay locked so neighbour refreshes cannot requeue them.
            self.locked[v] = v in self.fixed_set
        self._recompute_sgains()
        self._maintain_sgain = True
        try:
            return self._run_pass_body()
        finally:
            self._maintain_sgain = False

    def _run_pass_body(self) -> int:
        """Select, commit and roll back the moves of one pass.

        Every unlocked node keeps one live best move, queued by its
        admissibility class (``ReplicationTables.move_classes``) on
        ``(-gain, push counter)`` with stamp-based lazy invalidation.
        Balance and growth depend only on a move's class and the current
        sizes, so the best live top among the admitted classes is exactly
        the first admissible entry in ``(-gain, push counter)`` order over
        all queued moves.  A commit pushes each unlocked neighbour on a
        window net once, in the order of its last occurrence in the
        (net, member) scan.  A single-move commit is one walk over the
        mover's nets: counts, ``sgain`` deltas and the refresh nets.  Its
        rollback touches counts, sides and sizes only.  The cut is not
        tracked move by move: the pass ends by setting it to the
        pass-start cut minus the best gain, where the rollback lands.

        The pass stops once its best prefix is decided.  ``lmask[net]``
        holds bit ``1 << side`` for each side with a locked pin on the
        net (fixed nodes from the start, each mover's new state after its
        commit), and ``dead`` counts the nets whose mask reads 3.  A
        locked node keeps its state until the rollback, so a dead net
        stays cut and no later prefix gains more than ``start_cut -
        dead``; once that is at most ``best_gain``, which moves only on a
        strict improvement, the rest of the pass cannot change its best
        index, and the pass rolls back as a full one would.  A
        traditional replication splits its output nets, so in a
        replication-phase pass the candidates' output nets start at 4
        and never read 3; moves-only passes run before any replication
        and split nothing.
        """
        classes = self.tables.move_classes
        move_class = self.tables.move_class
        queues: List[List] = [[] for _ in classes]
        heappush = heapq.heappush
        heappop = heapq.heappop
        best_move = self.best_move
        move_gain = self.move_gain
        set_state = self.set_state
        locked = self.locked
        stamp = self.stamp
        sgain = self.sgain
        rep = self.rep
        side = self.side
        sizes = self.sizes
        weights = self.weights
        counts = self.counts
        split = self.split
        all_pins = self.all_pins
        net_maxk = self.net_maxk
        net_nodes = self.net_nodes
        net_counts = self.net_node_counts
        budget = self.config.budget
        pc = self._push_counter
        start_cut = self._cut
        seen = [0] * len(locked)  # refresh dedup, marked with the move count

        lmask = [0] * len(counts)
        if not self._moves_only:
            for net in self._splittable_nets:
                lmask[net] = 4
        dead = 0
        for v in self.fixed_set:
            dead += _lock_pins(lmask, self.active_pins(v))
        if start_cut - dead <= 0:
            return 0  # no prefix can gain: the full pass would undo itself

        undo: List[Tuple[int, int, Optional[Tuple[int, int]]]] = []
        cumulative = 0
        best_gain = 0
        best_index = 0
        n_single = n_repl = n_unrep = 0
        nupd = 0
        # A node without replication candidates has the single move as
        # its best move, read straight from sgain.
        repl_arity = [0] * len(locked) if self._moves_only else self._repl_arity
        # Admitted queues per (side-0 size, side-1 size) seen this pass.
        admitted_at: Dict[Tuple[int, int], List[List]] = {}
        pending: Sequence[int] = self.movable

        while True:
            for u in pending:
                if rep[u] is None and not repl_arity[u]:
                    s = side[u]
                    gain = sgain[u]
                    new_side = 1 - s
                    new_rep = None
                    cls = move_class[u][_SINGLE + s]
                else:
                    gain, new_side, new_rep = best_move(u)
                    if new_rep is not None:
                        cls = move_class[u][_REPLICATE + new_side]
                    elif rep[u] is not None:
                        cls = move_class[u][_UNREPLICATE + new_side]
                    else:
                        cls = move_class[u][_SINGLE + side[u]]
                stamp[u] = st = stamp[u] + 1
                pc += 1
                heappush(queues[cls], (-gain, pc, u, st, new_side, new_rep))

            key = (sizes[0], sizes[1])
            if key not in admitted_at:
                admitted_at[key] = [queues[i] for i in self._admissible_classes()]
            top = None
            for q in admitted_at[key]:
                while q:
                    entry = q[0]
                    u = entry[2]
                    if locked[u] or entry[3] != stamp[u]:
                        heappop(q)
                        continue
                    if top is None or entry < top:
                        top = entry
                        top_queue = q
                    break
            if top is None:
                break
            heappop(top_queue)
            neg_gain, _, v, _, new_side, new_rep = top
            old_rep = rep[v]
            single = new_rep is None and old_rep is None
            # The maintained sgain *is* a single move's exact gain; other
            # stored gains may be stale: verify and requeue if so.
            gain = sgain[v] if single else move_gain(v, new_side, new_rep)
            if gain != -neg_gain:
                pending = (v,)
                continue

            s = side[v]
            undo.append((v, s, old_rep))
            locked[v] = True
            refresh: List[int] = []
            if single:
                new_bit = 2 if s == 0 else 1
                other_bit = 3 - new_bit
                for net, k in all_pins[v]:
                    c = counts[net]
                    b0 = c[0]
                    b1 = c[1]
                    if s == 0:
                        a0 = b0 - k
                        a1 = b1 + k
                    else:
                        a0 = b0 + k
                        a1 = b1 - k
                    c[0] = a0
                    c[1] = a1
                    m = lmask[net]
                    if not m & new_bit:
                        lmask[net] = m | new_bit
                        if m == other_bit:
                            dead += 1
                    w = net_maxk[net]
                    window = 2 * w + 1
                    if a0 <= window or a1 <= window:
                        refresh.append(net)
                    if split[net] or (b0 > w and b1 > w and a0 > w and a1 > w):
                        # Split nets never change gains; outside the
                        # critical window no member's gain term changes.
                        continue
                    # A member's gain term is [cut] - [own side > k_u].
                    bc = 1 if b0 > 0 and b1 > 0 else 0
                    ac = 1 if a0 > 0 and a1 > 0 else 0
                    if w == 1:
                        # Every member has one pin: one delta per side.
                        d0 = ac - (a0 > 1) - bc + (b0 > 1)
                        d1 = ac - (a1 > 1) - bc + (b1 > 1)
                        if d0 or d1:
                            for u in net_nodes[net]:
                                if locked[u] or rep[u] is not None:
                                    continue
                                d = d1 if side[u] else d0
                                if d:
                                    sgain[u] += d
                                    nupd += 1
                        continue
                    for u, k_u in zip(net_nodes[net], net_counts[net]):
                        if locked[u] or rep[u] is not None:
                            continue
                        if side[u] == 0:
                            cb = bc - (1 if b0 > k_u else 0)
                            ca = ac - (1 if a0 > k_u else 0)
                        else:
                            cb = bc - (1 if b1 > k_u else 0)
                            ca = ac - (1 if a1 > k_u else 0)
                        if ca != cb:
                            sgain[u] += ca - cb
                            nupd += 1
                side[v] = 1 - s
                w_v = weights[v]
                sizes[s] -= w_v
                sizes[1 - s] += w_v
                n_single += 1
            else:
                for net in set_state(v, new_side, new_rep):
                    c = counts[net]
                    window = 2 * net_maxk[net] + 1
                    if c[0] <= window or c[1] <= window:
                        refresh.append(net)
                dead += _lock_pins(lmask, self.active_pins(v))
                if new_rep is not None:
                    n_repl += 1
                else:
                    n_unrep += 1
            cumulative += gain
            if cumulative > best_gain:
                best_gain = cumulative
                best_index = len(undo)
            if start_cut - dead <= best_gain:
                break  # the best prefix is decided: see the docstring

            if (
                budget is not None
                and len(undo) % _BUDGET_POLL_MOVES == 0
                and budget.expired
            ):
                break  # rollback below still lands on the best prefix

            # One push per unlocked neighbour, ordered by its last
            # occurrence: earlier pushes of the same node would be stale
            # on arrival.
            mark = len(undo)
            order: List[int] = []
            for net in reversed(refresh):
                for u in reversed(net_nodes[net]):
                    if seen[u] != mark and not locked[u]:
                        seen[u] = mark
                        order.append(u)
            order.reverse()
            pending = order

        self._push_counter = pc
        self._maintain_sgain = False  # rollback needs no gain upkeep
        self.n_single_moves += n_single
        self.n_replicates += n_repl
        self.n_unreplicates += n_unrep
        self.n_sgain_updates += nupd
        for v, old_side, old_rep in reversed(undo[best_index:]):
            if old_rep is None and rep[v] is None:
                cur = side[v]
                for net, k in all_pins[v]:
                    c = counts[net]
                    c[cur] -= k
                    c[old_side] += k
                w = weights[v]
                sizes[cur] -= w
                sizes[old_side] += w
                side[v] = old_side
            else:
                set_state(v, old_side, old_rep)
        self._cut = start_cut - best_gain
        return best_gain

    def run(self) -> ReplicationResult:
        faults.maybe_fire(
            "engine.run", style=self.config.style, seed=self.config.seed
        )
        reg = get_registry()
        if reg.enabled:
            with reg.span(
                "repl.run",
                seed=self.config.seed,
                style=self.config.style,
                nodes=len(self.hg.nodes),
            ):
                return self._run_inner(reg)
        return self._run_inner(None)

    def _run_inner(self, reg) -> ReplicationResult:
        budget = self.config.budget
        initial_cut = self.cut_size()
        pass_gains: List[int] = []
        hist = (
            reg.histogram("repl.pass_seconds", _PASS_SECONDS_BUCKETS)
            if reg
            else None
        )
        base = (
            self.n_single_moves,
            self.n_replicates,
            self.n_unreplicates,
            self.n_sgain_updates,
            self.n_sgain_recomputes,
        )

        def one_pass() -> int:
            if hist is None:
                return self.run_pass()
            t0 = time.perf_counter()
            gain = self.run_pass()
            hist.observe(time.perf_counter() - t0)
            return gain

        replication_on = self.config.style != NONE
        if replication_on and self.config.warm_start_moves_only:
            self._moves_only = True
            for _ in range(self.config.max_passes):
                if budget is not None and budget.expired:
                    break
                gain = one_pass()
                pass_gains.append(gain)
                if gain <= 0:
                    break
            self._moves_only = False
        for _ in range(self.config.max_passes):
            if budget is not None and budget.expired:
                break
            gain = one_pass()
            pass_gains.append(gain)
            if gain <= 0:
                break

        if reg is not None:
            reg.counter("repl.runs").inc()
            reg.counter("repl.passes").inc(len(pass_gains))
            reg.counter("repl.moves.single").inc(self.n_single_moves - base[0])
            reg.counter("repl.moves.replicate").inc(self.n_replicates - base[1])
            reg.counter("repl.moves.unreplicate").inc(
                self.n_unreplicates - base[2]
            )
            reg.counter("repl.sgain_updates").inc(self.n_sgain_updates - base[3])
            reg.counter("repl.sgain_recomputes").inc(
                self.n_sgain_recomputes - base[4]
            )
            # Per-run convergence series for the run ledger (one event
            # per run, outside the pass loop -- no hot-path cost).
            reg.emit_event(
                "repl.run_gains",
                seed=self.config.seed,
                style=self.config.style,
                initial_cut=initial_cut,
                final_cut=self.cut_size(),
                gains=list(pass_gains),
            )
        return ReplicationResult(
            sides=list(self.side),
            replicas=self.replicas(),
            cut_size=self.cut_size(),
            initial_cut=initial_cut,
            passes=len(pass_gains),
            pass_gains=pass_gains,
            n_cells=self.hg.n_cells,
        )


def replication_bipartition(
    hg: Hypergraph,
    config: Optional[ReplicationConfig] = None,
    initial: Optional[Sequence[int]] = None,
    tables: Optional[ReplicationTables] = None,
) -> ReplicationResult:
    """Run one replication-aware FM bipartitioning on ``hg``."""
    return ReplicationEngine(hg, config, initial, tables=tables).run()
