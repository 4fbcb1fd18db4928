"""Multilevel (coarsen-solve-uncoarsen) V-cycle on the CSR core.

This is the production successor of the object-graph V-cycle kept in
:mod:`repro.partition.reference`: the same classic scheme -- heavy-edge
affinity matching, net contraction, coarsest-level FM, uncoarsen with
per-level refinement, optional replication finish -- but run entirely on flat
:class:`~repro.hypergraph.compact.CompactHypergraph` arrays.  Coarse
levels never materialize object-graph :class:`Hypergraph`s; each level is
built array-to-array (match / weight / coarse-id int arrays, stamp-based
pin dedupe), and refinement at every level is the delta-gain FM engine in
``boundary_refine`` mode, so pass startup cost tracks the cut frontier
instead of the level size.

The V-cycle splits into two phases with different sharing profiles:

* :class:`MultilevelHierarchy` -- the coarsening stack.  Depends only on
  the hypergraph, the fixed-node set and the coarsening seed; the k-way
  carver builds it once per scan and reuses it across every carve
  candidate (mirroring how ``ReplicationTables`` is shared).
* :meth:`MultilevelHierarchy.solve` -- one projection/refinement descent
  for one (seed, side0 window), cheap enough to run per candidate.

Terminals and fixed nodes are never clustered; total cell weight is
conserved level to level, so absolute ``side0_bounds`` windows remain
valid at every level.  Everything is deterministic for a fixed seed:
matching visits cells in a seeded shuffle, scores via stamp arrays in CSR
order, and per-level FM seeds are pre-drawn in sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.hypergraph.compact import CompactHypergraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.obs.metrics import get_registry
from repro.partition.fm import FMConfig, fm_bipartition
from repro.partition.fm_replication import (
    FUNCTIONAL,
    ReplicationConfig,
    ReplicationEngine,
    ReplicationResult,
)
from repro.request import MultilevelMode
from repro.robust.budget import Budget
from repro.robust.errors import ConfigError

#: Nets above this degree are ignored during affinity scoring (they carry
#: almost no locality signal and dominate the runtime otherwise).
_MAX_SCORING_DEGREE = 24

#: Auto-on threshold: netlists with at least this many cells run the
#: multilevel engine in :attr:`MultilevelMode.AUTO` mode.
#: Chosen well above the paper suite (largest circuit ~15k gates at full
#: scale maps to fewer cells), so existing goldens, cache keys and ledger
#: fingerprints are unaffected unless multilevel is requested explicitly.
MULTILEVEL_AUTO_MIN_CELLS = 20_000


def resolve_multilevel(mode: MultilevelMode, n_cells: int) -> bool:
    """Whether the V-cycle runs on a netlist of ``n_cells`` cells: ``ON``
    and ``OFF`` say so, ``AUTO`` turns it on from
    :data:`MULTILEVEL_AUTO_MIN_CELLS` cells."""
    if mode is MultilevelMode.AUTO:
        return n_cells >= MULTILEVEL_AUTO_MIN_CELLS
    return mode is MultilevelMode.ON


@dataclass
class MultilevelConfig:
    """Knobs for one multilevel run."""

    seed: int = 0
    max_levels: int = 10
    min_nodes: int = 64
    coarsening_stall_ratio: float = 0.9  # stop when a level shrinks less
    balance_tolerance: float = 0.02
    max_passes: int = 12
    replication_refine: bool = False
    threshold: Union[int, float] = 0
    style: str = FUNCTIONAL
    fixed: Dict[int, int] = field(default_factory=dict)
    max_growth: Optional[float] = None
    budget: Optional[Budget] = None

    def __post_init__(self) -> None:
        if self.max_growth is not None and self.max_growth < 0:
            raise ConfigError(f"max_growth {self.max_growth!r} is negative")


@dataclass
class MultilevelResult:
    """Outcome of a multilevel bipartitioning run."""

    assignment: List[int]
    cut_size: int
    levels: int
    replication: Optional[ReplicationResult] = None
    #: Per-level profile of the descent (coarsest first): cells, nets,
    #: cut after refinement, match rate of the step that built the level.
    level_stats: Optional[List[Dict[str, object]]] = None

    @property
    def final_cut(self) -> int:
        if self.replication is not None:
            return self.replication.cut_size
        return self.cut_size

    @property
    def n_replicated(self) -> int:
        if self.replication is not None:
            return self.replication.n_replicated
        return 0


def coarsen_compact(
    cp: CompactHypergraph,
    rng: random.Random,
    protected: Sequence[int] = (),
) -> Tuple[CompactHypergraph, List[int], int]:
    """One coarsening level on CSR arrays.

    Returns ``(coarse, coarse_id, n_pairs)`` where ``coarse_id[v]`` is the
    coarse node of fine node ``v`` and ``n_pairs`` is the number of merged
    cell pairs.  Terminals and ``protected`` nodes map one-to-one; only
    unprotected cells match.  Nets whose endpoints collapse into a single
    coarse node vanish; surviving nets keep summed per-(node, net) pin
    counts and ascending member/net orders (the canonical CSR layout).
    """
    n = cp.n_nodes
    is_cell = cp.is_cell
    weights = cp.weights
    nns, nn = cp.node_net_start, cp.node_nets
    ens, en, enc = cp.net_node_start, cp.net_nodes, cp.net_node_counts
    prot = protected if isinstance(protected, (set, frozenset)) else set(protected)

    order = [v for v in range(n) if is_cell[v] and v not in prot]
    rng.shuffle(order)

    # Heavy-edge matching with stamp-array scoring: for each unmatched
    # cell, accumulate sum(1 / (|net| - 1)) over shared scoring nets into
    # score[], touching only actual neighbours.
    matched = [False] * n
    coarse_id = [-1] * n
    score = [0.0] * n
    stamp = [0] * n
    tick = 0
    coarse_weights: List[int] = []
    coarse_is_cell: List[bool] = []
    n_pairs = 0
    for u in order:
        if matched[u]:
            continue
        matched[u] = True
        tick += 1
        touched: List[int] = []
        for i in range(nns[u], nns[u + 1]):
            e = nn[i]
            deg = ens[e + 1] - ens[e]
            if deg < 2 or deg > _MAX_SCORING_DEGREE:
                continue
            w = 1.0 / (deg - 1)
            for j in range(ens[e], ens[e + 1]):
                v = en[j]
                if v == u or matched[v] or not is_cell[v] or v in prot:
                    continue
                if stamp[v] != tick:
                    stamp[v] = tick
                    score[v] = w
                    touched.append(v)
                else:
                    score[v] += w
        best_v = -1
        best_score = 0.0
        wu = weights[u]
        for v in touched:
            # Prefer light partners: keeps coarse weights balanced.
            adj = score[v] / (1.0 + 0.1 * (weights[v] + wu))
            if adj > best_score:
                best_score = adj
                best_v = v
        cid = len(coarse_weights)
        coarse_id[u] = cid
        if best_v >= 0:
            matched[best_v] = True
            coarse_id[best_v] = cid
            coarse_weights.append(wu + weights[best_v])
            n_pairs += 1
        else:
            coarse_weights.append(wu)
        coarse_is_cell.append(True)
    # Terminals and protected nodes: one-to-one, in index order.
    for v in range(n):
        if coarse_id[v] < 0:
            coarse_id[v] = len(coarse_weights)
            coarse_weights.append(weights[v])
            coarse_is_cell.append(bool(is_cell[v]))
    m = len(coarse_weights)

    # Net contraction: dedupe coarse endpoints per net with a stamp array,
    # summing pin counts; nets with < 2 distinct coarse members vanish.
    cstamp = [0] * m
    ccount = [0] * m
    cnet_start = [0]
    cnet_nodes: List[int] = []
    cnet_counts: List[int] = []
    cnet_maxk: List[int] = []
    tick = 0
    for e in range(cp.n_nets):
        tick += 1
        members: List[int] = []
        for j in range(ens[e], ens[e + 1]):
            c = coarse_id[en[j]]
            k = enc[j]
            if cstamp[c] != tick:
                cstamp[c] = tick
                ccount[c] = k
                members.append(c)
            else:
                ccount[c] += k
        if len(members) < 2:
            continue
        members.sort()
        mk = 0
        for c in members:
            cnet_nodes.append(c)
            k = ccount[c]
            cnet_counts.append(k)
            if k > mk:
                mk = k
        cnet_start.append(len(cnet_nodes))
        cnet_maxk.append(mk)
    n_cnets = len(cnet_maxk)

    # Transpose to the node-major view (nets ascending per node).
    degree = [0] * m
    for c in cnet_nodes:
        degree[c] += 1
    node_start = [0] * (m + 1)
    acc = 0
    for v2 in range(m):
        node_start[v2] = acc
        acc += degree[v2]
    node_start[m] = acc
    node_nets = [0] * acc
    node_counts = [0] * acc
    cursor = node_start[:m]
    for e2 in range(n_cnets):
        for j in range(cnet_start[e2], cnet_start[e2 + 1]):
            c = cnet_nodes[j]
            p = cursor[c]
            node_nets[p] = e2
            node_counts[p] = cnet_counts[j]
            cursor[c] = p + 1

    coarse = CompactHypergraph(
        n_nodes=m,
        n_nets=n_cnets,
        node_net_start=node_start,
        node_nets=node_nets,
        node_net_counts=node_counts,
        net_node_start=cnet_start,
        net_nodes=cnet_nodes,
        net_node_counts=cnet_counts,
        net_maxk=cnet_maxk,
        weights=coarse_weights,
        is_cell=coarse_is_cell,
    )
    return coarse, coarse_id, n_pairs


class MultilevelHierarchy:
    """The coarsening stack of one hypergraph, shared across solves.

    ``levels[0]`` is the finest (input) hypergraph; ``maps[i]`` sends a
    level-``i`` node to its level-``i+1`` coarse node.  ``fixed_maps[i]``
    is the config's fixed assignment projected to level ``i``.  Building
    the stack consumes the config seed only; :meth:`solve` takes its own
    seed, so one hierarchy serves many solve candidates deterministically.
    """

    def __init__(self, compact: CompactHypergraph, config: MultilevelConfig):
        self.config = config
        self.levels: List[CompactHypergraph] = [compact]
        self.maps: List[List[int]] = []
        self.fixed_maps: List[Dict[int, int]] = [dict(config.fixed)]
        self.cell_counts: List[int] = [sum(1 for c in compact.is_cell if c)]
        self.match_rates: List[float] = []
        reg = get_registry()
        with reg.span(
            "ml.coarsen", nodes=compact.n_nodes, nets=compact.n_nets
        ):
            self._build()
        if reg.enabled:
            reg.counter("multilevel.levels").inc(len(self.levels))

    def _build(self) -> None:
        config = self.config
        rng = random.Random(config.seed)
        current = self.levels[0]
        n_cells = self.cell_counts[0]
        while len(self.levels) < config.max_levels and n_cells > config.min_nodes:
            coarse, cid, n_pairs = coarsen_compact(
                current, rng, protected=set(self.fixed_maps[-1])
            )
            coarse_cells = n_cells - n_pairs
            if coarse_cells >= n_cells * config.coarsening_stall_ratio:
                break  # matching stalled: deeper levels would not shrink
            self.maps.append(cid)
            self.levels.append(coarse)
            self.fixed_maps.append(
                {cid[v]: s for v, s in self.fixed_maps[-1].items()}
            )
            self.match_rates.append(2.0 * n_pairs / n_cells if n_cells else 0.0)
            self.cell_counts.append(coarse_cells)
            current = coarse
            n_cells = coarse_cells

    def solve(
        self,
        seed: int,
        side0_bounds: Optional[Tuple[int, int]] = None,
    ) -> Tuple[List[int], int, List[Dict[str, object]]]:
        """One V-cycle descent: coarsest FM, then project + refine down.

        Returns ``(assignment, cut, level_stats)`` at the finest level.
        ``side0_bounds`` is an absolute side-0 CLB window, valid at every
        level because coarsening conserves cell weight.
        """
        config = self.config
        rng = random.Random(seed)
        level_seeds = [rng.randrange(1 << 30) for _ in self.levels]
        reg = get_registry()
        k = len(self.levels) - 1
        stats: List[Dict[str, object]] = []
        with reg.span("ml.refine", seed=seed, levels=len(self.levels)):
            result = fm_bipartition(
                None,
                FMConfig(
                    seed=level_seeds[k],
                    balance_tolerance=config.balance_tolerance,
                    max_passes=config.max_passes,
                    side0_bounds=side0_bounds,
                    fixed=self.fixed_maps[k],
                    budget=config.budget,
                ),
                compact=self.levels[k],
            )
            assignment = result.assignment
            cut = result.cut_size
            self._record_level(reg, stats, k, cut)
            for i in range(k - 1, -1, -1):
                cid = self.maps[i]
                fine = self.levels[i]
                projected = [assignment[cid[v]] for v in range(fine.n_nodes)]
                if config.budget is not None and config.budget.expired:
                    # Out of time: keep projecting without refinement so the
                    # caller still gets a feasible finest-level assignment.
                    assignment = projected
                    continue
                refined = fm_bipartition(
                    None,
                    FMConfig(
                        seed=level_seeds[i],
                        balance_tolerance=config.balance_tolerance,
                        max_passes=config.max_passes,
                        side0_bounds=side0_bounds,
                        fixed=self.fixed_maps[i],
                        budget=config.budget,
                        boundary_refine=True,
                    ),
                    initial=projected,
                    compact=fine,
                )
                assignment = refined.assignment
                cut = refined.cut_size
                self._record_level(reg, stats, i, cut)
        if reg.enabled:
            reg.counter("multilevel.vcycles").inc()
        return assignment, cut, stats

    def _record_level(self, reg, stats: List[Dict[str, object]], i: int, cut: int) -> None:
        level = self.levels[i]
        entry: Dict[str, object] = {
            "level": i,
            "cells": self.cell_counts[i],
            "nets": level.n_nets,
            "cut": cut,
            # Rate of the matching step that built this level (finest: 1.0
            # by convention -- it is the input, nothing was matched).
            "match_rate": round(self.match_rates[i - 1], 4) if i > 0 else 1.0,
        }
        stats.append(entry)
        if reg.enabled:
            reg.emit_event("ml.level", **entry)


def vcycle_bipartition(
    hg: Optional[Hypergraph],
    config: Optional[MultilevelConfig] = None,
    compact: Optional[CompactHypergraph] = None,
) -> MultilevelResult:
    """Full multilevel bipartition of one hypergraph.

    ``compact`` optionally supplies the pre-built CSR view; ``hg`` may be
    ``None`` when ``compact`` is given and ``replication_refine`` is off
    (the replication engine still needs the object graph for functional
    structure).
    """
    config = config or MultilevelConfig()
    if compact is None:
        if hg is None:
            raise ValueError("either hg or compact is required")
        compact = CompactHypergraph.from_hypergraph(hg)
    rng = random.Random(config.seed)
    build_seed = rng.randrange(1 << 30)
    solve_seed = rng.randrange(1 << 30)
    repl_seed = rng.randrange(1 << 30)

    hierarchy = MultilevelHierarchy(compact, replace(config, seed=build_seed))
    assignment, cut, stats = hierarchy.solve(solve_seed)

    replication: Optional[ReplicationResult] = None
    if config.replication_refine:
        if hg is None:
            raise ValueError("replication_refine requires the object hypergraph")
        engine = ReplicationEngine(
            hg,
            ReplicationConfig(
                seed=repl_seed,
                threshold=config.threshold,
                style=config.style,
                balance_tolerance=config.balance_tolerance,
                max_passes=config.max_passes,
                fixed=dict(config.fixed),
                max_growth=config.max_growth,
                warm_start_moves_only=False,
                budget=config.budget,
            ),
            initial=assignment,
        )
        replication = engine.run()

    return MultilevelResult(
        assignment=assignment,
        cut_size=cut,
        levels=len(hierarchy.levels),
        replication=replication,
        level_stats=stats,
    )
