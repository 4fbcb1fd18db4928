"""Warm-start repartitioning over an ECO dirty region.

Given the previous :class:`~repro.partition.kway.KWaySolution` and the
dirty region of an applied :class:`~repro.techmap.delta.NetlistDelta`,
:func:`incremental_partition` repairs the old solution instead of
re-carving from scratch:

1. **Projection** -- every instance whose original cell is outside the
   dirty region is kept exactly where the previous solution placed it.
   Dirty originals drop *all* their instances together, which is also
   the replication repair: a replica whose source cell changed is stale
   by definition, so the collapsed cell re-enters as a single whole
   instance and later cold solves may re-replicate it.
2. **Placement** -- uncovered cells (dirty + delta-added) are placed
   greedily on the block sharing the most nets with them, respecting
   device CLB capacity.  Primary I/O pads stay on their previous block
   (IOBs are fixed terminals); pads of newly-live nets join a block
   already touching the net, pads of now-dead primary inputs are
   dropped.
3. **Boundary repair** -- for every pair of blocks sharing a touched
   net, a pair-local FM (:func:`~repro.partition.fm.fm_bipartition`
   with ``boundary_refine=True``) re-balances the *dirty* instances
   only; everything untouched is hard-fixed and nets leaving the pair
   are pinned permanently cut by per-side pseudo terminals, so the
   repair can only improve the pair's contribution to the global cut.
   The FM problem holds the dirty instances alone (see
   :func:`_refine_pair`), so its set-up costs what the edit costs.

The repaired solution is re-finalized with the cold path's own global
terminal accounting (:func:`repro.partition.kway._finalize`), so eq.1 /
eq.2 costs and the ``replicated_cells`` set are computed by the same
code as a cold solve and the result satisfies every invariant of
:func:`repro.partition.verify.verify_solution`.

The function *declines* rather than degrades: when the dirty region is
too large, a cell cannot be placed, or the repaired cost leaves the
tolerance band around the previous cost, it returns ``(None, info)``
and the caller runs a full cold solve.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.hypergraph.compact import CompactHypergraph
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_SPAN
from repro.partition.fm import FMConfig, fm_bipartition
from repro.partition.kway import BlockResult, KWaySolution, _finalize
from repro.robust.budget import Budget
from repro.techmap.delta import DirtyRegion
from repro.techmap.mapped import MappedNetlist

#: Dirty fraction above which repair is declined in favour of a cold
#: solve.  Past this point the "unperturbed majority" assumption behind
#: projection no longer holds and repair quality falls off fast.
DEFAULT_MAX_DIRTY_FRACTION = 0.30

#: Warm cost tolerance band: the repaired solution may cost at most
#: ``(1 + tolerance)`` times the previous solution's eq.1 cost (with the
#: eq.2 interconnect tie-breaker checked against the same band).
DEFAULT_COST_TOLERANCE = 0.25


@dataclass
class IncrementalConfig:
    """Knobs for one warm-start repair."""

    seed: int = 0
    max_passes: int = 16
    max_dirty_fraction: float = DEFAULT_MAX_DIRTY_FRACTION
    cost_tolerance: float = DEFAULT_COST_TOLERANCE
    budget: Optional[Budget] = None


@dataclass
class _WorkBlock:
    """Mutable view of one block during repair.

    ``net_pins`` counts the block's pins (instances and pads) per net, so
    its keys are the block's nets; it follows every add and pop.  The
    first ``n_projected`` instances are the projected clean ones, which
    never move: only later slots can hold a dirty instance.  Fixed
    instances with several pins on one net record the largest such count
    in ``fixed_maxk``.
    """

    index: int
    device: object  # Device
    names: List[str] = field(default_factory=list)
    originals: List[str] = field(default_factory=list)
    inputs: List[List[str]] = field(default_factory=list)
    outputs: List[List[str]] = field(default_factory=list)
    pads: List[str] = field(default_factory=list)
    pad_nets: Set[str] = field(default_factory=set)
    net_pins: Counter = field(default_factory=Counter)
    fixed_maxk: Dict[str, int] = field(default_factory=dict)
    n_projected: int = 0

    @classmethod
    def projected(cls, block: BlockResult, kept: List[bool]) -> "_WorkBlock":
        """The instances of ``block`` that ``kept`` marks, all fixed.

        The pin lists are the previous solution's own (never mutated
        here); finalize copies them into the new solution.
        """
        wb = cls(
            block.index,
            block.device,
            list(compress(block.cells, kept)),
            list(compress(block.originals, kept)),
            list(compress(block.cell_inputs, kept)),
            list(compress(block.cell_outputs, kept)),
        )
        wb.n_projected = wb.n_clbs
        wb.net_pins.update(chain.from_iterable(wb.inputs))
        wb.net_pins.update(chain.from_iterable(wb.outputs))
        for pins_in, pins_out in zip(wb.inputs, wb.outputs):
            wb._note_fixed(pins_in, pins_out)
        return wb

    @property
    def n_clbs(self) -> int:
        return len(self.names)

    def add(self, name: str, original: str, pins_in: List[str],
            pins_out: List[str], fixed: bool) -> None:
        self.names.append(name)
        self.originals.append(original)
        self.inputs.append(pins_in)
        self.outputs.append(pins_out)
        self.net_pins.update(pins_in)
        self.net_pins.update(pins_out)
        if fixed:
            self._note_fixed(pins_in, pins_out)

    def add_pad(self, pad: str, net: str) -> None:
        self.pads.append(pad)
        self.pad_nets.add(net)
        self.net_pins[net] += 1

    def pop(self, i: int) -> Tuple[str, str, List[str], List[str]]:
        pins_in, pins_out = self.inputs.pop(i), self.outputs.pop(i)
        counts = self.net_pins
        for net in (*pins_in, *pins_out):
            counts[net] -= 1
            if not counts[net]:
                del counts[net]
        return self.names.pop(i), self.originals.pop(i), pins_in, pins_out

    def _note_fixed(self, pins_in: List[str], pins_out: List[str]) -> None:
        if len({*pins_in, *pins_out}) == len(pins_in) + len(pins_out):
            return
        pins = [*pins_in, *pins_out]
        for net in set(pins):
            k = pins.count(net)
            if k > self.fixed_maxk.get(net, 1):
                self.fixed_maxk[net] = k


def _decline(info: Dict[str, object], reason: str
             ) -> Tuple[None, Dict[str, object]]:
    info["mode"] = "cold"
    info["reason"] = reason
    return None, info


def incremental_partition(
    mapped: MappedNetlist,
    previous: KWaySolution,
    dirty: DirtyRegion,
    config: Optional[IncrementalConfig] = None,
) -> Tuple[Optional[KWaySolution], Dict[str, object]]:
    """Repair ``previous`` for the post-delta netlist ``mapped``.

    Returns ``(solution, info)`` on success, ``(None, info)`` when the
    repair is declined and the caller should cold-solve;
    ``info["reason"]`` says why.
    """
    config = config or IncrementalConfig()
    info: Dict[str, object] = {
        "dirty_cells": len(dirty.cells),
        "dirty_fraction": round(dirty.fraction, 6),
    }
    if dirty.fraction > config.max_dirty_fraction:
        return _decline(
            info,
            f"dirty fraction {dirty.fraction:.3f} exceeds "
            f"{config.max_dirty_fraction:.3f}",
        )
    if previous.truncated or not previous.blocks:
        return _decline(info, "previous solution truncated or empty")

    names = {cell.name for cell in mapped.cells}

    # -- 1. projection: keep every instance of every clean original -----
    work: List[_WorkBlock] = []
    covered: Set[str] = set()
    prev_home: Dict[str, int] = {}
    for position, block in enumerate(previous.blocks):
        kept = [
            orig in names and orig not in dirty.cells
            for orig in block.originals
        ]
        wb = _WorkBlock.projected(block, kept)
        covered.update(wb.originals)
        for orig, keep in zip(block.originals, kept):
            if not keep:
                prev_home.setdefault(orig, position)
        work.append(wb)

    # Pads: previous placement wins for every still-required pad.
    required = _required_pads(mapped)
    prev_pad_block = {
        pad: block.index for block in previous.blocks for pad in block.pads
    }
    placed_pads: Set[str] = set()
    for pad, net in required.items():
        home = prev_pad_block.get(pad)
        if home is not None:
            work[home].add_pad(pad, net)
            placed_pads.add(pad)

    # -- 2. placement of uncovered cells --------------------------------
    # A dirty cell that existed before goes back to its previous home
    # when there is room: the previous solution was feasible (IOBs
    # included) with it there, so restoring the old structure keeps the
    # terminal pressure of a small edit near zero.  Cells with no
    # previous home (delta-added) fall back to the greediest block by
    # shared nets.  Every input pin of a cell reads a live net, so the
    # pin lists are the mapped cell's, as the cold carver builds them.
    for cell in mapped.cells:
        if cell.name in covered:
            continue
        pins_in, pins_out = list(cell.inputs), list(cell.outputs)
        home = prev_home.get(cell.name)
        if home is not None and work[home].n_clbs < work[home].device.max_clbs:
            choice = home
        else:
            pins = set(pins_in) | set(pins_out)
            best: Optional[Tuple[Tuple[int, int], int]] = None
            for wb in work:
                if wb.n_clbs >= wb.device.max_clbs:
                    continue
                shared = sum(1 for net in pins if net in wb.net_pins)
                key = (-shared, wb.index)
                if best is None or key < best[0]:
                    best = (key, wb.index)
            if best is None:
                return _decline(info, "no block has CLB capacity left")
            choice = best[1]
        work[choice].add(cell.name, cell.name, pins_in, pins_out,
                         fixed=cell.name not in dirty.cells)

    # Pads that gained a net (e.g. a rewire made a dead primary input
    # live): join the lowest-index block already touching the net.
    for pad, net in required.items():
        if pad in placed_pads:
            continue
        home = next((wb.index for wb in work if net in wb.net_pins), 0)
        work[home].add_pad(pad, net)

    # Blocks emptied by the delta (every instance dirty, no pads) vanish.
    work = [wb for wb in work if wb.names or wb.pads]
    for i, wb in enumerate(work):
        wb.index = i

    # -- 3. pair-local boundary FM over the dirty frontier --------------
    reg = get_registry()
    pairs = _dirty_pairs(work, dirty.touched_nets)
    moves = 0
    span = (
        reg.span("incr.refine", pairs=len(pairs),
                 dirty_cells=len(dirty.cells))
        if reg.enabled
        else NULL_SPAN
    )
    with span:
        for i, j in pairs:
            if config.budget is not None and config.budget.expired:
                break
            moves += _refine_pair(work, i, j, dirty.cells, config)
    info["pairs_refined"] = len(pairs)
    info["boundary_moves"] = moves

    # -- 4. finalize with the cold path's global accounting -------------
    blocks = [
        BlockResult(
            index=wb.index,
            device=wb.device,  # type: ignore[arg-type]
            cells=list(wb.names),
            originals=list(wb.originals),
            pads=list(wb.pads),
            nets=set(wb.net_pins),
            pad_nets=set(wb.pad_nets),
            cell_inputs=[list(p) for p in wb.inputs],
            cell_outputs=[list(p) for p in wb.outputs],
        )
        for wb in work
    ]
    solution = _finalize(mapped.name, blocks, len(mapped.cells),
                         truncated=False)

    if previous.feasible and not solution.feasible:
        # Most commonly IOB overflow: the cold carver packs blocks to
        # the terminal limit (eq.2 maximizes IOB utilization), so on a
        # saturated design even a small edit's newly-cut nets push a
        # block past its device's IOB count -- and only a re-carve can
        # relieve that.  Name the first violated constraint so callers
        # can see why the warm path bailed.
        detail = "constraint violated"
        for usage in solution.cost.blocks:
            if usage.clbs > usage.device.max_clbs:
                detail = (
                    f"{usage.device.name} over CLB capacity "
                    f"({usage.clbs} > {usage.device.max_clbs})"
                )
                break
            if usage.clbs < usage.device.min_clbs:
                detail = (
                    f"{usage.device.name} under CLB utilization floor "
                    f"({usage.clbs} < {usage.device.min_clbs})"
                )
                break
            if usage.terminals > usage.device.terminals:
                detail = (
                    f"{usage.device.name} over IOB capacity "
                    f"({usage.terminals} > {usage.device.terminals})"
                )
                break
        return _decline(info, f"repair left the solution infeasible: {detail}")
    band = 1.0 + config.cost_tolerance
    if solution.cost.total_cost > previous.cost.total_cost * band:
        return _decline(
            info,
            f"repaired cost {solution.cost.total_cost:.0f} outside the "
            f"band of previous {previous.cost.total_cost:.0f}",
        )
    info["mode"] = "warm"
    info["cost"] = solution.cost.total_cost
    info["previous_cost"] = previous.cost.total_cost
    if reg.enabled:
        reg.counter("incr.dirty_cells").inc(len(dirty.cells))
        reg.counter("incr.boundary_moves").inc(moves)
    return solution, info


def _required_pads(mapped: MappedNetlist) -> Dict[str, str]:
    """Pad name -> net for every pad of ``mapped``, in the cold carver's
    terminal order: each live primary input (one a cell reads, or that is
    also a primary output), then each primary output."""
    read = set(mapped.primary_outputs)
    for cell in mapped.cells:
        read.update(cell.inputs)
    pads = {f"pi:{pi}": pi for pi in mapped.primary_inputs if pi in read}
    pads.update((f"po:{po}", po) for po in mapped.primary_outputs)
    return pads


def _dirty_pairs(
    work: Sequence[_WorkBlock], touched_nets: Set[str]
) -> List[Tuple[int, int]]:
    """Block pairs sharing a net the delta touched, in deterministic order."""
    pairs: Set[Tuple[int, int]] = set()
    for net in touched_nets:
        homes = [wb.index for wb in work if net in wb.net_pins]
        for a in range(len(homes)):
            for b in range(a + 1, len(homes)):
                pairs.add((homes[a], homes[b]))
    return sorted(pairs)


def _refine_pair(
    work: List[_WorkBlock],
    i: int,
    j: int,
    dirty_cells: Set[str],
    config: IncrementalConfig,
) -> int:
    """Boundary FM between blocks ``i`` and ``j``; only instances whose
    original is dirty may move.  Returns the number of migrations.

    The FM problem holds the movable instances alone, in the order the
    pair's full hypergraph would number them (block ``i``'s by slot, then
    block ``j``'s), plus one fixed pseudo node per side.  Each pseudo node
    carries every fixed pin its side puts on a net a movable instance
    touches: clean instances, pads, and one pin per side for a net that
    leaves the pair (it stays cut whatever moves).  Its weight is the
    side's fixed CLB count.  That keeps every net's side counts and both
    side sizes, and ``net_maxk`` is the full pair's per-node maximum, not
    the folded count, so FM's critical window, and with it its move
    order, is the full pair's.  Nets no movable instance touches are left
    out: FM never traverses them.
    """
    wi, wj = work[i], work[j]
    total = wi.n_clbs + wj.n_clbs
    lo0 = max(1, total - wj.device.max_clbs)
    hi0 = min(wi.device.max_clbs, total - 1)
    if lo0 > hi0 or total < 2:
        return 0
    movable = [
        (side, slot)
        for side, wb in ((0, wi), (1, wj))
        for slot in range(wb.n_projected, wb.n_clbs)
        if wb.originals[slot] in dirty_cells
    ]
    if not movable:
        return 0

    net_ids: Dict[str, int] = {}
    pins: List[List[int]] = []
    for side, slot in movable:
        wb = wj if side else wi
        pins.append([
            net_ids.setdefault(net, len(net_ids))
            for net in (*wb.inputs[slot], *wb.outputs[slot])
        ])
    n_nets = len(net_ids)
    moving = ([0] * n_nets, [0] * n_nets)
    net_maxk = [1] * n_nets
    for (side, _), row in zip(movable, pins):
        counts = moving[side]
        for e in row:
            counts[e] += 1
        if len(set(row)) < len(row):
            for e in set(row):
                net_maxk[e] = max(net_maxk[e], row.count(e))

    others = [wb for wb in work if wb is not wi and wb is not wj]
    pseudo: Tuple[List[int], List[int]] = ([], [])
    for net, e in net_ids.items():
        ext = any(net in wb.net_pins for wb in others)
        for side, wb in ((0, wi), (1, wj)):
            fixed_pins = wb.net_pins.get(net, 0) - moving[side][e] + ext
            pseudo[side].extend([e] * fixed_pins)
            net_maxk[e] = max(net_maxk[e], wb.fixed_maxk.get(net, 1))

    n_movable = len(movable)
    on_i = sum(1 for side, _ in movable if side == 0)
    compact = CompactHypergraph.from_pins(
        pins + list(pseudo),
        n_nets,
        [1] * n_movable
        + [wi.n_clbs - on_i, wj.n_clbs - (n_movable - on_i)],
        [True] * n_movable + [False, False],
        net_maxk,
    )
    result = fm_bipartition(
        None,
        FMConfig(
            seed=config.seed,
            max_passes=config.max_passes,
            side0_bounds=(lo0, hi0),
            fixed={n_movable: 0, n_movable + 1: 1},
            budget=config.budget,
            boundary_refine=True,
        ),
        initial=[side for side, _ in movable] + [0, 1],
        compact=compact,
    )

    # Apply migrations, popping from the highest slot down so earlier
    # slot numbers stay valid.
    migrations = [
        (side, slot)
        for v, (side, slot) in enumerate(movable)
        if result.assignment[v] != side
    ]
    for side, slot in sorted(migrations, key=lambda m: -m[1]):
        src, dst = (wi, wj) if side == 0 else (wj, wi)
        name, orig, pins_in, pins_out = src.pop(slot)
        dst.add(name, orig, pins_in, pins_out, fixed=False)
    return len(migrations)


__all__ = [
    "DEFAULT_COST_TOLERANCE",
    "DEFAULT_MAX_DIRTY_FRACTION",
    "IncrementalConfig",
    "incremental_partition",
]
