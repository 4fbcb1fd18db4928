"""Multi-way partitioning into heterogeneous FPGA devices.

Reconstruction of the recursive flow of Kuznar-Brglez-Kozminski (DAC'93,
the paper's reference [3]) with the DAC'94 replication-aware bipartitioner
inside: repeatedly *carve* a device-feasible block off the remaining
circuit with a size-bounded (replication-aware) FM bipartition, choosing at
every step the (device, partition) pair that minimizes estimated total cost
with the smallest interconnect, until the remainder fits a single device.

Replication is handled across carve levels: when a bipartition leaves a
cell replicated, the carved block receives one instance and the remainder
keeps the *other* instance as a first-class (possibly reduced) cell, which
may be replicated again later.  The final solution reports, per block, the
device, the CLB instances and the terminal (IOB) usage computed with the
global rule of :func:`repro.hypergraph.metrics.partition_terminal_counts`:
a block needs one IOB per net that touches it and either spans another
block or carries one of the block's I/O pads.

Feasibility (paper's definition): block j on device D_i requires
``l_i * c_i <= clbs_j <= u_i * c_i`` and ``terminals_j <= t_i``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.hypergraph.hypergraph import Hypergraph, NodeKind
from repro.obs.metrics import get_registry
from repro.obs.trace import NULL_SPAN
from repro.partition.cost import SolutionCost, solution_cost
from repro.partition.devices import Device, DeviceLibrary, XC3000_LIBRARY
from repro.hypergraph.compact import CompactHypergraph
from repro.partition.fm_replication import (
    FUNCTIONAL,
    ReplicationConfig,
    ReplicationEngine,
    ReplicationTables,
)
from repro.partition.multilevel import (
    MultilevelConfig,
    MultilevelHierarchy,
    resolve_multilevel,
)
from repro.perf.parallel import WorkerPool
from repro.request import MultilevelMode
from repro.robust import faults
from repro.robust.budget import Budget
from repro.robust.errors import ConfigError, InfeasibleError
from repro.techmap.mapped import MappedNetlist

#: FM passes of each carve candidate (and of each V-cycle level seeding one).
_CARVE_MAX_PASSES = 12


@dataclass(slots=True)
class _VCell:
    """A (possibly reduced) cell instance during recursive carving."""

    name: str
    original: str
    inputs: List[str]
    outputs: List[str]
    supports: List[Tuple[int, ...]]


@dataclass(slots=True)
class _VTerm:
    """An I/O pad during recursive carving."""

    name: str
    net: str
    kind: str  # "pi" | "po"


@dataclass
class BlockResult:
    """One partition P_j of the final solution.

    ``cell_inputs`` / ``cell_outputs`` record, per instance (parallel to
    ``cells``), the nets its active input and output pins touch; the
    independent checker in :mod:`repro.partition.verify` re-derives every
    solution-level quantity from them.
    """

    index: int
    device: Device
    cells: List[str]  # instance names
    originals: List[str]  # original cell names (parallel to ``cells``)
    pads: List[str]
    nets: Set[str]
    pad_nets: Set[str]
    cell_inputs: List[List[str]] = field(default_factory=list)
    cell_outputs: List[List[str]] = field(default_factory=list)
    terminals: int = 0  # filled in by the global terminal accounting

    @property
    def n_clbs(self) -> int:
        return len(self.cells)


@dataclass
class KWayConfig:
    """Knobs for the multi-way flow."""

    library: DeviceLibrary = field(default_factory=lambda: XC3000_LIBRARY)
    threshold: Union[int, float] = 1  # paper's T; T_INFINITY reproduces [3]
    style: str = FUNCTIONAL
    seed: int = 0
    seeds_per_carve: int = 3
    devices_per_carve: int = 3
    max_blocks: int = 200
    #: Fill-level ladder for carves: each carve first tries to pack the
    #: candidate device to the highest band (fewest, cheapest devices); if no
    #: band yields a terminal-feasible block, lower bands are tried.  This
    #: plays the role of the lower utilization bound l_i of the paper's
    #: device model during search.
    carve_fill_levels: Tuple[float, ...] = (0.85, 0.65, 0.45, 0.25)
    #: Optional wall-clock budget.  Once it expires the carve loop stops
    #: at its next checkpoint and dumps the remaining circuit into one
    #: best-effort final block, yielding a structurally valid
    #: (``truncated``, possibly infeasible) solution.
    budget: Optional[Budget] = None
    #: Bipartitioning engine: ``"fast"`` (the CSR/bucket engines) or
    #: ``"reference"`` (the pre-optimization engines preserved in
    #: :mod:`repro.partition.reference`).  The reference path exists for
    #: the benchmark harness's same-process baseline and for equivalence
    #: tests; both produce identical solutions for a given seed.
    engine: str = "fast"
    #: Worker count of the carve candidate scan: each fill band's
    #: ``devices_per_carve x seeds_per_carve`` candidate runs are mapped
    #: over a :class:`~repro.perf.parallel.WorkerPool` and reduced in plan
    #: order, so the chosen carve is the same for every count given the
    #: seed.  ``0`` or negative means all cores; the reference engine
    #: always runs with one worker.
    jobs: int = 1
    #: Multilevel initial solutions for carve candidates: a V-cycle
    #: (:mod:`repro.partition.multilevel`) seeds each candidate's
    #: replication engine instead of a random start.  ``ON`` forces it,
    #: ``OFF`` keeps random starts, ``AUTO`` (default) turns it on per
    #: carve level once the working set reaches
    #: :data:`~repro.partition.multilevel.MULTILEVEL_AUTO_MIN_CELLS`
    #: (``True`` / ``False`` / ``None`` coerce to these).
    #: The coarsening hierarchy is built once per carve scan and shared
    #: across every candidate (like ``ReplicationTables``).
    multilevel: MultilevelMode = MultilevelMode.AUTO

    def __post_init__(self) -> None:
        if self.engine not in ("fast", "reference"):
            raise ConfigError(f"unknown k-way engine {self.engine!r}")
        self.multilevel = MultilevelMode.coerce(self.multilevel)


@dataclass
class KWaySolution:
    """Final multi-way solution."""

    name: str
    blocks: List[BlockResult]
    cost: SolutionCost
    n_original_cells: int
    replicated_cells: Set[str]
    feasible: bool
    #: True when a wall-clock budget expired mid-search and the remaining
    #: circuit was dumped into one best-effort final block.
    truncated: bool = False

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def n_instances(self) -> int:
        return sum(b.n_clbs for b in self.blocks)

    @property
    def replicated_fraction(self) -> float:
        if not self.n_original_cells:
            return 0.0
        return len(self.replicated_cells) / self.n_original_cells

    def summary(self) -> Dict[str, object]:
        data = self.cost.summary()
        data.update(
            {
                "circuit": self.name,
                "replicated_%": round(100 * self.replicated_fraction, 2),
                "instances": self.n_instances,
                "cells": self.n_original_cells,
                "truncated": self.truncated,
            }
        )
        return data


# ---------------------------------------------------------------------------
# Working-set construction
# ---------------------------------------------------------------------------


def _initial_state(mapped: MappedNetlist) -> Tuple[List[_VCell], List[_VTerm]]:
    live_nets = set(mapped.nets())
    cells = []
    for cell in mapped.cells:
        # Keep only live input nets; translate the mapped cell's name-based
        # supports into pin indices over the filtered input list.
        inputs = [net for net in cell.inputs if net in live_nets]
        index_of = {net: i for i, net in enumerate(inputs)}
        cells.append(
            _VCell(
                name=cell.name,
                original=cell.name,
                inputs=inputs,
                outputs=list(cell.outputs),
                supports=[
                    tuple(index_of[s] for s in sup if s in index_of)
                    for sup in cell.supports
                ],
            )
        )
    terms: List[_VTerm] = []
    for pi in mapped.primary_inputs:
        if pi in live_nets:
            terms.append(_VTerm(name=f"pi:{pi}", net=pi, kind="pi"))
    for po in mapped.primary_outputs:
        terms.append(_VTerm(name=f"po:{po}", net=po, kind="po"))
    return cells, terms


def _build_hg(
    cells: Sequence[_VCell],
    terms: Sequence[_VTerm],
    external_nets: Set[str],
) -> Tuple[Hypergraph, Dict[int, int], Set[int]]:
    """Hypergraph over the working set.

    Returns ``(hg, fixed, pseudo_nodes)``: every external net (one already
    touching a carved block) gets a pseudo terminal pinned to side 1 (the
    remainder) so the carve's cut objective counts it when the carved side
    touches it.
    """
    hg = Hypergraph("carve")
    net_obj: Dict[str, object] = {}

    def net_of(name: str):
        if name not in net_obj:
            net_obj[name] = hg.add_net(name)
        return net_obj[name]

    for cell in cells:
        node = hg.add_node(cell.name, NodeKind.CELL)
        for net in cell.inputs:
            hg.connect_input(node, net_of(net))
        for net in cell.outputs:
            hg.connect_output(node, net_of(net))
        node.supports = [tuple(sup) for sup in cell.supports]
    for term in terms:
        node = hg.add_node(term.name, NodeKind.PI if term.kind == "pi" else NodeKind.PO)
        if term.kind == "pi":
            hg.connect_output(node, net_of(term.net))
        else:
            hg.connect_input(node, net_of(term.net))

    fixed: Dict[int, int] = {}
    pseudo: Set[int] = set()
    present = set(net_obj)
    for net_name in sorted(external_nets & present):
        node = hg.add_node(f"ext:{net_name}", NodeKind.PO)
        hg.connect_input(node, net_obj[net_name])
        fixed[node.index] = 1
        pseudo.add(node.index)
    return hg, fixed, pseudo


# ---------------------------------------------------------------------------
# Carve evaluation
# ---------------------------------------------------------------------------


def _net_pads_side0(
    hg: Hypergraph, engine: ReplicationEngine, pseudo: Set[int]
) -> Set[int]:
    """Nets that carry a real I/O pad assigned to side 0."""
    result: Set[int] = set()
    for node in hg.nodes:
        if node.is_cell or node.index in pseudo:
            continue
        if engine.side[node.index] != 0:
            continue
        for net in list(node.input_nets) + list(node.output_nets):
            result.add(net)
    return result


def _carve_terminals(
    hg: Hypergraph, engine: ReplicationEngine, pseudo: Set[int]
) -> int:
    """Terminal (IOB) demand of side 0 in the current engine state."""
    pad_nets = _net_pads_side0(hg, engine, pseudo)
    t0 = 0
    for net in range(len(hg.nets)):
        c0, c1 = engine.counts[net]
        if c0 <= 0:
            continue
        if c1 > 0 or net in pad_nets:
            t0 += 1
    return t0


#: Side-instance tags (see :func:`_side_instances`).
_WHOLE = "whole"
_ORIGINAL = "orig"
_REPLICA = "repl"


def _side_instances_of(
    hg: Hypergraph,
    sides: Sequence[int],
    reps: Sequence[Optional[Tuple[int, int]]],
    side: int,
) -> List[Tuple[int, str, int]]:
    """Cell instances on ``side`` as ``(node, kind, output)``.

    ``kind`` is ``"whole"`` for an unreplicated cell (``output`` unused),
    ``"repl"`` for the replica instance owning ``output``, and ``"orig"``
    for the original instance of a functional replication, which keeps the
    outputs *other than* ``output``.
    """
    out: List[Tuple[int, str, int]] = []
    for v in range(len(sides)):
        if not hg.nodes[v].is_cell:
            continue
        r = reps[v]
        if r is None:
            if sides[v] == side:
                out.append((v, _WHOLE, -1))
        else:
            s, o = r
            if s == side:
                out.append((v, _ORIGINAL, o))
            if 1 - s == side:
                out.append((v, _REPLICA, o))
    return out


def _side_instances(
    engine: ReplicationEngine, side: int
) -> List[Tuple[int, str, int]]:
    """Engine-state view of :func:`_side_instances_of`."""
    return _side_instances_of(engine.hg, engine.side, engine.rep, side)


@dataclass(slots=True)
class _CarveOutcome:
    """Lightweight record of one finished carve candidate.

    Everything the carve reduction and commit need, without keeping (or
    pickling, from a pool worker) the whole engine: the final
    side/replication state plus the evaluation metrics.
    """

    device_index: int
    sides: List[int]
    reps: List[Optional[Tuple[int, int]]]
    clbs0: int
    n_rep: int
    t0: int
    cut: int


def _engine_outcome(
    engine, pseudo: Set[int], device_index: int
) -> Optional[_CarveOutcome]:
    """Evaluate a finished candidate engine; ``None`` when it made no
    progress (empty or replication-only side 0)."""
    clbs0 = len(_side_instances(engine, 0))
    n_rep = len(engine.replicas())
    if clbs0 == 0 or clbs0 <= n_rep:
        return None
    t0 = _carve_terminals(engine.hg, engine, pseudo)
    return _CarveOutcome(
        device_index=device_index,
        sides=list(engine.side),
        reps=list(engine.rep),
        clbs0=clbs0,
        n_rep=n_rep,
        t0=t0,
        cut=engine.cut_size(),
    )


def _carve_state(shared: Tuple, budget: Optional[Budget]) -> Tuple:
    """State of a carve scan: the level's hypergraph, its replication
    tables and -- for multilevel scans -- the coarsening stack, seeded
    from the k-way seed with the scan's fixed set.  The reference engine
    builds its own structures per run, so it gets no tables."""
    hg, pseudo, proto, ml_seed, reference = shared
    hierarchy: Optional[MultilevelHierarchy] = None
    if ml_seed is not None:
        hierarchy = MultilevelHierarchy(
            CompactHypergraph.from_hypergraph(hg),
            MultilevelConfig(
                seed=ml_seed,
                max_passes=proto["max_passes"],
                fixed=dict(proto["fixed"]),
                budget=budget,
            ),
        )
    tables = None if reference else ReplicationTables(hg)
    return hg, tables, pseudo, proto, hierarchy


def _carve_task(
    state: Tuple, task: Tuple[int, int, int, int], budget: Optional[Budget]
) -> Optional[_CarveOutcome]:
    """One carve candidate: ``(device index, seed, lo0, hi0)`` -> its
    outcome (``None`` for no progress)."""
    hg, tables, pseudo, proto, hierarchy = state
    device_index, seed, lo0, hi0 = task
    config = ReplicationConfig(
        seed=seed, side0_bounds=(lo0, hi0), budget=budget, **proto
    )
    if tables is None:
        from repro.partition.reference import ReferenceReplicationEngine

        reference = ReferenceReplicationEngine(hg, config)
        reference.run()
        return _engine_outcome(reference, pseudo, device_index)
    initial: Optional[List[int]] = None
    if hierarchy is not None:
        initial, _, _ = hierarchy.solve(seed, side0_bounds=(lo0, hi0))
    engine = ReplicationEngine(hg, config, initial=initial, tables=tables)
    engine.run()
    return _engine_outcome(engine, pseudo, device_index)


def _instance_vcell(vc: _VCell, kind: str, o: int, counter: int) -> _VCell:
    """Materialize one instance of ``vc`` per the side-instance tag."""
    if kind == _WHOLE:
        return vc  # whole cell, unchanged
    if kind == _REPLICA:
        # Replica: keeps output ``o`` and exactly its support.
        keep_pins = sorted(set(vc.supports[o]))
        remap = {old: new for new, old in enumerate(keep_pins)}
        return _VCell(
            name=f"{vc.name}~r{counter}",
            original=vc.original,
            inputs=[vc.inputs[p] for p in keep_pins],
            outputs=[vc.outputs[o]],
            supports=[tuple(remap[p] for p in vc.supports[o])],
        )
    # Original of a functional replication: keeps outputs != o.
    kept_outputs = [j for j in range(len(vc.outputs)) if j != o]
    keep_pins = sorted({p for j in kept_outputs for p in vc.supports[j]})
    remap = {old: new for new, old in enumerate(keep_pins)}
    return _VCell(
        name=f"{vc.name}~o{counter}",
        original=vc.original,
        inputs=[vc.inputs[p] for p in keep_pins],
        outputs=[vc.outputs[j] for j in kept_outputs],
        supports=[
            tuple(remap[p] for p in vc.supports[j]) for j in kept_outputs
        ],
    )


def _candidate_devices(
    library: DeviceLibrary, clbs: int, limit: int
) -> List[Device]:
    """Devices worth trying for a carve, most economical first."""
    usable = [
        d
        for d in library.devices
        if d.max_clbs >= 1 and max(1, d.min_clbs) <= min(d.max_clbs, clbs - 1)
    ]
    usable.sort(key=lambda d: (d.price / max(1, min(d.max_clbs, clbs - 1)), d.price))
    return usable[: max(1, limit)]


def _scan_carve_candidates(
    hg: Hypergraph,
    fixed: Dict[int, int],
    pseudo: Set[int],
    candidates: List[Device],
    clbs: int,
    config: "KWayConfig",
    rng: random.Random,
) -> Tuple[Optional[Tuple[Device, _CarveOutcome]], bool]:
    """Scan the fill-band ladder for the best carve candidate.

    Each fill band plans its ``devices_per_carve x seeds_per_carve``
    candidates -- ``(device index, seed, lo0, hi0)``, seeds drawn from
    the k-way ``rng`` in plan order -- runs them with one
    :meth:`~repro.perf.parallel.WorkerPool.map` (in-process at one
    worker) and reduces the outcomes in plan order, so the chosen carve
    is identical for any job count given the same seed.  Returns
    ``((device, outcome) or None, out_of_time)``; the first band
    producing a feasible candidate wins and lower bands are not
    evaluated.  ``out_of_time`` is set when a band starts past the
    budget or stops short of its plan.
    """
    budget = config.budget
    library = config.library
    best: Optional[Tuple[Tuple, Device, _CarveOutcome]] = None
    fallback: Optional[Tuple[Tuple, Device, _CarveOutcome]] = None
    out_of_time = False
    reg = get_registry()
    n_bands = 0
    n_cand = 0

    def consider(outcome: Optional[_CarveOutcome]) -> None:
        nonlocal best, fallback
        if outcome is None:  # no-progress guard
            return
        device = candidates[outcome.device_index]
        remaining_clbs = clbs + outcome.n_rep - outcome.clbs0
        est_cost = device.price + library.lower_bound_cost(remaining_clbs)
        key = (est_cost, outcome.t0, outcome.cut)
        if device.fits(outcome.clbs0, outcome.t0):
            if best is None or key < best[0]:
                best = (key, device, outcome)
        else:
            violation = (
                max(0, outcome.t0 - device.terminals)
                + max(0, device.min_clbs - outcome.clbs0)
                + max(0, outcome.clbs0 - device.max_clbs)
            )
            fb_key = (violation,) + key
            if fallback is None or fb_key < fallback[0]:
                fallback = (fb_key, device, outcome)

    reference = config.engine == "reference"
    use_ml = not reference and resolve_multilevel(config.multilevel, clbs)
    if use_ml and reg.enabled:
        reg.counter("kway.multilevel_scans").inc()
    proto = dict(
        threshold=config.threshold,
        style=config.style,
        max_passes=_CARVE_MAX_PASSES,
        fixed=dict(fixed),
    )
    shared = (
        hg, frozenset(pseudo), proto, config.seed if use_ml else None, reference
    )
    jobs = 1 if reference else config.jobs
    with WorkerPool(_carve_state, shared, _carve_task, jobs, budget) as pool:
        for fill in config.carve_fill_levels:
            if budget is not None and budget.expired:
                out_of_time = True
                break
            plan: List[Tuple[int, int, int, int]] = []
            for di, device in enumerate(candidates):
                hi0 = min(device.max_clbs, clbs - 1)
                lo0 = max(1, device.min_clbs, int(fill * hi0))
                if lo0 > hi0:
                    continue
                for _ in range(config.seeds_per_carve):
                    plan.append((di, rng.randrange(1 << 30), lo0, hi0))
            outcomes = pool.map(plan)
            n_bands += 1
            n_cand += len(outcomes)
            for outcome in outcomes:
                consider(outcome)
            out_of_time = len(outcomes) < len(plan)
            if best is not None or out_of_time:
                break  # highest workable fill band wins
    if reg.enabled:
        reg.counter("kway.fill_bands").inc(n_bands)
        reg.counter("kway.candidates").inc(n_cand)
    chosen = best or fallback
    if chosen is None:
        return None, out_of_time
    return (chosen[1], chosen[2]), out_of_time


# ---------------------------------------------------------------------------
# Main driver
# ---------------------------------------------------------------------------


def partition_heterogeneous(
    mapped: MappedNetlist,
    config: Optional[KWayConfig] = None,
) -> KWaySolution:
    """Partition a mapped netlist into heterogeneous devices (eqs. 1-2)."""
    config = config or KWayConfig()
    reg = get_registry()
    if reg.enabled:
        with reg.span(
            "kway.partition",
            circuit=mapped.name,
            style=config.style,
            threshold=str(config.threshold),
            seed=config.seed,
        ):
            return _partition_heterogeneous(mapped, config, reg)
    return _partition_heterogeneous(mapped, config, None)


def _partition_heterogeneous(
    mapped: MappedNetlist,
    config: KWayConfig,
    reg,
) -> KWaySolution:
    library = config.library
    rng = random.Random(config.seed)

    cells, terms = _initial_state(mapped)
    n_original = len(cells)
    blocks: List[BlockResult] = []
    carved_nets: Set[str] = set()
    instance_counter = 0
    budget = config.budget
    truncated = False

    while True:
        faults.maybe_fire("kway.carve", index=len(blocks), style=config.style)
        if len(blocks) >= config.max_blocks:
            raise InfeasibleError(
                "block limit exceeded; circuit cannot be carved"
            )
        exhausted = budget is not None and budget.expired
        clbs = len(cells)
        present_nets: Set[str] = set()
        pad_nets: Set[str] = {t.net for t in terms}
        for cell in cells:
            present_nets.update(cell.inputs)
            present_nets.update(cell.outputs)
        present_nets.update(pad_nets)
        t_all = sum(
            1 for net in present_nets if net in carved_nets or net in pad_nets
        )
        final_dev = library.cheapest_fit(clbs, t_all)
        if final_dev is not None or clbs <= 1 or exhausted:
            if final_dev is None:
                # Only an expired budget forces this exit with > 1 CLB left.
                truncated = truncated or (exhausted and clbs > 1)
                final_dev = library.largest  # best effort; marked infeasible
            blocks.append(
                BlockResult(
                    index=len(blocks),
                    device=final_dev,
                    cells=[c.name for c in cells],
                    originals=[c.original for c in cells],
                    pads=[t.name for t in terms],
                    nets=set(present_nets),
                    pad_nets=set(pad_nets),
                    cell_inputs=[list(c.inputs) for c in cells],
                    cell_outputs=[list(c.outputs) for c in cells],
                )
            )
            if reg is not None:
                reg.counter("kway.carve_levels").inc()
                reg.emit_event(
                    "kway.final_block",
                    level=len(blocks) - 1,
                    device=final_dev.name,
                    clbs=clbs,
                    truncated=truncated,
                )
            break

        # ---- evaluate carve candidates ---------------------------------
        candidates = _candidate_devices(library, clbs, config.devices_per_carve)
        hg, fixed, pseudo = _build_hg(cells, terms, carved_nets)
        carve_span = (
            reg.span(
                "kway.carve",
                level=len(blocks),
                clbs=clbs,
                candidates=len(candidates),
            )
            if reg is not None
            else NULL_SPAN
        )
        with carve_span:
            chosen_pair = _scan_carve_candidates(
                hg, fixed, pseudo, candidates, clbs, config, rng
            )
        chosen, out_of_time = chosen_pair
        if chosen is None:
            if out_of_time:
                # Expired mid-evaluation with nothing usable: loop back so
                # the exhausted check above finalizes.
                continue
            raise InfeasibleError(
                f"no carve candidate for {clbs} CLBs; library too small"
            )
        device, outcome = chosen

        # ---- commit the carve ------------------------------------------
        name_to_vcell = {c.name: c for c in cells}
        block_cells: List[str] = []
        block_originals: List[str] = []
        block_cell_inputs: List[List[str]] = []
        block_cell_outputs: List[List[str]] = []
        for v, kind, o in _side_instances_of(hg, outcome.sides, outcome.reps, 0):
            inst = _instance_vcell(
                name_to_vcell[hg.nodes[v].name], kind, o, instance_counter
            )
            instance_counter += 1
            block_cells.append(inst.name)
            block_originals.append(inst.original)
            block_cell_inputs.append(list(inst.inputs))
            block_cell_outputs.append(list(inst.outputs))
        new_cells: List[_VCell] = []
        for v, kind, o in _side_instances_of(hg, outcome.sides, outcome.reps, 1):
            inst = _instance_vcell(
                name_to_vcell[hg.nodes[v].name], kind, o, instance_counter
            )
            instance_counter += 1
            new_cells.append(inst)

        term_by_name = {t.name: t for t in terms}
        block_pads: List[str] = []
        block_pad_nets: Set[str] = set()
        new_terms: List[_VTerm] = []
        for node in hg.nodes:
            if node.is_cell or node.index in pseudo:
                continue
            term = term_by_name[node.name]
            if outcome.sides[node.index] == 0:
                block_pads.append(term.name)
                block_pad_nets.add(term.net)
            else:
                new_terms.append(term)

        # Net presence derived from the committed instances' pins + pads:
        # the checker in repro.partition.verify re-derives the same sets.
        block_nets: Set[str] = set(block_pad_nets)
        for nets_list in block_cell_inputs:
            block_nets.update(nets_list)
        for nets_list in block_cell_outputs:
            block_nets.update(nets_list)

        blocks.append(
            BlockResult(
                index=len(blocks),
                device=device,
                cells=block_cells,
                originals=block_originals,
                pads=block_pads,
                nets=block_nets,
                pad_nets=block_pad_nets,
                cell_inputs=block_cell_inputs,
                cell_outputs=block_cell_outputs,
            )
        )
        carved_nets |= block_nets
        cells = new_cells
        terms = new_terms
        if reg is not None:
            reg.counter("kway.carve_levels").inc()
            reg.emit_event(
                "kway.carve_committed",
                level=len(blocks) - 1,
                device=device.name,
                clbs0=outcome.clbs0,
                terminals=outcome.t0,
                cut=outcome.cut,
                replicated=outcome.n_rep,
            )

    return _finalize(mapped.name, blocks, n_original, truncated=truncated)


def _finalize(
    name: str, blocks: List[BlockResult], n_original: int, truncated: bool = False
) -> KWaySolution:
    """Global terminal accounting + objective computation."""
    net_blocks: Dict[str, Set[int]] = {}
    for block in blocks:
        for net in block.nets:
            net_blocks.setdefault(net, set()).add(block.index)
    for block in blocks:
        t = 0
        for net in block.nets:
            if len(net_blocks[net]) > 1 or net in block.pad_nets:
                t += 1
        block.terminals = t

    cost = solution_cost([(b.device, b.n_clbs, b.terminals) for b in blocks])

    # A cell counts as replicated when the solution holds > 1 instance of it.
    counts: Dict[str, int] = {}
    for block in blocks:
        for orig in block.originals:
            counts[orig] = counts.get(orig, 0) + 1
    replicated = {orig for orig, c in counts.items() if c > 1}

    return KWaySolution(
        name=name,
        blocks=blocks,
        cost=cost,
        n_original_cells=n_original,
        replicated_cells=replicated,
        feasible=cost.feasible,
        truncated=truncated,
    )


def best_heterogeneous_partition(
    mapped: MappedNetlist,
    config: Optional[KWayConfig] = None,
    n_solutions: int = 1,
) -> KWaySolution:
    """Run the k-way flow ``n_solutions`` times; keep the best solution.

    "Best" is the lexicographic objective of the paper: lowest total device
    cost (eq. 1), then lowest average IOB utilization (eq. 2); infeasible
    solutions lose to feasible ones.
    """
    config = config or KWayConfig()
    best: Optional[KWaySolution] = None
    for i in range(max(1, n_solutions)):
        if (
            best is not None
            and config.budget is not None
            and config.budget.expired
        ):
            break
        run_cfg = replace(config, seed=config.seed * 9973 + i)
        sol = partition_heterogeneous(mapped, run_cfg)
        if best is None:
            best = sol
            continue
        key = (not sol.feasible,) + sol.cost.objective_key()
        best_key = (not best.feasible,) + best.cost.objective_key()
        if key < best_key:
            best = sol
    assert best is not None
    return best
