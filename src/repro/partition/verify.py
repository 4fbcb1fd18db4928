"""Independent verification of k-way solutions.

The partitioner's bookkeeping is intricate (instances, replication across
carve levels, global terminal accounting), so this module re-derives every
solution-level claim from first principles -- the instance pin lists and
the original mapped netlist -- and reports violations.  It checks:

* **coverage** -- every original cell has at least one instance;
* **single driver** -- every output net of every original cell is driven by
  exactly one instance across the whole solution (functional replication
  assigns each output to exactly one side);
* **support closure** -- each instance's input set is a union of supports of
  the outputs it drives (no phantom pins, no missing pins);
* **net presence** -- each block's net set equals the union of its
  instances' pins and its pads' nets;
* **drivers exist** -- every net read somewhere is driven by an instance or
  a primary-input pad somewhere;
* **terminal rule** -- block terminal counts match the paper's IOB rule
  (one IOB per net that crosses blocks or carries a local pad);
* **capacity** -- a solution claiming feasibility satisfies every device's
  CLB window and terminal limit;
* **pads** -- every primary input that drives logic and every primary
  output pad is placed exactly once.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set

from repro.partition.kway import KWaySolution
from repro.robust.errors import VerificationError
from repro.techmap.mapped import MappedNetlist


def verify_solution(
    mapped: MappedNetlist,
    solution: KWaySolution,
    raise_on_violation: bool = False,
) -> List[str]:
    """Return a list of violation descriptions (empty = solution verified).

    With ``raise_on_violation=True`` a non-empty list raises
    :class:`~repro.robust.errors.VerificationError` carrying the full
    violation list, which is how every k-way attempt of
    :func:`repro.api.run_request` uses this checker as a post-run gate
    (reject-and-retry on corrupt solutions).
    """
    problems: List[str] = []
    cell_by_name = {cell.name: cell for cell in mapped.cells}

    # ---- coverage and single-driver ------------------------------------
    instance_count: Dict[str, int] = defaultdict(int)
    output_drivers: Dict[str, int] = defaultdict(int)
    for block in solution.blocks:
        if not (
            len(block.cells)
            == len(block.originals)
            == len(block.cell_inputs)
            == len(block.cell_outputs)
        ):
            problems.append(f"block {block.index}: ragged instance arrays")
            continue
        for orig, outputs in zip(block.originals, block.cell_outputs):
            instance_count[orig] += 1
            for net in outputs:
                output_drivers[net] += 1
    for cell in mapped.cells:
        if instance_count.get(cell.name, 0) < 1:
            problems.append(f"cell {cell.name} has no instance in any block")
    for cell in mapped.cells:
        for net in cell.outputs:
            drivers = output_drivers.get(net, 0)
            if drivers != 1:
                problems.append(
                    f"output net {net!r} of {cell.name} driven by {drivers} instances"
                )

    # ---- support closure ------------------------------------------------
    # The live nets -- the keys of ``mapped.nets()``: every net a cell
    # reads plus every primary output -- without building the driver and
    # sink records that the checks never read.
    live: Set[str] = set(mapped.primary_outputs)
    for cell in mapped.cells:
        live.update(cell.inputs)
    for block in solution.blocks:
        for orig, inputs, outputs in zip(
            block.originals, block.cell_inputs, block.cell_outputs
        ):
            cell = cell_by_name.get(orig)
            if cell is None:
                problems.append(f"block {block.index}: unknown original {orig!r}")
                continue
            owned = set(outputs)
            expected: Set[str] = set()
            for oi, net in enumerate(cell.outputs):
                if net in owned:
                    expected.update(cell.supports[oi])
            got = set(inputs)
            if not got <= set(cell.inputs):
                problems.append(
                    f"instance of {orig} in block {block.index} has phantom inputs"
                )
            missing = expected - got
            # A support net may legitimately be absent when it was dead in
            # the mapped netlist (no live net); anything else is a bug.
            missing = {m for m in missing if m in live}
            if missing:
                problems.append(
                    f"instance of {orig} in block {block.index} misses inputs {sorted(missing)[:3]}"
                )
            extra = got - expected
            if extra:
                problems.append(
                    f"instance of {orig} in block {block.index} carries unneeded inputs {sorted(extra)[:3]}"
                )

    # ---- net presence and drivers ----------------------------------------
    for block in solution.blocks:
        derived: Set[str] = set(block.pad_nets)
        for inputs in block.cell_inputs:
            derived.update(inputs)
        for outputs in block.cell_outputs:
            derived.update(outputs)
        if derived != block.nets:
            problems.append(
                f"block {block.index}: net presence mismatch "
                f"(+{len(block.nets - derived)}/-{len(derived - block.nets)})"
            )
    read_nets: Set[str] = set()
    driven: Set[str] = set(output_drivers)
    pi_pads = set()
    for block in solution.blocks:
        for inputs in block.cell_inputs:
            read_nets.update(inputs)
        for pad in block.pads:
            if pad.startswith("pi:"):
                pi_pads.add(pad[3:])
    for net in read_nets:
        if net not in driven and net not in pi_pads:
            problems.append(f"net {net!r} is read but driven nowhere")

    # ---- terminal rule ----------------------------------------------------
    net_blocks: Dict[str, Set[int]] = defaultdict(set)
    for block in solution.blocks:
        for net in block.nets:
            net_blocks[net].add(block.index)
    for block in solution.blocks:
        expect = sum(
            1
            for net in block.nets
            if len(net_blocks[net]) > 1 or net in block.pad_nets
        )
        if block.terminals != expect:
            problems.append(
                f"block {block.index}: terminals {block.terminals} != expected {expect}"
            )

    # ---- capacity -----------------------------------------------------------
    if solution.feasible:
        for block in solution.blocks:
            if not block.device.fits(block.n_clbs, block.terminals):
                problems.append(
                    f"block {block.index} claims feasibility but violates "
                    f"{block.device.name} limits "
                    f"({block.n_clbs} CLBs, {block.terminals} IOBs)"
                )

    # ---- pads -----------------------------------------------------------------
    pad_placements: Dict[str, int] = defaultdict(int)
    for block in solution.blocks:
        for pad in block.pads:
            pad_placements[pad] += 1
    for pad, count in pad_placements.items():
        if count != 1:
            problems.append(f"pad {pad!r} placed {count} times")
    for po in mapped.primary_outputs:
        if pad_placements.get(f"po:{po}", 0) != 1:
            problems.append(f"primary output pad po:{po} not placed exactly once")
    for pi in mapped.primary_inputs:
        if pi in live and pad_placements.get(f"pi:{pi}", 0) != 1:
            problems.append(f"primary input pad pi:{pi} not placed exactly once")

    if problems and raise_on_violation:
        raise VerificationError(problems, circuit=solution.name)
    return problems
