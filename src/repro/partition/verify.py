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
* **objectives** -- the reported total device cost (eq. 1) is the sum of
  the blocks' device prices, and the reported average IOB utilization
  (eq. 2) is the terminal rule's IOB count over the blocks' IOB capacity;
* **capacity** -- a solution claiming feasibility satisfies every device's
  CLB window and terminal limit;
* **pads** -- every primary input that drives logic and every primary
  output pad is placed exactly once.

A solution that reaches the checker is almost always correct, so each
check first answers with whole-set operations and counts, and runs the
per-cell or per-net loop that names the violations only when that
answer is no.  The problem list is the same either way.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Set

from repro.partition.kway import KWaySolution
from repro.robust.errors import VerificationError
from repro.techmap.mapped import MappedNetlist

_inputs = attrgetter("inputs")
_outputs = attrgetter("outputs")


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
    cells = mapped.cells
    blocks = solution.blocks
    cell_by_name = {cell.name: cell for cell in cells}

    # ---- coverage and single-driver ------------------------------------
    originals: Set[str] = set()
    driver_nets: List[str] = []
    for block in blocks:
        if not (
            len(block.cells)
            == len(block.originals)
            == len(block.cell_inputs)
            == len(block.cell_outputs)
        ):
            problems.append(f"block {block.index}: ragged instance arrays")
            continue
        originals.update(block.originals)
        driver_nets.extend(chain.from_iterable(block.cell_outputs))
    if not originals.issuperset(cell_by_name):
        for cell in cells:
            if cell.name not in originals:
                problems.append(f"cell {cell.name} has no instance in any block")
    driven = set(driver_nets)
    # No net is driven twice and every cell output is driven: then each
    # cell output has exactly one driver.
    if len(driven) != len(driver_nets) or not driven.issuperset(
        chain.from_iterable(map(_outputs, cells))
    ):
        output_drivers = Counter(driver_nets)
        for cell in cells:
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
    live.update(chain.from_iterable(map(_inputs, cells)))
    for block in blocks:
        for orig, inputs, outputs in zip(
            block.originals, block.cell_inputs, block.cell_outputs
        ):
            cell = cell_by_name.get(orig)
            if cell is None:
                problems.append(f"block {block.index}: unknown original {orig!r}")
                continue
            got = set(inputs)
            # An instance that is its whole cell needs exactly the union of
            # the cell's supports.
            if (
                outputs == cell.outputs
                and inputs == cell.inputs
                and got == set().union(*cell.supports)
            ):
                continue
            owned = set(outputs)
            expected: Set[str] = set()
            for oi, net in enumerate(cell.outputs):
                if net in owned:
                    expected.update(cell.supports[oi])
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
    read_nets: Set[str] = set()
    pi_pads = set()
    for block in blocks:
        derived: Set[str] = set(block.pad_nets)
        derived.update(chain.from_iterable(block.cell_inputs))
        derived.update(chain.from_iterable(block.cell_outputs))
        if derived != block.nets:
            problems.append(
                f"block {block.index}: net presence mismatch "
                f"(+{len(block.nets - derived)}/-{len(derived - block.nets)})"
            )
        read_nets.update(chain.from_iterable(block.cell_inputs))
        for pad in block.pads:
            if pad.startswith("pi:"):
                pi_pads.add(pad[3:])
    undriven = read_nets - driven
    if undriven and not pi_pads.issuperset(undriven):
        for net in read_nets:
            if net not in driven and net not in pi_pads:
                problems.append(f"net {net!r} is read but driven nowhere")

    # ---- terminal rule ----------------------------------------------------
    # A net spans blocks when blocks of two different indices hold it; a
    # repeated index counts once, so blocks are grouped by index first.
    by_index: Dict[int, Set[str]] = {}
    for block in blocks:
        nets = by_index.get(block.index)
        by_index[block.index] = block.nets if nets is None else nets | block.nets
    seen: Set[str] = set()
    spanning: Set[str] = set()
    for nets in by_index.values():
        spanning.update(seen.intersection(nets))
        seen.update(nets)
    used: List[int] = []
    for block in blocks:
        local = block.nets - spanning
        expect = len(block.nets) - len(local) + len(local.intersection(block.pad_nets))
        used.append(expect)
        if block.terminals != expect:
            problems.append(
                f"block {block.index}: terminals {block.terminals} != expected {expect}"
            )

    # ---- objectives ---------------------------------------------------------
    total_cost = sum(block.device.price for block in blocks)
    if total_cost != solution.cost.total_cost:
        problems.append(
            f"eq. 1: total device cost {total_cost} != reported "
            f"{solution.cost.total_cost}"
        )
    capacity = sum(block.device.terminals for block in blocks)
    iob_utilization = sum(used) / capacity if capacity else 0.0
    if iob_utilization != solution.cost.avg_iob_utilization:
        problems.append(
            f"eq. 2: average IOB utilization {iob_utilization} != reported "
            f"{solution.cost.avg_iob_utilization}"
        )

    # ---- capacity -----------------------------------------------------------
    if solution.feasible:
        for block in blocks:
            if not block.device.fits(block.n_clbs, block.terminals):
                problems.append(
                    f"block {block.index} claims feasibility but violates "
                    f"{block.device.name} limits "
                    f"({block.n_clbs} CLBs, {block.terminals} IOBs)"
                )

    # ---- pads -----------------------------------------------------------------
    pad_placements: Dict[str, int] = defaultdict(int)
    for block in blocks:
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
