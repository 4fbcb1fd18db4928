"""Tests for the independent k-way solution verifier."""

from collections import defaultdict
from typing import Dict, List, Set

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.codec import decode_solution, encode_solution
from repro.netlist.benchmarks import benchmark_circuit
from repro.partition.devices import Device, DeviceLibrary
from repro.partition.kway import KWayConfig, T_OFF, partition_heterogeneous
from repro.partition.verify import verify_solution
from repro.techmap.mapped import MappedCell, MappedNetlist, technology_map

LIB = DeviceLibrary(
    [
        Device("T16", 16, 24, 10, util_upper=0.95),
        Device("T32", 32, 36, 17, util_upper=0.95),
        Device("T64", 64, 52, 30, util_upper=0.95),
    ]
)


@pytest.fixture(scope="module")
def mapped():
    return technology_map(benchmark_circuit("s5378", scale=0.12, seed=7))


@pytest.mark.parametrize("threshold", [T_OFF, 0, 1, 2])
def test_solutions_verify_clean(mapped, threshold):
    sol = partition_heterogeneous(
        mapped,
        KWayConfig(library=LIB, threshold=threshold, seed=3, seeds_per_carve=2),
    )
    assert verify_solution(mapped, sol) == []


def test_combinational_circuit_verifies():
    mapped = technology_map(benchmark_circuit("c6288", scale=0.25, seed=2))
    sol = partition_heterogeneous(
        mapped, KWayConfig(library=LIB, threshold=0, seed=5, seeds_per_carve=2)
    )
    assert verify_solution(mapped, sol) == []


class TestDetectsCorruption:
    @pytest.fixture()
    def solution(self, mapped):
        return partition_heterogeneous(
            mapped, KWayConfig(library=LIB, threshold=1, seed=3, seeds_per_carve=2)
        )

    def test_missing_instance(self, mapped, solution):
        block = max(solution.blocks, key=lambda b: b.n_clbs)
        block.cells.pop()
        block.originals.pop()
        block.cell_inputs.pop()
        block.cell_outputs.pop()
        problems = verify_solution(mapped, solution)
        assert problems

    def test_duplicate_driver(self, mapped, solution):
        src = solution.blocks[0]
        dst = solution.blocks[-1]
        dst.cells.append(src.cells[0] + "~dup")
        dst.originals.append(src.originals[0])
        dst.cell_inputs.append(list(src.cell_inputs[0]))
        dst.cell_outputs.append(list(src.cell_outputs[0]))
        problems = verify_solution(mapped, solution)
        assert any("driven by" in p for p in problems)

    def test_wrong_terminal_count(self, mapped, solution):
        solution.blocks[0].terminals += 1
        problems = verify_solution(mapped, solution)
        assert any("terminals" in p for p in problems)

    def test_misplaced_pad(self, mapped, solution):
        donor = next(b for b in solution.blocks if b.pads)
        pad = donor.pads[0]
        other = solution.blocks[-1] if donor is not solution.blocks[-1] else solution.blocks[0]
        other.pads.append(pad)
        problems = verify_solution(mapped, solution)
        assert any("placed 2 times" in p for p in problems)

    def test_net_presence_mismatch(self, mapped, solution):
        solution.blocks[0].nets.add("__phantom_net__")
        problems = verify_solution(mapped, solution)
        assert any("net presence" in p for p in problems)


def test_verify_builds_the_live_net_map_once(mapped, monkeypatch):
    from repro.techmap.mapped import MappedNetlist

    sol = partition_heterogeneous(
        mapped, KWayConfig(library=LIB, threshold=1, seed=3, seeds_per_carve=2)
    )
    calls = []
    real_nets = MappedNetlist.nets

    def counting_nets(self):
        calls.append(1)
        return real_nets(self)

    monkeypatch.setattr(MappedNetlist, "nets", counting_nets)
    assert verify_solution(mapped, sol) == []
    # The live nets are the cells' inputs plus the primary outputs, the
    # keys of ``nets()``, so the driver/sink records are never built.
    assert calls == []


# ---------------------------------------------------------------------------
# Oracle: the checker as per-cell and per-net loops only
# ---------------------------------------------------------------------------


def _oracle_verify(mapped, solution) -> List[str]:
    """``verify_solution`` without its set-level fast paths and without
    the eq. 1/eq. 2 check: every check runs its per-cell or per-net loop."""
    problems: List[str] = []
    cell_by_name = {cell.name: cell for cell in mapped.cells}

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
            missing = {m for m in expected - got if m in live}
            if missing:
                problems.append(
                    f"instance of {orig} in block {block.index} misses inputs {sorted(missing)[:3]}"
                )
            extra = got - expected
            if extra:
                problems.append(
                    f"instance of {orig} in block {block.index} carries unneeded inputs {sorted(extra)[:3]}"
                )

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

    if solution.feasible:
        for block in solution.blocks:
            if not block.device.fits(block.n_clbs, block.terminals):
                problems.append(
                    f"block {block.index} claims feasibility but violates "
                    f"{block.device.name} limits "
                    f"({block.n_clbs} CLBs, {block.terminals} IOBs)"
                )

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
    return problems


def _objective_lines(problems: List[str]) -> List[str]:
    return [p for p in problems if p.startswith(("eq. 1:", "eq. 2:"))]


@pytest.fixture(scope="module")
def solved_docs(mapped):
    """Encoded real solutions (decoded afresh for every corruption)."""
    c6288 = technology_map(benchmark_circuit("c6288", scale=0.25, seed=2))
    docs = []
    for netlist, threshold, seed in (
        (mapped, 1, 3),
        (mapped, T_OFF, 4),
        (mapped, 0, 5),
        (c6288, 2, 6),
    ):
        solution = partition_heterogeneous(
            netlist,
            KWayConfig(library=LIB, threshold=threshold, seed=seed, seeds_per_carve=2),
        )
        assert len(solution.blocks) >= 2
        assert verify_solution(netlist, solution) == []
        assert _oracle_verify(netlist, solution) == []
        docs.append((netlist, encode_solution(solution)))
    return docs


def _pick(draw, seq):
    return seq[draw(st.integers(0, len(seq) - 1))]


def _arrays(block):
    return (block.cells, block.originals, block.cell_inputs, block.cell_outputs)


def _instance(draw, solution):
    """(block, slot) of an instance every array of its block still has."""
    block = _pick(draw, [b for b in solution.blocks if min(map(len, _arrays(b)))])
    return block, draw(st.integers(0, min(map(len, _arrays(block))) - 1))


def _drop_instance(draw, mapped, solution):
    block, slot = _instance(draw, solution)
    for array in _arrays(block):
        array.pop(slot)


def _duplicate_instance(draw, mapped, solution):
    block, slot = _instance(draw, solution)
    dst = _pick(draw, solution.blocks)
    dst.cells.append(block.cells[slot] + "~dup")
    dst.originals.append(block.originals[slot])
    dst.cell_inputs.append(list(block.cell_inputs[slot]))
    dst.cell_outputs.append(list(block.cell_outputs[slot]))


def _unknown_instance(draw, mapped, solution):
    block, slot = _instance(draw, solution)
    block.originals[slot] = "__ghost__"


def _phantom_input(draw, mapped, solution):
    block, slot = _instance(draw, solution)
    net = _pick(draw, ["__phantom__", *mapped.primary_inputs, *mapped.cells[0].outputs])
    block.cell_inputs[slot] = [*block.cell_inputs[slot], net]


def _missing_input(draw, mapped, solution):
    block, slot = _instance(draw, solution)
    inputs = list(block.cell_inputs[slot])
    if inputs:
        inputs.pop(draw(st.integers(0, len(inputs) - 1)))
    block.cell_inputs[slot] = inputs


def _extra_input(draw, mapped, solution):
    block, slot = _instance(draw, solution)
    cell = {c.name: c for c in mapped.cells}.get(block.originals[slot])
    if cell is not None and cell.inputs:
        block.cell_inputs[slot] = [*block.cell_inputs[slot], _pick(draw, cell.inputs)]


def _shuffled_pins(draw, mapped, solution):
    block, slot = _instance(draw, solution)
    for array in (block.cell_inputs, block.cell_outputs):
        array[slot] = list(reversed(array[slot]))


def _dropped_output(draw, mapped, solution):
    block, slot = _instance(draw, solution)
    outputs = list(block.cell_outputs[slot])
    if outputs:
        outputs.pop(draw(st.integers(0, len(outputs) - 1)))
    block.cell_outputs[slot] = outputs


def _ragged_arrays(draw, mapped, solution):
    block, _ = _instance(draw, solution)
    _pick(draw, _arrays(block)).pop()


def _wrong_terminals(draw, mapped, solution):
    block = _pick(draw, solution.blocks)
    block.terminals += draw(st.sampled_from([-2, -1, 1, 3]))


def _duplicated_pad(draw, mapped, solution):
    donors = [b for b in solution.blocks if b.pads]
    if donors:
        donor = _pick(draw, donors)
        _pick(draw, solution.blocks).pads.append(_pick(draw, donor.pads))


def _dropped_pad(draw, mapped, solution):
    donors = [b for b in solution.blocks if b.pads]
    if donors:
        donor = _pick(draw, donors)
        donor.pads.pop(draw(st.integers(0, len(donor.pads) - 1)))


def _edited_nets(draw, mapped, solution):
    block = _pick(draw, solution.blocks)
    other = _pick(draw, solution.blocks)
    choice = draw(st.integers(0, 2))
    if choice == 0:
        block.nets.add("__phantom_net__")
    elif choice == 1 and block.nets:
        block.nets.discard(_pick(draw, sorted(block.nets)))
    elif other.nets:
        block.nets.add(_pick(draw, sorted(other.nets)))


def _repeated_index(draw, mapped, solution):
    block = _pick(draw, solution.blocks)
    block.index = _pick(draw, solution.blocks).index


def _claimed_feasible(draw, mapped, solution):
    solution.feasible = not solution.feasible


CORRUPTIONS = (
    _drop_instance,
    _duplicate_instance,
    _unknown_instance,
    _phantom_input,
    _missing_input,
    _extra_input,
    _shuffled_pins,
    _dropped_output,
    _ragged_arrays,
    _wrong_terminals,
    _duplicated_pad,
    _dropped_pad,
    _edited_nets,
    _repeated_index,
    _claimed_feasible,
)


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_corrupted_solutions_match_the_oracle(solved_docs, data):
    netlist, doc = _pick(data.draw, solved_docs)
    solution = decode_solution(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        _pick(data.draw, CORRUPTIONS)(data.draw, netlist, solution)
    problems = verify_solution(netlist, solution)
    expected = _oracle_verify(netlist, solution)
    assert [p for p in problems if p not in _objective_lines(problems)] == expected
    # Only a terminal count the rule disagrees with can move eq. 2, and
    # nothing here changes a device, so eq. 1 always holds.
    assert not any(p.startswith("eq. 1:") for p in problems)


@pytest.mark.parametrize("defect", ["unread input pin", "support off the pins"])
def test_malformed_cells_match_the_oracle(solved_docs, defect):
    """A whole-cell instance passes only when its cell's pins are exactly
    its supports' union, which a mapped netlist does not itself enforce."""
    netlist, doc = solved_docs[0]
    solution = decode_solution(doc)
    by_name = {cell.name: cell for cell in netlist.cells}
    block, slot = next(
        (block, slot)
        for block in solution.blocks
        for slot, (orig, inputs, outputs) in enumerate(
            zip(block.originals, block.cell_inputs, block.cell_outputs)
        )
        if outputs == by_name[orig].outputs and inputs == by_name[orig].inputs
    )
    cell = by_name[block.originals[slot]]
    read = {net for other in netlist.cells for net in other.inputs}
    spare = next(
        pi for pi in netlist.primary_inputs if pi in read and pi not in cell.inputs
    )
    inputs, supports = list(cell.inputs), [list(sup) for sup in cell.supports]
    if defect == "unread input pin":
        inputs.append(spare)
    else:
        supports[0].append(spare)
    bad = MappedCell(
        name=cell.name,
        inputs=inputs,
        outputs=list(cell.outputs),
        supports=supports,
        masks=list(cell.masks),
        registered=list(cell.registered),
    )
    malformed = MappedNetlist(
        netlist.name,
        [bad if other is cell else other for other in netlist.cells],
        netlist.primary_inputs,
        netlist.primary_outputs,
    )
    block.cell_inputs[slot] = list(inputs)
    block.nets.update(inputs)
    problems = verify_solution(malformed, solution)
    closure = [p for p in problems if p.startswith(f"instance of {cell.name} ")]
    assert closure, problems
    assert [p for p in problems if p not in _objective_lines(problems)] == (
        _oracle_verify(malformed, solution)
    )


def test_objectives_are_recomputed(solved_docs):
    from dataclasses import replace

    netlist, doc = solved_docs[0]
    solution = decode_solution(doc)
    usage = solution.cost.blocks
    # A block whose reported device is not the one it sits on.
    other = next(d for d in LIB.devices if d.name != usage[0].device.name)
    usage[0] = replace(usage[0], device=other)
    problems = verify_solution(netlist, solution)
    assert _objective_lines(problems) == problems and len(problems) == 2
    assert problems[0].startswith("eq. 1: total device cost")
    assert problems[1].startswith("eq. 2: average IOB utilization")

    solution = decode_solution(doc)
    solution.cost.blocks[-1] = replace(
        solution.cost.blocks[-1], terminals=solution.cost.blocks[-1].terminals + 1
    )
    problems = verify_solution(netlist, solution)
    assert len(problems) == 1 and problems[0].startswith("eq. 2:")
