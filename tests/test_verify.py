"""Tests for the independent k-way solution verifier."""

import pytest

from repro.netlist.benchmarks import benchmark_circuit
from repro.partition.devices import Device, DeviceLibrary
from repro.partition.kway import KWayConfig, T_OFF, partition_heterogeneous
from repro.partition.verify import verify_solution
from repro.techmap.mapped import technology_map

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
