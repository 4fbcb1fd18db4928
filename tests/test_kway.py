"""Tests for the heterogeneous k-way partitioner."""

import pytest

from repro.partition.devices import Device, DeviceLibrary
from repro.partition.kway import (
    KWayConfig,
    best_heterogeneous_partition,
    partition_heterogeneous,
)
from repro.replication.potential import T_INFINITY

#: A small library scaled to the test circuits so k > 1.
TINY_LIBRARY = DeviceLibrary(
    [
        Device("T16", clbs=16, terminals=24, price=10, util_upper=0.95),
        Device("T32", clbs=32, terminals=36, price=17, util_upper=0.95),
        Device("T64", clbs=64, terminals=52, price=30, util_upper=0.95),
    ],
    name="tiny",
)


@pytest.fixture(scope="module")
def mapped():
    from repro.netlist.benchmarks import benchmark_circuit
    from repro.techmap.mapped import technology_map

    return technology_map(benchmark_circuit("s5378", scale=0.12, seed=7))


@pytest.fixture(scope="module")
def solution(mapped):
    return partition_heterogeneous(
        mapped,
        KWayConfig(library=TINY_LIBRARY, threshold=1, seed=3, seeds_per_carve=2),
    )


@pytest.fixture(scope="module")
def baseline(mapped):
    return partition_heterogeneous(
        mapped,
        KWayConfig(library=TINY_LIBRARY, threshold=T_INFINITY, style="none", seed=3, seeds_per_carve=2),
    )


class TestStructure:
    def test_multiway(self, solution):
        assert solution.k >= 2

    def test_every_original_cell_placed(self, mapped, solution):
        placed = set()
        for block in solution.blocks:
            placed.update(block.originals)
        originals = {c.name for c in mapped.cells}
        assert placed == originals

    def test_instance_count_geq_cells(self, mapped, solution):
        assert solution.n_instances >= mapped.n_cells
        extra = solution.n_instances - mapped.n_cells
        assert extra >= len(solution.replicated_cells)

    def test_block_sizes_match(self, solution):
        for block in solution.blocks:
            assert block.n_clbs == len(block.cells)
            assert len(block.cells) == len(block.originals)

    def test_pads_partitioned(self, mapped, solution):
        pads = [p for block in solution.blocks for p in block.pads]
        assert len(pads) == len(set(pads))
        # every PO pad placed exactly once
        po_pads = [p for p in pads if p.startswith("po:")]
        assert len(po_pads) == len(mapped.primary_outputs)


class TestTerminalAccounting:
    def test_terminal_rule(self, solution):
        net_blocks = {}
        for block in solution.blocks:
            for net in block.nets:
                net_blocks.setdefault(net, set()).add(block.index)
        for block in solution.blocks:
            expect = sum(
                1
                for net in block.nets
                if len(net_blocks[net]) > 1 or net in block.pad_nets
            )
            assert block.terminals == expect

    def test_cost_object_consistent(self, solution):
        assert solution.cost.k == solution.k
        assert solution.cost.total_cost == sum(
            b.device.price for b in solution.blocks
        )


class TestReplication:
    def test_baseline_has_no_replicas(self, baseline):
        assert not baseline.replicated_cells
        assert baseline.replicated_fraction == 0.0

    def test_replicated_cells_span_blocks(self, solution):
        counts = {}
        for block in solution.blocks:
            for orig in block.originals:
                counts[orig] = counts.get(orig, 0) + 1
        for orig in solution.replicated_cells:
            assert counts[orig] > 1

    def test_replication_fraction_moderate(self, solution):
        # Paper Table IV: single-digit percentages typically.
        assert solution.replicated_fraction <= 0.30


class TestObjectives:
    def test_summary_keys(self, solution):
        data = solution.summary()
        for key in ("k", "cost", "devices", "avg_clb_util", "avg_iob_util"):
            assert key in data

    def test_best_of_picks_leq_cost(self, mapped):
        cfg = KWayConfig(library=TINY_LIBRARY, threshold=1, seed=5, seeds_per_carve=2)
        single = partition_heterogeneous(mapped, cfg)
        best = best_heterogeneous_partition(mapped, cfg, n_solutions=3)
        key_best = (not best.feasible,) + best.cost.objective_key()
        key_single = (not single.feasible,) + single.cost.objective_key()
        assert key_best <= key_single

    def test_deterministic(self, mapped):
        cfg = KWayConfig(library=TINY_LIBRARY, threshold=1, seed=11, seeds_per_carve=2)
        a = partition_heterogeneous(mapped, cfg)
        b = partition_heterogeneous(mapped, cfg)
        assert a.cost.total_cost == b.cost.total_cost
        assert [blk.device.name for blk in a.blocks] == [
            blk.device.name for blk in b.blocks
        ]


class TestEdgeCases:
    def test_single_device_fit(self):
        from repro.netlist.generate import ripple_adder
        from repro.techmap.mapped import technology_map

        mapped = technology_map(ripple_adder("add", 4))
        sol = partition_heterogeneous(
            mapped, KWayConfig(library=TINY_LIBRARY, threshold=1)
        )
        assert sol.k == 1
        assert sol.feasible

    def test_library_too_small_raises_or_infeasible(self, mapped):
        micro = DeviceLibrary(
            [Device("T4", clbs=4, terminals=4, price=1, util_upper=1.0)]
        )
        # Either the carver works (every block <= 4 CLBs with <= 4 terminals
        # is unlikely) or it reports an infeasible best effort; it must not
        # loop forever.
        try:
            sol = partition_heterogeneous(
                mapped,
                KWayConfig(library=micro, threshold=T_INFINITY, style="none",
                           seeds_per_carve=1, devices_per_carve=1, max_blocks=400),
            )
            assert not sol.feasible or sol.k > 10
        except RuntimeError:
            pass
