"""Tests for the mapped netlist and the end-to-end technology mapping."""

import os
import random
import subprocess
import sys

import pytest

from repro.netlist.benchmarks import benchmark_circuit
from repro.netlist.generate import array_multiplier, ripple_adder
from repro.techmap.mapped import MappedCell, MappedNetlist, technology_map
from tests.conftest import random_small_netlist


class TestMappedCell:
    def test_adjacency_vectors(self):
        cell = MappedCell(
            name="c",
            inputs=["a", "b", "c"],
            outputs=["x", "y"],
            supports=[["a", "b"], ["b", "c"]],
            masks=[0b1000, 0b0110],
            registered=[False, False],
        )
        assert cell.adjacency_vector(0) == (1, 1, 0)
        assert cell.adjacency_vector(1) == (0, 1, 1)
        assert cell.n_pins == 5

    def test_evaluate_output(self):
        cell = MappedCell(
            name="c",
            inputs=["a", "b"],
            outputs=["x"],
            supports=[["a", "b"]],
            masks=[0b1000],  # AND
            registered=[False],
        )
        assert cell.evaluate_output(0, {"a": 1, "b": 1}) == 1
        assert cell.evaluate_output(0, {"a": 1, "b": 0}) == 0


class TestMappingEquivalence:
    def test_combinational_equivalence(self):
        n = array_multiplier("m", 3)
        mapped = technology_map(n)
        rng = random.Random(1)
        for _ in range(30):
            vec = {pi: rng.randrange(2) for pi in n.inputs}
            assert n.simulate([vec]) == mapped.simulate([vec])

    def test_adder_equivalence(self):
        n = ripple_adder("add", 6)
        mapped = technology_map(n)
        rng = random.Random(2)
        for _ in range(20):
            vec = {pi: rng.randrange(2) for pi in n.inputs}
            assert n.simulate([vec]) == mapped.simulate([vec])

    def test_sequential_equivalence(self, seq_netlist):
        mapped = technology_map(seq_netlist)
        vecs = [{"en": i % 2} for i in range(8)]
        assert seq_netlist.simulate(vecs) == mapped.simulate(vecs)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_equivalence(self, seed):
        n = random_small_netlist(seed, n_gates=50)
        mapped = technology_map(n)
        rng = random.Random(seed + 100)
        for _ in range(8):
            vec = {pi: rng.randrange(2) for pi in n.inputs}
            assert n.simulate([vec]) == mapped.simulate([vec])

    def test_benchmark_sequential_equivalence(self):
        n = benchmark_circuit("s5378", scale=0.06, seed=5)
        mapped = technology_map(n)
        rng = random.Random(7)
        vecs = [{pi: rng.randrange(2) for pi in n.inputs} for _ in range(10)]
        assert n.simulate(vecs) == mapped.simulate(vecs)


class TestMappedStructure:
    def test_xc3000_limits(self):
        n = benchmark_circuit("c3540", scale=0.1)
        mapped = technology_map(n)
        for cell in mapped.cells:
            assert 1 <= cell.n_outputs <= 2
            assert len(cell.inputs) <= 5
            if cell.n_outputs == 2:
                for sup in cell.supports:
                    assert len(sup) <= 4

    def test_unique_drivers(self):
        n = benchmark_circuit("c3540", scale=0.1)
        mapped = technology_map(n)
        seen = set()
        for cell in mapped.cells:
            for out in cell.outputs:
                assert out not in seen
                seen.add(out)

    def test_counts(self, tiny_netlist):
        mapped = technology_map(tiny_netlist)
        assert mapped.n_iobs == len(tiny_netlist.inputs) + len(tiny_netlist.outputs)
        assert mapped.n_cells >= 1
        assert mapped.n_pins > 0
        assert mapped.n_nets > 0

    def test_multi_output_cells_exist(self):
        n = benchmark_circuit("c6288", scale=0.2)
        mapped = technology_map(n)
        assert mapped.n_multi_output_cells > 0

    def test_pairing_disabled_yields_single_output(self):
        n = benchmark_circuit("c3540", scale=0.08)
        mapped = technology_map(n, pair=False)
        assert mapped.n_multi_output_cells == 0

    def test_nets_have_driver_and_sinks(self, tiny_netlist):
        mapped = technology_map(tiny_netlist)
        for net, info in mapped.nets().items():
            kind = info["driver"][0]
            assert kind in ("pi", "cell")
            assert info["sinks"] or info["is_po"]

    def test_nets_in_declaration_order(self, tiny_netlist):
        """Read nets first, then reader-less POs, both in declaration
        order: hypergraph net numbering must not follow set order."""
        mapped = technology_map(tiny_netlist)
        read = list(mapped.net_sinks())
        unread = [po for po in mapped.primary_outputs if po not in read]
        assert list(mapped.nets()) == read + unread

    def test_vcycle_cuts_do_not_depend_on_the_hash_seed(self):
        """The V-cycle bipartition gives the same cuts in every process,
        whatever its ``PYTHONHASHSEED``."""
        import repro

        code = (
            "from repro.core.flow import bipartition_experiment, map_circuit\n"
            "mapped = map_circuit('s5378', scale=0.25, seed=1994)\n"
            "print(bipartition_experiment(mapped, runs=2, multilevel=True).cuts)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        cuts = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
                check=True,
            ).stdout.strip()
            for hash_seed in ("1", "2", "3")
        }
        assert len(cuts) == 1, cuts

    def test_duplicate_driver_rejected(self):
        cells = [
            MappedCell("c1", [], ["x"], [[]], [0], [False]),
            MappedCell("c2", [], ["x"], [[]], [0], [False]),
        ]
        with pytest.raises(ValueError, match="two drivers"):
            MappedNetlist("bad", cells, [], ["x"])

    def test_missing_driver_rejected(self):
        cells = [MappedCell("c1", ["ghost"], ["x"], [["ghost"]], [0b10], [False])]
        with pytest.raises(ValueError, match="no driver"):
            MappedNetlist("bad", cells, [], ["x"])
