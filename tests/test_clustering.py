"""Object-graph coarsening (the reference V-cycle's building block) and
the multilevel V-cycle's bipartitioning contract."""

import random

import pytest

from repro.hypergraph.metrics import cut_size, partition_clb_sizes
from repro.partition.fm import FMConfig, fm_bipartition
from repro.partition.multilevel import MultilevelConfig, vcycle_bipartition
from repro.partition.reference import coarsen_once


class TestCoarsening:
    def test_reduces_cell_count(self, small_hg):
        coarse, mapping = coarsen_once(small_hg, random.Random(1))
        assert coarse.n_cells < small_hg.n_cells
        coarse.check()

    def test_mapping_partitions_fine_nodes(self, small_hg):
        coarse, mapping = coarsen_once(small_hg, random.Random(1))
        seen = [f for group in mapping for f in group]
        assert sorted(seen) == list(range(len(small_hg.nodes)))

    def test_weights_conserved(self, small_hg):
        coarse, mapping = coarsen_once(small_hg, random.Random(2))
        assert coarse.total_clb_weight() == small_hg.total_clb_weight()

    def test_terminals_not_clustered(self, small_hg_terms):
        coarse, mapping = coarsen_once(small_hg_terms, random.Random(1))
        assert coarse.n_terminals == small_hg_terms.n_terminals

    def test_groups_at_most_pairs(self, small_hg):
        _, mapping = coarsen_once(small_hg, random.Random(3))
        for group in mapping:
            assert 1 <= len(group) <= 2

    def test_internal_nets_vanish(self, small_hg):
        coarse, _ = coarsen_once(small_hg, random.Random(1))
        for net in coarse.nets:
            if net.name.startswith("__stub"):
                continue
            assert len(net.node_indices()) >= 2


class TestMultilevel:
    def test_assignment_valid(self, small_hg):
        result = vcycle_bipartition(small_hg, MultilevelConfig(seed=1))
        assert len(result.assignment) == len(small_hg.nodes)
        assert set(result.assignment) <= {0, 1}
        assert cut_size(small_hg, result.assignment) == result.cut_size

    def test_balance_respected(self, small_hg):
        config = MultilevelConfig(seed=1, balance_tolerance=0.05)
        result = vcycle_bipartition(small_hg, config)
        sizes = partition_clb_sizes(small_hg, result.assignment)
        total = small_hg.total_clb_weight()
        assert abs(sizes.get(0, 0) - total / 2) <= max(1, 0.05 * total) + 1

    def test_competitive_with_flat_fm_on_average(self, small_hg):
        # On tiny graphs flat FM is near-optimal already; multilevel must
        # stay in the same ballpark on average (it shines on large graphs,
        # exercised by benchmarks/bench_ablation_multilevel.py).
        flats = [fm_bipartition(small_hg, FMConfig(seed=s)).cut_size for s in range(4)]
        mls = [
            vcycle_bipartition(small_hg, MultilevelConfig(seed=s)).cut_size
            for s in range(4)
        ]
        assert sum(mls) / len(mls) <= 1.25 * sum(flats) / len(flats)

    def test_replication_refine(self, small_hg):
        result = vcycle_bipartition(
            small_hg, MultilevelConfig(seed=1, replication_refine=True)
        )
        assert result.replication is not None
        assert result.final_cut <= result.cut_size

    def test_deterministic(self, small_hg):
        a = vcycle_bipartition(small_hg, MultilevelConfig(seed=7))
        b = vcycle_bipartition(small_hg, MultilevelConfig(seed=7))
        assert a.assignment == b.assignment

    def test_tiny_graph_short_circuit(self):
        from tests.conftest import make_cell_hypergraph

        hg = make_cell_hypergraph(
            [
                {"name": "a", "inputs": [], "outputs": ["n1"], "supports": [()]},
                {"name": "b", "inputs": ["n1"], "outputs": ["n2"], "supports": [(0,)]},
            ]
        )
        result = vcycle_bipartition(hg, MultilevelConfig(seed=0, min_nodes=64))
        assert result.levels == 1  # no coarsening needed
