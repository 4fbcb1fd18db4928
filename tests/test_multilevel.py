"""Invariants and determinism contracts of the CSR multilevel V-cycle."""

import random

import pytest

from repro.hypergraph.compact import CompactHypergraph
from repro.hypergraph.metrics import cut_size, partition_clb_sizes
from repro.partition.reference import _legacy_multilevel_bipartition
from repro.partition.kway import KWayConfig
from repro.partition.multilevel import (
    MULTILEVEL_AUTO_MIN_CELLS,
    MultilevelConfig,
    MultilevelHierarchy,
    MultilevelResult,
    coarsen_compact,
    resolve_multilevel,
    vcycle_bipartition,
)
from repro.partition.verify import verify_solution
from repro.techmap.mapped import technology_map
from repro.netlist.benchmarks import benchmark_circuit
from repro.hypergraph.build import build_hypergraph


@pytest.fixture(scope="module")
def compact(small_hg):
    return CompactHypergraph.from_hypergraph(small_hg)


@pytest.fixture(scope="module")
def compact_terms(small_hg_terms):
    return CompactHypergraph.from_hypergraph(small_hg_terms)


def _cell_weight(cp):
    return sum(w for w, c in zip(cp.weights, cp.is_cell) if c)


class TestCoarsenCompact:
    def test_reduces_cell_count(self, compact):
        coarse, cid, n_pairs = coarsen_compact(compact, random.Random(1))
        assert n_pairs > 0
        assert coarse.n_nodes == compact.n_nodes - n_pairs

    def test_coarse_id_total(self, compact):
        coarse, cid, _ = coarsen_compact(compact, random.Random(1))
        assert len(cid) == compact.n_nodes
        assert sorted(set(cid)) == list(range(coarse.n_nodes))

    def test_weights_conserved(self, compact):
        coarse, cid, _ = coarsen_compact(compact, random.Random(2))
        assert _cell_weight(coarse) == _cell_weight(compact)
        assert sum(coarse.weights) == sum(compact.weights)

    def test_terminals_never_clustered(self, compact_terms):
        coarse, cid, _ = coarsen_compact(compact_terms, random.Random(1))
        fine_terms = [v for v in range(compact_terms.n_nodes) if not compact_terms.is_cell[v]]
        coarse_terms = [v for v in range(coarse.n_nodes) if not coarse.is_cell[v]]
        assert len(coarse_terms) == len(fine_terms)
        for v in fine_terms:
            c = cid[v]
            assert not coarse.is_cell[c]
            # one-to-one: no other fine node shares a terminal's coarse id
            assert sum(1 for u in range(compact_terms.n_nodes) if cid[u] == c) == 1

    def test_protected_nodes_never_clustered(self, compact):
        protected = {0, 1, 2}
        coarse, cid, _ = coarsen_compact(compact, random.Random(3), protected=protected)
        for v in protected:
            assert sum(1 for u in range(compact.n_nodes) if cid[u] == cid[v]) == 1

    def test_internal_nets_eliminated(self, compact):
        coarse, cid, _ = coarsen_compact(compact, random.Random(1))
        for e in range(coarse.n_nets):
            lo, hi = coarse.net_node_start[e], coarse.net_node_start[e + 1]
            members = coarse.net_nodes[lo:hi]
            assert len(members) >= 2
            assert len(set(members)) == len(members)
            assert members == sorted(members)

    def test_pin_counts_summed(self, compact):
        coarse, cid, _ = coarsen_compact(compact, random.Random(1))
        # Total pin count per surviving net is conserved: a coarse pin
        # count is the sum of its fine members' counts.
        fine_total = {}
        for e in range(compact.n_nets):
            lo, hi = compact.net_node_start[e], compact.net_node_start[e + 1]
            fine_total[e] = sum(compact.net_node_counts[lo:hi])
        coarse_totals = sorted(
            sum(
                coarse.net_node_counts[
                    coarse.net_node_start[e] : coarse.net_node_start[e + 1]
                ]
            )
            for e in range(coarse.n_nets)
        )
        # Every surviving coarse total must appear among the fine totals.
        fine_sorted = sorted(fine_total.values())
        i = 0
        for t in coarse_totals:
            while i < len(fine_sorted) and fine_sorted[i] < t:
                i += 1
            assert i < len(fine_sorted) and fine_sorted[i] == t
            i += 1


class TestHierarchy:
    def test_weight_conserved_across_levels(self, compact):
        h = MultilevelHierarchy(compact, MultilevelConfig(seed=1))
        total = _cell_weight(compact)
        for level in h.levels:
            assert _cell_weight(level) == total

    def test_monotone_shrink(self, compact):
        h = MultilevelHierarchy(compact, MultilevelConfig(seed=1))
        assert len(h.levels) > 1
        for a, b in zip(h.cell_counts, h.cell_counts[1:]):
            assert b < a

    def test_stall_respected(self, compact):
        # An impossible stall ratio stops coarsening immediately.
        h = MultilevelHierarchy(
            compact, MultilevelConfig(seed=1, coarsening_stall_ratio=0.0)
        )
        assert len(h.levels) == 1

    def test_min_nodes_respected(self, compact):
        h = MultilevelHierarchy(compact, MultilevelConfig(seed=1, min_nodes=10**9))
        assert len(h.levels) == 1

    def test_max_levels_respected(self, compact):
        h = MultilevelHierarchy(compact, MultilevelConfig(seed=1, max_levels=2))
        assert len(h.levels) <= 2

    def test_solve_deterministic(self, compact):
        h = MultilevelHierarchy(compact, MultilevelConfig(seed=5))
        a1, c1, _ = h.solve(17)
        a2, c2, _ = h.solve(17)
        assert a1 == a2 and c1 == c2

    def test_level_stats_cover_all_levels(self, compact):
        h = MultilevelHierarchy(compact, MultilevelConfig(seed=5))
        _, _, stats = h.solve(3)
        assert [s["level"] for s in stats] == list(
            range(len(h.levels) - 1, -1, -1)
        )
        assert stats[0]["match_rate"] <= 1.0
        assert stats[-1]["match_rate"] == 1.0


class TestVCycle:
    def test_cut_matches_assignment(self, small_hg):
        r = vcycle_bipartition(small_hg, MultilevelConfig(seed=1))
        assert isinstance(r, MultilevelResult)
        assert cut_size(small_hg, r.assignment) == r.cut_size

    def test_bit_deterministic_repeated(self, small_hg):
        runs = [vcycle_bipartition(small_hg, MultilevelConfig(seed=9)) for _ in range(3)]
        assert all(r.assignment == runs[0].assignment for r in runs)
        assert all(r.cut_size == runs[0].cut_size for r in runs)

    def test_balance_respected(self, small_hg):
        r = vcycle_bipartition(
            small_hg, MultilevelConfig(seed=2, balance_tolerance=0.05)
        )
        sizes = partition_clb_sizes(small_hg, r.assignment)
        total = small_hg.total_clb_weight()
        assert abs(sizes.get(0, 0) - total / 2) <= max(1, 0.05 * total) + 1

    def test_replication_refine_improves(self, small_hg):
        r = vcycle_bipartition(
            small_hg, MultilevelConfig(seed=1, replication_refine=True)
        )
        assert r.replication is not None
        assert r.final_cut <= r.cut_size

    def test_parity_with_legacy_engine(self, small_hg):
        # The CSR engine replaces the object-graph reference; both must
        # produce feasible solutions of comparable quality.
        legacy = [
            _legacy_multilevel_bipartition(small_hg, MultilevelConfig(seed=s)).cut_size
            for s in range(3)
        ]
        csr = [
            vcycle_bipartition(small_hg, MultilevelConfig(seed=s)).cut_size
            for s in range(3)
        ]
        assert sum(csr) / len(csr) <= 1.25 * sum(legacy) / len(legacy)

    def test_jobs_workers_bit_identical(self, small_hg):
        from repro.perf.parallel import seeded_runs

        base = MultilevelConfig(seed=0)
        seeds = [11, 22, 33, 44]
        seq = seeded_runs(small_hg, base, seeds, jobs=1)
        par = seeded_runs(small_hg, base, seeds, jobs=2)
        assert [r.assignment for r in seq] == [r.assignment for r in par]
        assert [r.final_cut for r in seq] == [r.final_cut for r in par]


class TestResolve:
    def test_explicit_wins(self):
        assert resolve_multilevel(True, 1) is True
        assert resolve_multilevel(False, 10**9) is False

    def test_auto_threshold(self):
        assert resolve_multilevel(None, MULTILEVEL_AUTO_MIN_CELLS) is True
        assert resolve_multilevel(None, MULTILEVEL_AUTO_MIN_CELLS - 1) is False


class TestKWayIntegration:
    @pytest.fixture(scope="class")
    def mapped(self):
        return technology_map(benchmark_circuit("s5378", scale=0.12, seed=7))

    def test_multilevel_solution_verifies(self, mapped):
        from repro.partition.kway import best_heterogeneous_partition

        config = KWayConfig(threshold=4, seed=3, multilevel=True)
        solution = best_heterogeneous_partition(mapped, config, n_solutions=1)
        assert solution.feasible
        assert verify_solution(mapped, solution) == []

    def test_multilevel_jobs_deterministic(self, mapped):
        from repro.partition.kway import best_heterogeneous_partition

        base = dict(threshold=4, seed=3, multilevel=True)
        s1 = best_heterogeneous_partition(
            mapped, KWayConfig(jobs=1, **base), n_solutions=1
        )
        s2 = best_heterogeneous_partition(
            mapped, KWayConfig(jobs=2, **base), n_solutions=1
        )
        assert s1.cost.total_cost == s2.cost.total_cost
        assert [sorted(b.cells) for b in s1.blocks] == [
            sorted(b.cells) for b in s2.blocks
        ]


class TestFlowIntegration:
    def test_bipartition_experiment_multilevel(self, small_mapped):
        from repro.core.flow import bipartition_experiment

        report = bipartition_experiment(
            small_mapped, algorithm="fm+functional", runs=2, multilevel=True
        )
        assert report.runs == 2
        assert all(c >= 0 for c in report.cuts)

    def test_bipartition_experiment_multilevel_jobs_match(self, small_mapped):
        from repro.core.flow import bipartition_experiment

        seq = bipartition_experiment(
            small_mapped, algorithm="fm", runs=3, multilevel=True, jobs=1
        )
        par = bipartition_experiment(
            small_mapped, algorithm="fm", runs=3, multilevel=True, jobs=2
        )
        assert seq.cuts == par.cuts


def test_auto_enables_on_large_rent_netlist():
    # A generated netlist above the auto threshold flips the tri-state on;
    # build_hypergraph itself is cheap enough at this size for a unit test.
    from repro.netlist.generate import random_logic

    netlist = random_logic("rent_auto", 2400, 48, 48, seed=9)
    mapped = technology_map(netlist)
    hg = build_hypergraph(mapped, include_terminals=False)
    assert resolve_multilevel(None, hg.n_cells) is False  # below threshold
    assert resolve_multilevel(True, hg.n_cells) is True
