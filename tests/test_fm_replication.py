"""Tests for the replication-aware FM engine."""

from collections import defaultdict

import pytest

from repro.partition.fm import best_of_runs
from repro.partition.fm_replication import (
    FUNCTIONAL,
    NONE,
    TRADITIONAL,
    ReplicationConfig,
    ReplicationEngine,
    replication_bipartition,
)
from repro.partition.multilevel import MultilevelConfig
from repro.robust.errors import ConfigError


def _recount(engine):
    """Recompute net pin counts from scratch (ground truth)."""
    counts = defaultdict(lambda: [0, 0])
    for v in range(len(engine.hg.nodes)):
        for net, side, k in engine.active_pins(v):
            counts[net][side] += k
    return counts


def _assert_counts_consistent(engine):
    counts = _recount(engine)
    for net in range(len(engine.hg.nets)):
        assert engine.counts[net] == counts[net], engine.hg.nets[net].name


class TestStateMachine:
    def test_counts_after_run(self, small_hg):
        engine = ReplicationEngine(small_hg, ReplicationConfig(seed=1, threshold=0))
        result = engine.run()
        _assert_counts_consistent(engine)
        recut = sum(
            1
            for net in range(len(small_hg.nets))
            if engine.counts[net][0] > 0
            and engine.counts[net][1] > 0
            and engine.split[net] == 0
        )
        assert recut == result.cut_size

    def test_move_gain_equals_applied_delta(self, small_hg):
        engine = ReplicationEngine(small_hg, ReplicationConfig(seed=2, threshold=0))
        engine.run()
        import random

        rng = random.Random(0)
        cells = [v for v in range(len(small_hg.nodes)) if small_hg.nodes[v].is_cell]
        checked = 0
        for v in rng.sample(cells, min(60, len(cells))):
            for gain, side, rep in engine.candidate_moves(v):
                before = engine.cut_size()
                old = (engine.side[v], engine.rep[v])
                engine.set_state(v, side, rep)
                after = engine.cut_size()
                assert before - after == gain, (v, side, rep)
                engine.set_state(v, old[0], old[1])
                assert engine.cut_size() == before
                checked += 1
        assert checked > 50

    def test_sizes_track_instances(self, small_hg):
        engine = ReplicationEngine(small_hg, ReplicationConfig(seed=3, threshold=0))
        result = engine.run()
        sizes = [0, 0]
        for v in range(len(small_hg.nodes)):
            w = small_hg.nodes[v].clb_weight
            if engine.rep[v] is None:
                sizes[engine.side[v]] += w
            else:
                sizes[0] += w
                sizes[1] += w
        assert sizes == engine.sizes
        assert tuple(sizes) == result.instance_sizes()

    def test_replica_active_pins_subset(self, small_hg):
        engine = ReplicationEngine(small_hg, ReplicationConfig(seed=1, threshold=0))
        engine.run()
        for v, (s, o) in engine.replicas().items():
            node = small_hg.nodes[v]
            assert node.n_outputs >= 2
            assert 0 <= o < node.n_outputs
            # The replica's pins are exactly supp(o) + output o.
            repl_total = sum(k for _, k in engine.repl_pins[v][o])
            assert repl_total == len(node.supports[o]) + 1


class TestAlgorithmBehaviour:
    def test_replication_never_hurts_cut(self, small_hg):
        # From the same seed, the replication engine's final cut must be at
        # least as good as its own move-only warm phase.
        for seed in range(3):
            none_cfg = ReplicationConfig(seed=seed, style=NONE)
            with_cfg = ReplicationConfig(seed=seed, threshold=0)
            cut_none = replication_bipartition(small_hg, none_cfg).cut_size
            cut_with = replication_bipartition(small_hg, with_cfg).cut_size
            assert cut_with <= cut_none

    def test_replication_reduces_cut_somewhere(self, small_hg):
        improved = 0
        for seed in range(4):
            a = replication_bipartition(small_hg, ReplicationConfig(seed=seed, style=NONE))
            b = replication_bipartition(small_hg, ReplicationConfig(seed=seed, threshold=0))
            if b.cut_size < a.cut_size:
                improved += 1
        assert improved >= 1

    def test_threshold_infinity_means_no_replicas(self, small_hg):
        result = replication_bipartition(
            small_hg, ReplicationConfig(seed=1, threshold=float("inf"))
        )
        assert result.n_replicated == 0

    def test_threshold_filters_low_potential_cells(self, small_hg):
        result = replication_bipartition(
            small_hg, ReplicationConfig(seed=1, threshold=3)
        )
        engine_potentials = ReplicationEngine(
            small_hg, ReplicationConfig(seed=1)
        ).potentials
        for v in result.replicas:
            assert engine_potentials[v] >= 3

    def test_deterministic(self, small_hg):
        a = replication_bipartition(small_hg, ReplicationConfig(seed=9, threshold=0))
        b = replication_bipartition(small_hg, ReplicationConfig(seed=9, threshold=0))
        assert a.sides == b.sides
        assert a.replicas == b.replicas

    def test_traditional_style_runs(self, small_hg):
        result = replication_bipartition(
            small_hg, ReplicationConfig(seed=1, style=TRADITIONAL)
        )
        assert result.cut_size >= 0
        # Traditional replicas are tagged with output -1.
        for _, (s, o) in result.replicas.items():
            assert o == -1

    def test_traditional_split_nets_not_cut(self, small_hg):
        engine = ReplicationEngine(
            small_hg, ReplicationConfig(seed=4, style=TRADITIONAL)
        )
        engine.run()
        for net in range(len(small_hg.nets)):
            if engine.split[net] > 0:
                assert not engine.is_cut(net)

    def test_fixed_nodes_respected(self, small_hg):
        fixed = {0: 0, 1: 1}
        result = replication_bipartition(
            small_hg, ReplicationConfig(seed=2, threshold=0, fixed=fixed)
        )
        assert result.sides[0] == 0
        assert result.sides[1] == 1
        assert 0 not in result.replicas and 1 not in result.replicas

    def test_side0_bounds(self, small_hg):
        total = small_hg.total_clb_weight()
        lo, hi = total // 4, total // 3
        engine = ReplicationEngine(
            small_hg,
            ReplicationConfig(seed=2, threshold=0, side0_bounds=(lo, hi)),
        )
        engine.run()
        assert lo <= engine.sizes[0] <= hi

    def test_result_fields(self, small_hg):
        result = replication_bipartition(small_hg, ReplicationConfig(seed=0, threshold=0))
        assert result.n_cells == small_hg.n_cells
        assert 0.0 <= result.replicated_fraction <= 1.0
        assert result.cut_size <= result.initial_cut

    def test_best_of_runs(self, small_hg):
        best, cuts = best_of_runs(small_hg, 4, ReplicationConfig(seed=1, threshold=0))
        assert best.cut_size == min(cuts)
        assert len(cuts) == 4


class TestMoveVectorExtraction:
    def test_rejects_replicated_cells(self, small_hg):
        engine = ReplicationEngine(small_hg, ReplicationConfig(seed=1, threshold=0))
        engine.run()
        replicas = engine.replicas()
        if replicas:
            v = next(iter(replicas))
            with pytest.raises(ValueError):
                engine.move_vectors(v)

    def test_vectors_shape(self, small_hg):
        engine = ReplicationEngine(small_hg, ReplicationConfig(seed=1))
        for v in range(len(small_hg.nodes)):
            node = small_hg.nodes[v]
            if not node.is_cell:
                continue
            nets = list(node.input_nets) + list(node.output_nets)
            if len(set(nets)) != len(nets):
                continue
            mv = engine.move_vectors(v)
            assert mv.n_inputs == node.n_inputs
            assert mv.n_outputs == node.n_outputs
            break


class TestConfigValidation:
    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="style"):
            ReplicationConfig(style="telepathy")

    def test_growth_cap_enforced(self, small_hg):
        config = ReplicationConfig(seed=1, threshold=0, max_growth=0.05)
        engine = ReplicationEngine(small_hg, config)
        engine.run()
        total = engine.sizes[0] + engine.sizes[1]
        assert total <= int(1.05 * small_hg.total_clb_weight())

    def test_growth_zero_means_no_replicas(self, small_hg):
        config = ReplicationConfig(seed=1, threshold=0, max_growth=0.0)
        result = replication_bipartition(small_hg, config)
        assert result.n_replicated == 0

    def test_negative_growth_cap_rejected(self):
        """The fast and reference engines read a negative cap
        differently, so neither gets one."""
        with pytest.raises(ConfigError, match="max_growth"):
            ReplicationConfig(max_growth=-0.2)
        with pytest.raises(ConfigError, match="max_growth"):
            MultilevelConfig(max_growth=-0.2)

    def test_warm_start_disabled_still_valid(self, small_hg):
        config = ReplicationConfig(
            seed=2, threshold=0, warm_start_moves_only=False
        )
        engine = ReplicationEngine(small_hg, config)
        result = engine.run()
        from collections import defaultdict

        counts = defaultdict(lambda: [0, 0])
        for v in range(len(small_hg.nodes)):
            for net, s, k in engine.active_pins(v):
                counts[net][s] += k
        for net in range(len(small_hg.nets)):
            assert engine.counts[net] == counts[net]
        assert result.cut_size >= 0
