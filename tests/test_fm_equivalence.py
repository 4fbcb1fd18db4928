"""Equivalence of the optimized partitioning core with frozen behavior.

The delta-gain engines in :mod:`repro.partition.fm` and
:mod:`repro.partition.fm_replication` are pure performance rewrites: for
every hypergraph, configuration and seed they must reproduce the
*reference* engines (:mod:`repro.partition.reference`, a verbatim copy of
the pre-optimization code) bit for bit -- same assignment, same cut, same
per-pass gains, same replica set.

Three layers of enforcement:

* **golden replay** -- ``tests/golden/fm_golden.json`` froze the reference
  engines' outputs on a deterministic hypergraph family; the optimized
  engines must match every case;
* **randomized equivalence** -- fresh random hypergraphs (disjoint from
  the golden family) are run through both engines and compared in full,
  including a family of weighted cells and zero-weight terminals under
  tight balance windows, growth caps and fixed nodes, where the
  replication engine's admissibility classes decide selection;
* **end-to-end parity** -- the k-way carver must produce the identical
  solution with ``engine="fast"`` and ``engine="reference"``, and
  ``--jobs N`` must pick the same winner as ``--jobs 1``.
"""

import json
import random

import pytest

from repro.hypergraph.hypergraph import Hypergraph, NodeKind
from repro.partition.fm import FMConfig, best_of_runs, fm_bipartition
from repro.partition.fm_replication import (
    ReplicationConfig,
    ReplicationEngine,
    replication_bipartition,
)
from repro.partition.reference import (
    ReferenceReplicationEngine,
    reference_fm_bipartition,
    reference_replication_bipartition,
)
from tests.golden.regenerate import (
    GOLDEN_PATH,
    case_hypergraph,
    fm_case_configs,
    replication_case_configs,
)
from tests.test_gain_model import _random_hypergraph

with open(GOLDEN_PATH) as fh:
    GOLDEN = json.load(fh)

CASE_IDS = [record["case_seed"] for record in GOLDEN["cases"]]


def _replicas_as_lists(replicas):
    return sorted([v, s, o] for v, (s, o) in replicas.items())


# ---------------------------------------------------------------------------
# Golden replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case_seed", CASE_IDS)
def test_fm_matches_golden(case_seed):
    record = GOLDEN["cases"][case_seed]
    assert record["case_seed"] == case_seed
    hg = case_hypergraph(case_seed)
    total = hg.total_clb_weight()
    for label, config in fm_case_configs(case_seed, total).items():
        result = fm_bipartition(hg, config)
        expect = record["fm"][label]
        assert result.assignment == expect["assignment"], label
        assert result.cut_size == expect["cut_size"], label
        assert result.passes == expect["passes"], label


@pytest.mark.parametrize("case_seed", CASE_IDS)
def test_replication_matches_golden(case_seed):
    record = GOLDEN["cases"][case_seed]
    hg = case_hypergraph(case_seed)
    total = hg.total_clb_weight()
    for label, config in replication_case_configs(case_seed, total).items():
        result = replication_bipartition(hg, config)
        expect = record["replication"][label]
        assert result.sides == expect["sides"], label
        assert _replicas_as_lists(result.replicas) == expect["replicas"], label
        assert result.cut_size == expect["cut_size"], label


# ---------------------------------------------------------------------------
# Randomized equivalence against the reference engines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case_seed", range(100, 112))
def test_fm_random_equivalence(case_seed):
    hg = _random_hypergraph(random.Random(case_seed * 7919 + 13))
    total = hg.total_clb_weight()
    for config in fm_case_configs(case_seed, total).values():
        fast = fm_bipartition(hg, config)
        ref = reference_fm_bipartition(hg, config)
        assert fast.assignment == ref.assignment
        assert fast.cut_size == ref.cut_size
        assert fast.initial_cut == ref.initial_cut
        assert fast.pass_gains == ref.pass_gains


@pytest.mark.parametrize("case_seed", range(100, 110))
def test_replication_random_equivalence(case_seed):
    hg = _random_hypergraph(random.Random(case_seed * 7919 + 13))
    total = hg.total_clb_weight()
    for config in replication_case_configs(case_seed, total).values():
        fast = replication_bipartition(hg, config)
        ref = reference_replication_bipartition(hg, config)
        assert fast.sides == ref.sides
        assert fast.replicas == ref.replicas
        assert fast.cut_size == ref.cut_size
        assert fast.pass_gains == ref.pass_gains


def _weighted_terminal_hypergraph(rng):
    """Zero-weight PI/PO terminals around cells of weight 1-3 with 1-3
    outputs; repeated sink pins give some nets a per-node pin count > 1."""
    hg = Hypergraph("classes")
    sources = []
    for i in range(rng.randint(2, 5)):
        net = hg.add_net(f"pi{i}")
        hg.connect_output(hg.add_node(f"pi{i}", NodeKind.PI), net)
        sources.append(net)
    cells = []
    for c in range(rng.randint(12, 30)):
        node = hg.add_node(f"c{c}", NodeKind.CELL)
        node.weight = rng.choice((1, 1, 1, 2, 3))
        n_outputs = rng.choice((1, 2, 2, 3))
        n_inputs = rng.randint(1, min(5, len(sources)))
        for net in rng.sample(sources, n_inputs):
            hg.connect_input(node, net)
        supports = [set() for _ in range(n_outputs)]
        for pin in range(n_inputs):
            for o in rng.sample(range(n_outputs), rng.randint(1, n_outputs)):
                supports[o].add(pin)
        node.supports = [tuple(sorted(s)) for s in supports]
        for o in range(n_outputs):
            net = hg.add_net(f"n{c}_{o}")
            hg.connect_output(node, net)
            sources.append(net)
        cells.append(node)
    for _ in range(rng.randint(0, len(cells))):
        node = rng.choice(cells)
        net = rng.choice(sources)
        if net.index in node.output_nets:
            continue
        pin = hg.connect_input(node, net)
        o = rng.randrange(node.n_outputs)
        node.supports[o] = tuple(sorted(set(node.supports[o]) | {pin}))
    for i in range(rng.randint(1, 4)):
        hg.connect_input(hg.add_node(f"po{i}", NodeKind.PO), rng.choice(sources))
    hg.check()
    return hg


def _class_case_configs(rng, hg):
    """Tight balance windows, growth caps and fixed nodes for every style."""
    total = hg.total_clb_weight()
    mid = total // 2
    nodes = range(len(hg.nodes))
    cells = hg.cell_indices()
    terminals = hg.terminal_indices()

    def fixed(n):
        picks = rng.sample(cells, 1) + rng.sample(terminals, min(n, len(terminals)))
        return {v: rng.randrange(2) for v in picks}

    return [
        ReplicationConfig(seed=rng.randrange(1000), threshold=0,
                          balance_tolerance=0.0, fixed=fixed(1)),
        ReplicationConfig(seed=rng.randrange(1000), threshold=0,
                          side0_bounds=(mid - 1, mid + 1), max_growth=0.1),
        ReplicationConfig(seed=rng.randrange(1000), style="traditional",
                          threshold=1, balance_tolerance=0.01,
                          max_growth=0.05, fixed=fixed(2)),
        ReplicationConfig(seed=rng.randrange(1000), style="traditional",
                          threshold=0, side0_bounds=(mid - 2, mid + 3),
                          allow_single_output_traditional=False,
                          warm_start_moves_only=False),
        ReplicationConfig(seed=rng.randrange(1000), style="none",
                          side0_bounds=(mid, mid + 1), fixed=fixed(2)),
        ReplicationConfig(seed=rng.randrange(1000), threshold=0,
                          max_growth=0.0, warm_start_moves_only=False,
                          fixed={rng.choice(list(nodes)): 1}),
    ]


def _scratch_cut(hg, side, rep):
    """Cut size recounted from the node states alone."""
    counts = [[0, 0] for _ in hg.nets]
    split = [False] * len(hg.nets)
    for node in hg.nodes:
        r = rep[node.index]
        if r is None:
            instances = [(side[node.index], node.input_nets, node.output_nets)]
        elif r[1] < 0:  # traditional: two full copies, outputs split
            s = r[0]
            instances = [(t, node.input_nets, node.output_nets) for t in (s, 1 - s)]
            for net in node.output_nets:
                split[net] = True
        else:  # functional: the replica drives output r[1] alone
            s, o = r
            kept = sorted({p for j, sup in enumerate(node.supports) if j != o
                           for p in sup})
            instances = [
                (s, [node.input_nets[p] for p in kept],
                 [net for j, net in enumerate(node.output_nets) if j != o]),
                (1 - s, [node.input_nets[p] for p in node.supports[o]],
                 [node.output_nets[o]]),
            ]
        for t, inputs, outputs in instances:
            for net in list(inputs) + list(outputs):
                counts[net][t] += 1
    return sum(
        1 for net, (c0, c1) in enumerate(counts) if not split[net] and c0 and c1
    )


@pytest.mark.parametrize("case_seed", range(200, 212))
def test_replication_class_selection_equivalence(case_seed):
    rng = random.Random(case_seed)
    hg = _weighted_terminal_hypergraph(rng)
    for config in _class_case_configs(rng, hg):
        engine = ReplicationEngine(hg, config)
        fast = engine.run()
        ref = ReferenceReplicationEngine(hg, config).run()
        assert fast.sides == ref.sides, config
        assert fast.replicas == ref.replicas, config
        assert fast.initial_cut == ref.initial_cut, config
        assert fast.pass_gains == ref.pass_gains, config
        assert fast.cut_size == ref.cut_size, config
        assert engine.cut_size() == _scratch_cut(hg, engine.side, engine.rep)


# ---------------------------------------------------------------------------
# End-to-end parity: k-way carver and parallel fan-out
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def mapped():
    from repro.netlist.benchmarks import benchmark_circuit
    from repro.techmap.mapped import technology_map

    return technology_map(benchmark_circuit("s5378", scale=0.08, seed=11))


def _solution_shape(solution):
    return [
        (block.device.name, sorted(block.cells), sorted(block.pads))
        for block in solution.blocks
    ]


def test_kway_fast_matches_reference_engine(mapped):
    from repro.partition.kway import KWayConfig, partition_heterogeneous
    from tests.test_kway import TINY_LIBRARY

    base = dict(library=TINY_LIBRARY, threshold=1, seed=5, seeds_per_carve=2)
    fast = partition_heterogeneous(mapped, KWayConfig(engine="fast", **base))
    ref = partition_heterogeneous(mapped, KWayConfig(engine="reference", **base))
    assert _solution_shape(fast) == _solution_shape(ref)
    assert fast.cost.total_cost == ref.cost.total_cost


def test_parallel_fm_same_winner_as_sequential():
    hg = _random_hypergraph(random.Random(321))
    base = FMConfig(seed=9)
    seq_best, seq_cuts = best_of_runs(hg, runs=4, base_config=base, jobs=1)
    par_best, par_cuts = best_of_runs(hg, runs=4, base_config=base, jobs=2)
    assert par_cuts == seq_cuts
    assert par_best.assignment == seq_best.assignment
    assert par_best.cut_size == seq_best.cut_size


def test_parallel_replication_same_winner_as_sequential():
    hg = _random_hypergraph(random.Random(654))
    base = ReplicationConfig(seed=4, threshold=1)
    seq_best, seq_cuts = best_of_runs(hg, runs=3, base_config=base, jobs=1)
    par_best, par_cuts = best_of_runs(hg, runs=3, base_config=base, jobs=2)
    assert par_cuts == seq_cuts
    assert par_best.sides == seq_best.sides
    assert par_best.replicas == seq_best.replicas
    assert par_best.cut_size == seq_best.cut_size
