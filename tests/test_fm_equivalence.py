"""Equivalence of the optimized partitioning core with frozen behavior.

The delta-gain engines in :mod:`repro.partition.fm` and
:mod:`repro.partition.fm_replication` are pure performance rewrites: for
every hypergraph, configuration and seed they must reproduce the
*reference* engines (:mod:`repro.partition.reference`, a verbatim copy of
the pre-optimization code) bit for bit -- same assignment, same cut, same
per-pass gains, same replica set.

Four layers of enforcement:

* **golden replay** -- ``tests/golden/fm_golden.json`` froze the reference
  engines' outputs on a deterministic hypergraph family; the optimized
  engines must match every case;
* **randomized equivalence** -- fresh random hypergraphs (disjoint from
  the golden family) are run through both engines and compared in full,
  including a family of weighted cells and zero-weight terminals under
  tight balance windows, growth caps and fixed nodes, where the
  replication engine's admissibility classes decide selection;
* **the exact pass stop** -- the fast engines end a pass once its best
  prefix is decided, while the references run every pass to its end:
  hand-built cases where the dead-net bound provably fires, and a
  hypothesis suite with fixed nodes on both sides, check that the stop
  commits fewer moves and changes nothing else;
* **end-to-end parity** -- the k-way carver must produce the identical
  solution with ``engine="fast"`` and ``engine="reference"``, and
  ``--jobs N`` must pick the same winner as ``--jobs 1``.
"""

import contextlib
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hypergraph.hypergraph import Hypergraph, NodeKind
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.partition.fm import FMConfig, best_of_runs, fm_bipartition
from repro.partition.fm_replication import (
    ReplicationConfig,
    ReplicationEngine,
    replication_bipartition,
)
from repro.partition.reference import (
    ReferenceFMState,
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


@contextlib.contextmanager
def _reference_commits(cls, method):
    """Count the reference pass loop's commits: calls of ``cls.method`` on
    an unlocked node (its rollback only touches nodes the pass locked)."""
    tally = [0]
    original = getattr(cls, method)

    def counting(self, v, *args):
        tally[0] += not self.locked[v]
        return original(self, v, *args)

    with mock.patch.object(cls, method, counting):
        yield tally


def _engine_commits(engine):
    return engine.n_single_moves + engine.n_replicates + engine.n_unreplicates


def _replication_against_reference(hg, config, initial=None):
    """Run the fast and the reference replication engine, require the
    same outcome (and a fast cut that a recount from scratch confirms),
    and return ``(fast result, fast commits, reference commits)``."""
    engine = ReplicationEngine(hg, config, initial)
    fast = engine.run()
    with _reference_commits(ReferenceReplicationEngine, "set_state") as tally:
        ref = ReferenceReplicationEngine(hg, config, initial).run()
    assert fast.sides == ref.sides, config
    assert fast.replicas == ref.replicas, config
    assert fast.initial_cut == ref.initial_cut, config
    assert fast.pass_gains == ref.pass_gains, config
    assert fast.cut_size == ref.cut_size, config
    assert engine.cut_size() == _scratch_cut(hg, engine.side, engine.rep)
    return fast, _engine_commits(engine), tally[0]


@pytest.mark.parametrize("case_seed", range(200, 212))
def test_replication_class_selection_equivalence(case_seed):
    rng = random.Random(case_seed)
    hg = _weighted_terminal_hypergraph(rng)
    for config in _class_case_configs(rng, hg):
        _replication_against_reference(hg, config)


# ---------------------------------------------------------------------------
# The exact pass stop: fewer committed moves, the same outcome
# ---------------------------------------------------------------------------


def _fm_against_reference(hg, config, initial=None):
    """The plain-FM counterpart of :func:`_replication_against_reference`."""
    with use_registry(MetricsRegistry()) as reg:
        fast = fm_bipartition(hg, config, initial)
    with _reference_commits(ReferenceFMState, "apply") as tally:
        ref = reference_fm_bipartition(hg, config, initial)
    assert fast.assignment == ref.assignment
    assert fast.initial_cut == ref.initial_cut
    assert fast.pass_gains == ref.pass_gains
    assert fast.cut_size == ref.cut_size
    assert fast.cut_size == _scratch_cut(hg, fast.assignment, [None] * len(hg.nodes))
    return fast, reg.snapshot()["counters"]["fm.moves"], tally[0]


def _terminal_hypergraph(cells, pis, pos):
    """Cells ``{name: (inputs, outputs, supports)}``, PIs ``{name: net}``
    and POs ``{name: net}``; returns the hypergraph and node ids by name."""
    hg = Hypergraph("stop")
    nets = {}
    ids = {}

    def net(name):
        if name not in nets:
            nets[name] = hg.add_net(name)
        return nets[name]

    for name, out in pis.items():
        node = hg.add_node(name, NodeKind.PI)
        hg.connect_output(node, net(out))
        ids[name] = node.index
    for name, (inputs, outputs, supports) in cells.items():
        node = hg.add_node(name, NodeKind.CELL)
        for n in inputs:
            hg.connect_input(node, net(n))
        for n in outputs:
            hg.connect_output(node, net(n))
        node.supports = supports
        ids[name] = node.index
    for name, inp in pos.items():
        node = hg.add_node(name, NodeKind.PO)
        hg.connect_input(node, net(inp))
        ids[name] = node.index
    hg.check()
    return hg, ids


def _fixed_terminals(hg, sides):
    return {node.index: sides[node.name] for node in hg.nodes if not node.is_cell}


def _dead_net_case(repl_cell):
    """Net z joins a PI fixed on side 0 and a PO fixed on side 1, so it is
    cut and dead from the start.  Two more nets start cut, and the first
    commit uncuts both: the plain case moves A, whose nets are fixed on
    side 0, from side 1 to side 0; the replication case replicates M's
    output y, whose nets are fixed on side 1, onto side 1.  B and C are
    wired to their own sides and lose 2 by moving.  With start cut 3 and
    one dead net the bound is 3 - 1 = 2, which the first commit reaches;
    a full pass goes on to move B and C."""
    cells = {
        "B": (["b_in"], ["b_out"], [(0,)]),
        "C": (["c_in"], ["c_out"], [(0,)]),
    }
    pis = {"p_z": "z", "p_b": "b_in", "p_c": "c_in"}
    pos = {"q_z": "z", "q_b": "b_out", "q_c": "c_out"}
    sides = {"p_z": 0, "q_z": 1, "B": 0, "p_b": 0, "q_b": 0,
             "C": 1, "p_c": 1, "q_c": 1}
    if repl_cell:
        cells["M"] = (["i1", "i2"], ["x", "y"], [(0,), (1,)])
        pis.update(p_1="i1", p_2="i2")
        pos.update(q_x="x", q_y="y")
        sides.update(M=0, p_1=0, p_2=1, q_x=0, q_y=1)
    else:
        cells["A"] = (["a_in"], ["a_out"], [(0,)])
        pis["p_a"] = "a_in"
        pos["q_a"] = "a_out"
        sides.update(A=1, p_a=0, q_a=0)
    hg, ids = _terminal_hypergraph(cells, pis, pos)
    initial = [sides[node.name] for node in hg.nodes]
    return hg, ids, initial, _fixed_terminals(hg, sides)


def test_fm_stop_fires_on_dead_nets():
    hg, ids, initial, fixed = _dead_net_case(repl_cell=False)
    config = FMConfig(side0_bounds=(0, 3), fixed=fixed)
    fast, fast_moves, ref_moves = _fm_against_reference(hg, config, initial)
    assert fast.pass_gains == [2, 0]
    assert fast.assignment[ids["A"]] == 0
    # Pass 1 stops after A; pass 2 starts at the bound and moves nothing.
    # The reference moves A, B and C in each pass.
    assert (fast_moves, ref_moves) == (1, 6)


def test_replication_stop_fires_on_dead_nets():
    hg, ids, initial, fixed = _dead_net_case(repl_cell=True)
    config = ReplicationConfig(threshold=0, side0_bounds=(0, 3), fixed=fixed,
                               warm_start_moves_only=False)
    engine = ReplicationEngine(hg, config, initial)
    ref = ReferenceReplicationEngine(hg, config, initial)
    with _reference_commits(ReferenceReplicationEngine, "set_state") as tally:
        assert ref.run_pass() == 2
    assert engine.run_pass() == 2
    assert engine.rep == ref.rep and engine.rep[ids["M"]] == (0, 1)
    assert engine.side == ref.side
    assert engine.cut_size() == ref.cut_size() == 1
    # M's replication meets the bound; the reference goes on to move B, C.
    assert (_engine_commits(engine), tally[0]) == (1, 3)
    fast, fast_moves, ref_moves = _replication_against_reference(hg, config, initial)
    assert fast.pass_gains == [2, 0]
    assert fast_moves < ref_moves


def test_traditional_split_is_never_a_dead_net():
    """Net y has sinks fixed on both sides, yet replicating its driver M
    traditionally splits it, which uncuts it (net i stays cut: it is
    dead).  Counting y as dead would stop every replication-phase pass
    before M replicates."""
    hg, ids = _terminal_hypergraph(
        {"M": (["i"], ["y"], [(0,)])},
        {"p_i": "i"},
        {"r_i": "i", "s_0": "y", "s_1": "y"},
    )
    sides = {"p_i": 0, "M": 0, "r_i": 1, "s_0": 0, "s_1": 1}
    initial = [sides[node.name] for node in hg.nodes]
    for warm_start in (True, False):
        config = ReplicationConfig(
            style="traditional", threshold=0, side0_bounds=(0, 1),
            fixed=_fixed_terminals(hg, sides), warm_start_moves_only=warm_start,
        )
        fast, _, _ = _replication_against_reference(hg, config, initial)
        assert fast.replicas == {ids["M"]: (0, -1)}
        assert fast.cut_size == 1


def _stop_family_draw(seed):
    """The weighted-terminal family with fixed nodes on both sides and a
    tight side-0 window.  The fixed nodes include pins of one cell output
    net on both sides, so traditional draws meet nets that look dead until
    their driver replicates.  Returns the hypergraph, the fixed map and
    one config per engine kind."""
    rng = random.Random(seed)
    hg = _weighted_terminal_hypergraph(rng)
    mid = hg.total_clb_weight() // 2
    bounds = (mid - rng.randint(0, 2), mid + rng.randint(0, 2))
    picks = rng.sample(range(len(hg.nodes)), rng.randint(2, len(hg.nodes) // 3))
    fixed = {v: i % 2 for i, v in enumerate(picks)}
    driver = rng.choice(hg.cell_indices())
    net = hg.nets[rng.choice(hg.nodes[driver].output_nets)]
    sinks = [v for v in net.node_indices() if v != driver]
    rng.shuffle(sinks)
    for i, v in enumerate(sinks[:2]):
        fixed[v] = i
    fixed.pop(driver, None)
    run_seed = rng.randrange(1000)
    configs = {
        "functional": ReplicationConfig(
            seed=run_seed, threshold=rng.choice((0, 1)), side0_bounds=bounds,
            fixed=fixed, warm_start_moves_only=rng.random() < 0.5),
        "traditional": ReplicationConfig(
            seed=run_seed, style="traditional", threshold=0, side0_bounds=bounds,
            fixed=fixed, warm_start_moves_only=rng.random() < 0.5,
            allow_single_output_traditional=rng.random() < 0.7),
        "none": ReplicationConfig(
            seed=run_seed, style="none", side0_bounds=bounds, fixed=fixed),
        "fm": FMConfig(seed=run_seed, side0_bounds=bounds, fixed=fixed),
    }
    return hg, fixed, configs


def _split_dead_looking(hg, fixed, replicas):
    """Whether a traditional replica splits a net with fixed pins on both
    sides, a net the stop must not have counted as dead."""
    for v, (_, o) in replicas.items():
        if o >= 0:
            continue
        for net in hg.nodes[v].output_nets:
            sides = {fixed[u] for u in hg.nets[net].node_indices() if u in fixed}
            if sides == {0, 1}:
                return True
    return False


def _stop_differential(seed):
    """Run every engine kind of one draw against its reference; returns
    ``{kind: (fast commits, reference commits)}`` and whether a traditional
    replica split a net that looked dead."""
    hg, fixed, configs = _stop_family_draw(seed)
    commits = {}
    for kind, config in configs.items():
        if kind == "fm":
            fast, fast_moves, ref_moves = _fm_against_reference(hg, config)
        else:
            fast, fast_moves, ref_moves = _replication_against_reference(hg, config)
            if kind == "traditional":
                split = _split_dead_looking(hg, fixed, fast.replicas)
        assert fast_moves <= ref_moves, kind
        commits[kind] = (fast_moves, ref_moves)
    return commits, split


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_stop_matches_reference_with_fixed_nodes_on_both_sides(seed):
    _stop_differential(seed)


def test_stop_family_fires_and_splits_dead_looking_nets():
    """The differential family is not vacuous: in every engine kind the
    stop saves moves on some draws, and some traditional draws split a
    net whose fixed pins sit on both sides."""
    fired = {kind: 0 for kind in ("functional", "traditional", "none", "fm")}
    splits = 0
    for seed in range(40):
        commits, split = _stop_differential(seed)
        for kind, (fast_moves, ref_moves) in commits.items():
            fired[kind] += fast_moves < ref_moves
        splits += split
    assert all(fired.values()), fired
    assert splits, "no traditional draw split a dead-looking net"


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
