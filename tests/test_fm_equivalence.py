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
  the golden family) are run through both engines and compared in full;
* **end-to-end parity** -- the k-way carver must produce the identical
  solution with ``engine="fast"`` and ``engine="reference"``, and
  ``--jobs N`` must pick the same winner as ``--jobs 1``.
"""

import json
import random

import pytest

from repro.partition.fm import FMConfig, best_of_runs, fm_bipartition
from repro.partition.fm_replication import (
    ReplicationConfig,
    replication_bipartition,
)
from repro.partition.reference import (
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
