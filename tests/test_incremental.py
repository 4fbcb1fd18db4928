"""Warm-start repartitioning: the repair engine and the api front door."""

from __future__ import annotations

import dataclasses
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.cache import codec
from repro.cache.store import SolutionCache, build_entry, nearest_ancestor, use_cache
from repro.obs import ledger as obs_ledger
from repro.core.flow import kway_solution
from repro.hypergraph.hypergraph import Hypergraph, NodeKind
from repro.netlist.benchmarks import benchmark_circuit
from repro.partition import incremental
from repro.partition.devices import Device
from repro.partition.fm import FMConfig, fm_bipartition
from repro.partition.incremental import (
    DEFAULT_MAX_DIRTY_FRACTION,
    IncrementalConfig,
    incremental_partition,
)
from repro.partition.verify import verify_solution
from repro.request import build_request
from repro.robust.errors import DeltaError
from repro.techmap.delta import DeltaOp, DirtyRegion, NetlistDelta, seeded_delta
from repro.techmap.mapped import technology_map


@pytest.fixture(scope="module")
def eco_mapped():
    """s5378 at the scale where the cold carve replicates (k=2)."""
    return technology_map(benchmark_circuit("s5378", scale=0.25, seed=7))


@pytest.fixture(scope="module")
def previous(eco_mapped):
    return kway_solution(eco_mapped, threshold=1, n_solutions=1, seed=7)


def _removal_delta(mapped, previous):
    """A delta removing one replicated, non-PO cell (readers rewired)."""
    po = set(mapped.primary_outputs)
    victim = next(
        c
        for name in sorted(previous.replicated_cells)
        for c in mapped.cells
        if c.name == name and not set(c.outputs) & po
    )
    outs = set(victim.outputs)
    pis = sorted(mapped.primary_inputs)
    ops = [DeltaOp(op="remove_cell", cell=victim.name)]
    for cell in mapped.cells:
        if cell.name == victim.name:
            continue
        for pin, net in enumerate(cell.inputs):
            if net in outs:
                target = next(p for p in pis if p not in cell.inputs)
                ops.append(
                    DeltaOp(op="rewire_pin", cell=cell.name, pin=pin, net=target)
                )
    return victim.name, NetlistDelta(ops=tuple(ops))


class TestRepairEngine:
    def test_warm_repair_verifies_and_keeps_cost(self, eco_mapped, previous):
        delta = seeded_delta(eco_mapped, fraction=0.01, seed=0)
        new_mapped, dirty = delta.apply(eco_mapped)
        solution, info = incremental_partition(
            new_mapped, previous, dirty, IncrementalConfig(seed=7)
        )
        assert info["mode"] == "warm", info
        assert solution is not None and solution.feasible
        assert verify_solution(new_mapped, solution) == []
        assert solution.cost.total_cost <= previous.cost.total_cost * 1.25

    def test_removing_a_replicated_cell_collapses_it(
        self, eco_mapped, previous
    ):
        assert previous.replicated_cells, "fixture must replicate"
        victim, delta = _removal_delta(eco_mapped, previous)
        new_mapped, dirty = delta.apply(eco_mapped)
        assert all(c.name != victim for c in new_mapped.cells)
        solution, info = incremental_partition(
            new_mapped, previous, dirty, IncrementalConfig(seed=7)
        )
        assert info["mode"] == "warm", info
        instances = [
            orig for block in solution.blocks for orig in block.originals
            if orig == victim
        ]
        assert instances == []
        assert victim not in solution.replicated_cells
        assert verify_solution(new_mapped, solution) == []

    def test_large_dirty_region_declines(self, eco_mapped, previous):
        names = frozenset(c.name for c in eco_mapped.cells)
        dirty = DirtyRegion(
            cells=names, touched_nets=frozenset(), n_cells=len(names)
        )
        assert dirty.fraction > DEFAULT_MAX_DIRTY_FRACTION
        solution, info = incremental_partition(
            eco_mapped, previous, dirty, IncrementalConfig(seed=7)
        )
        assert solution is None
        assert info["mode"] == "cold"
        assert "dirty fraction" in info["reason"]

    def test_truncated_previous_declines(self, eco_mapped, previous):
        truncated = dataclasses.replace(previous, truncated=True)
        delta = seeded_delta(eco_mapped, fraction=0.01, seed=0)
        new_mapped, dirty = delta.apply(eco_mapped)
        solution, info = incremental_partition(
            new_mapped, truncated, dirty, IncrementalConfig(seed=7)
        )
        assert solution is None
        assert "truncated" in info["reason"]


def _block_nets(wb):
    nets = set(wb.pad_nets)
    for pins in wb.inputs + wb.outputs:
        nets.update(pins)
    return nets


def _oracle_refine_pair(work, i, j, dirty_cells, config):
    """The pair FM over the full two-block hypergraph: every instance of
    both blocks, their pads, and per-side ``ext0:``/``ext1:`` terminals on
    the nets that leave the pair.  ``_refine_pair`` must migrate exactly
    what this does."""
    wi, wj = work[i], work[j]
    total = wi.n_clbs + wj.n_clbs
    lo0 = max(1, total - wj.device.max_clbs)
    hi0 = min(wi.device.max_clbs, total - 1)
    if lo0 > hi0 or total < 2:
        return 0
    outside = set()
    for wb in work:
        if wb.index not in (i, j):
            outside.update(_block_nets(wb))

    hg = Hypergraph(f"incr:{i}:{j}")
    net_obj = {}

    def net_of(name):
        if name not in net_obj:
            net_obj[name] = hg.add_net(name)
        return net_obj[name]

    fixed, initial, movable = {}, [], []
    for side, wb in ((0, wi), (1, wj)):
        for slot, name in enumerate(wb.names):
            node = hg.add_node(name, NodeKind.CELL)
            for net in wb.inputs[slot]:
                hg.connect_input(node, net_of(net))
            for net in wb.outputs[slot]:
                hg.connect_output(node, net_of(net))
            initial.append(side)
            if wb.originals[slot] in dirty_cells:
                movable.append((node.index, side, slot))
            else:
                fixed[node.index] = side
        for pad in wb.pads:
            kind = NodeKind.PI if pad.startswith("pi:") else NodeKind.PO
            node = hg.add_node(pad, kind)
            net = net_of(pad.split(":", 1)[1])
            if kind is NodeKind.PI:
                hg.connect_output(node, net)
            else:
                hg.connect_input(node, net)
            initial.append(side)
            fixed[node.index] = side
    if not movable:
        return 0
    for name in sorted(set(net_obj) & outside):
        for side in (0, 1):
            node = hg.add_node(f"ext{side}:{name}", NodeKind.PO)
            hg.connect_input(node, net_obj[name])
            initial.append(side)
            fixed[node.index] = side

    result = fm_bipartition(
        hg,
        FMConfig(seed=config.seed, max_passes=config.max_passes,
                 side0_bounds=(lo0, hi0), fixed=fixed, budget=config.budget,
                 boundary_refine=True),
        initial=initial,
    )
    migrations = [
        (side, slot) for node, side, slot in movable
        if result.assignment[node] != side
    ]
    for side, slot in sorted(migrations, key=lambda m: -m[1]):
        src, dst = (wi, wj) if side == 0 else (wj, wi)
        dst.add(*src.pop(slot), fixed=False)
    return len(migrations)


def _random_work(seed, n_blocks, dirty_fraction):
    """Blocks as a repair holds them before its pair FM: each block's
    projected clean instances, then its placed ones (dirty, or clean cells
    new to the block).  Nets come from one pool, so blocks share them; an
    input may repeat an input or an output, giving a node several pins on
    one net."""
    rng = random.Random(seed)
    pool = [f"n{e}" for e in range(rng.randint(12, 60))]
    work, dirty = [], set()
    for b in range(n_blocks):
        n_cells = rng.randint(4, 20)
        device = Device(f"D{b}", clbs=n_cells + rng.randint(0, 5),
                        terminals=99, price=1.0)
        wb = incremental._WorkBlock(index=b, device=device)
        cells = []
        for c in range(n_cells):
            outputs = rng.sample(pool, rng.randint(1, 2))
            inputs = [rng.choice(pool + outputs)
                      for _ in range(rng.randint(0, 5))]
            cells.append((f"b{b}c{c}", inputs, outputs))
        marked = [rng.random() < dirty_fraction for _ in cells]
        n_projected = rng.randint(0, marked.count(False))
        clean = [cell for cell, d in zip(cells, marked) if not d]
        placed = [cell for cell, d in zip(cells, marked) if d]
        placed += clean[n_projected:]
        rng.shuffle(placed)
        for name, inputs, outputs in clean[:n_projected]:
            wb.add(name, name, inputs, outputs, fixed=True)
        wb.n_projected = n_projected
        for (name, inputs, outputs), d in zip(cells, marked):
            if d:
                dirty.add(name)
        for name, inputs, outputs in placed:
            wb.add(name, name, inputs, outputs, fixed=name not in dirty)
        for _ in range(rng.randint(0, 3)):
            net = rng.choice(pool)
            wb.add_pad(f"{rng.choice(('pi', 'po'))}:{net}", net)
        work.append(wb)
    return work, frozenset(dirty)


def _layout(work):
    return [(wb.names, wb.originals, wb.inputs, wb.outputs, wb.pads)
            for wb in work]


class TestPairFMOracle:
    """``_refine_pair`` builds its FM problem from the dirty instances
    alone; every pair must come out exactly as the full pair hypergraph
    leaves it: the same migrations, in the same slot order."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 10**9),
        n_blocks=st.integers(2, 4),
        dirty_fraction=st.floats(0.1, 0.6),
        max_passes=st.sampled_from([1, 4, 16]),
    )
    def test_random_pairs_match_the_full_pair_hypergraph(
        self, seed, n_blocks, dirty_fraction, max_passes
    ):
        config = IncrementalConfig(seed=seed % 1009, max_passes=max_passes)
        work, dirty = _random_work(seed, n_blocks, dirty_fraction)
        oracle, _ = _random_work(seed, n_blocks, dirty_fraction)
        for i in range(n_blocks):
            for j in range(i + 1, n_blocks):
                moves = incremental._refine_pair(work, i, j, dirty, config)
                expected = _oracle_refine_pair(oracle, i, j, dirty, config)
                assert moves == expected
                assert _layout(work) == _layout(oracle)
        for wb in work:
            assert set(wb.net_pins) == _block_nets(wb)

    def test_seeded_deltas_on_s5378_match_the_full_pair_hypergraph(
        self, monkeypatch
    ):
        """A chain of seeded 1% deltas on s5378 @0.5, the eco-chain
        workload's design: each step repairs with the dirty-only pair FM
        and with the oracle, and both solutions encode identically."""
        mapped = technology_map(benchmark_circuit("s5378", scale=0.5))
        solution = kway_solution(mapped, threshold=1, n_solutions=1, seed=3,
                                 seeds_per_carve=1, devices_per_carve=1)
        config = IncrementalConfig(seed=3)
        warm = 0
        for step in range(6):
            delta = seeded_delta(mapped, fraction=0.01, seed=step)
            post, dirty = delta.apply(mapped)
            repaired, info = incremental_partition(
                post, solution, dirty, config)
            with monkeypatch.context() as patch:
                patch.setattr(incremental, "_refine_pair", _oracle_refine_pair)
                expected, expected_info = incremental_partition(
                    post, solution, dirty, config)
            assert info == expected_info
            if repaired is None:
                assert expected is None
                continue
            assert codec.encode_solution(repaired) == codec.encode_solution(
                expected)
            warm += 1
            mapped, solution = post, repaired
        assert warm >= 4


class TestApiFrontDoor:
    @pytest.fixture()
    def store(self, tmp_path):
        return SolutionCache(str(tmp_path / "cache"))

    @pytest.fixture()
    def base_request(self):
        return build_request(
            "partition", "s5378", scale=0.25, seed=7, threshold=1,
            n_solutions=1,
        )

    def _eco_request(self, delta, **kwargs):
        return build_request(
            "partition", "s5378", scale=0.25, seed=7, threshold=1,
            n_solutions=1, delta=delta.to_dict(), **kwargs,
        )

    def test_empty_delta_is_a_pure_cache_hit(
        self, eco_mapped, store, base_request
    ):
        empty = NetlistDelta()
        with use_cache(store):
            cold = api.run_request(
                base_request, circuit=eco_mapped, cache="use"
            )
            assert cold.cache_info["status"] == "miss"
            hit = api.run_request(
                self._eco_request(empty), circuit=eco_mapped, cache="use"
            )
        assert hit.cache_info["status"] == "hit"
        assert json.dumps(
            hit.to_dict()["solution"], sort_keys=True
        ) == json.dumps(cold.to_dict()["solution"], sort_keys=True)

    def test_warm_solve_and_bit_identical_replay(
        self, eco_mapped, store, base_request
    ):
        delta = seeded_delta(eco_mapped, fraction=0.01, seed=0)
        with use_cache(store):
            api.run_request(base_request, circuit=eco_mapped, cache="use")
            warm = api.run_request(
                self._eco_request(delta), circuit=eco_mapped, cache="use"
            )
            replay = api.run_request(
                self._eco_request(delta), circuit=eco_mapped, cache="use"
            )
        warm_info = warm.cache_info["warm"]
        assert warm_info["mode"] == "warm"
        assert warm_info["dirty_cells"] > 0
        assert replay.cache_info["status"] == "hit"
        assert json.dumps(
            replay.to_dict()["solution"], sort_keys=True
        ) == json.dumps(warm.to_dict()["solution"], sort_keys=True)

    def test_a_bipartition_field_never_reaches_the_repair(self, tmp_path):
        """``max_passes`` is a bipartition field, so it is not in a
        partition request's key: setting it must not change what the
        key stores."""
        mapped = api.map("s5378", scale=0.5, seed=0).solution
        delta = seeded_delta(mapped, fraction=0.02, seed=3)
        fields = dict(scale=0.5, threshold=1, n_solutions=1,
                      seeds_per_carve=1, devices_per_carve=1)
        stored = []
        for extra in ({}, {"max_passes": 0}):
            store = SolutionCache(str(tmp_path / f"c{len(stored)}"))
            with use_cache(store):
                api.run_request(build_request("partition", "s5378", **fields),
                                circuit=mapped, cache="use")
                eco = api.run_request(
                    build_request("partition", "s5378", delta=delta.to_dict(),
                                  **fields, **extra),
                    circuit=mapped, cache="use",
                )
            assert eco.cache_info["warm"]["mode"] == "warm"
            key = eco.cache_info["key"]
            stored.append((key, json.dumps(store.get(key)["solution"],
                                           sort_keys=True)))
        assert stored[0] == stored[1]

    def test_delta_request_with_a_deadline_still_warm_starts(
        self, eco_mapped, store, base_request
    ):
        """Resilience fields do not send a delta request to a cold solve:
        the repair runs first, and only a declined one reaches the
        attempt cascade."""
        delta = seeded_delta(eco_mapped, fraction=0.01, seed=0)
        with use_cache(store):
            api.run_request(base_request, circuit=eco_mapped, cache="use")
            warm = api.run_request(
                self._eco_request(delta, deadline=1e6, max_retries=1),
                circuit=eco_mapped,
                cache="use",
            )
        assert warm.cache_info["warm"]["mode"] == "warm"
        assert warm.run_log is None

    def test_warm_start_off_forces_a_cold_solve(
        self, eco_mapped, store, base_request
    ):
        delta = seeded_delta(eco_mapped, fraction=0.01, seed=0)
        with use_cache(store):
            api.run_request(base_request, circuit=eco_mapped, cache="use")
            cold = api.run_request(
                self._eco_request(delta, warm_start="off"),
                circuit=eco_mapped,
                cache="use",
            )
        assert "warm" not in (cold.cache_info or {})
        assert cold.cache_info["status"] == "miss"

    def test_oversized_delta_falls_back_to_cold(
        self, eco_mapped, store, base_request
    ):
        delta = seeded_delta(eco_mapped, fraction=0.6, seed=0)
        with use_cache(store):
            api.run_request(base_request, circuit=eco_mapped, cache="use")
            result = api.run_request(
                self._eco_request(delta), circuit=eco_mapped, cache="use"
            )
        warm_info = result.cache_info["warm"]
        assert warm_info["mode"] == "cold"
        assert "dirty fraction" in warm_info["reason"]
        assert result.ok and result.solution.feasible

    def test_a_repair_failing_verification_falls_back_to_cold(
        self, eco_mapped, store, base_request, monkeypatch
    ):
        import repro.partition.incremental as incremental

        real = incremental.incremental_partition

        def dropping_one_instance(mapped, previous, dirty, config=None):
            solution, info = real(mapped, previous, dirty, config)
            if solution is not None:
                block = next(b for b in solution.blocks if b.cells)
                for arrays in (block.cells, block.originals,
                               block.cell_inputs, block.cell_outputs):
                    arrays.pop()
            return solution, info

        monkeypatch.setattr(
            incremental, "incremental_partition", dropping_one_instance
        )
        delta = seeded_delta(eco_mapped, fraction=0.01, seed=0)
        post, _ = delta.apply(eco_mapped)
        with use_cache(store):
            api.run_request(base_request, circuit=eco_mapped, cache="use")
            result = api.run_request(
                self._eco_request(delta), circuit=eco_mapped, cache="use"
            )
            replay = api.run_request(
                self._eco_request(delta), circuit=eco_mapped, cache="use"
            )
        warm_info = result.cache_info["warm"]
        assert warm_info["mode"] == "cold"
        assert warm_info["reason"].startswith("repair failed verification: ")
        assert result.run_log is not None  # the cold cascade solved it
        assert verify_solution(post, result.solution) == []
        assert replay.cache_info["status"] == "hit"
        assert json.dumps(
            replay.to_dict()["solution"], sort_keys=True
        ) == json.dumps(result.to_dict()["solution"], sort_keys=True)

    def test_one_fingerprint_per_netlist_per_request(
        self, eco_mapped, tmp_path, base_request, monkeypatch
    ):
        real = obs_ledger.netlist_fingerprint
        calls = []

        def counting(mapped):
            calls.append(mapped.name)
            return real(mapped)

        monkeypatch.setattr(obs_ledger, "netlist_fingerprint", counting)

        def run(request):
            calls.clear()
            result = api.run_request(request, circuit=eco_mapped, cache="use")
            return len(calls), result

        delta = seeded_delta(eco_mapped, fraction=0.01, seed=0)
        with use_cache(SolutionCache(str(tmp_path / "plain"))):
            n, cold = run(base_request)
            assert (n, cold.cache_info["status"]) == (1, "miss")
            n, hit = run(base_request)
            assert (n, hit.cache_info["status"]) == (1, "hit")
            n, warm = run(self._eco_request(delta))
            assert (n, warm.cache_info["warm"]["mode"]) == (2, "warm")
        # With delta.base set, one base hash serves the base check and
        # the ancestor lookup; a ledger reuses the solved netlist's hash.
        based = dataclasses.replace(delta, base=real(eco_mapped))
        ledger = obs_ledger.Ledger(str(tmp_path / "ledger"))
        with use_cache(SolutionCache(str(tmp_path / "based"))), \
                obs_ledger.use_ledger(ledger):
            n, cold = run(base_request)
            assert (n, cold.cache_info["status"]) == (1, "miss")
            n, warm = run(self._eco_request(based))
            assert (n, warm.cache_info["warm"]["mode"]) == (2, "warm")
        assert warm.run_record["run_key"] == warm.cache_info["key"]
        with open(warm.cache_info["path"], encoding="utf-8") as fh:
            entry = json.load(fh)
        assert entry["netlist_hash"] == warm.run_record["netlist_hash"]

    def test_fixed_terminal_delta_rejected(self, eco_mapped, base_request):
        po_driver = next(
            c for c in eco_mapped.cells
            if set(c.outputs) & set(eco_mapped.primary_outputs)
        )
        delta = NetlistDelta(
            ops=(DeltaOp(op="remove_cell", cell=po_driver.name),)
        )
        with pytest.raises(DeltaError, match="fixed terminals"):
            api.run_request(
                self._eco_request(delta), circuit=eco_mapped, cache="off"
            )

    def test_stale_base_hash_rejected(self, eco_mapped):
        delta = NetlistDelta(base="0" * 64)
        request = build_request(
            "partition", "s5378", scale=0.25, seed=7, threshold=1,
            n_solutions=1, delta=delta.to_dict(),
        )
        with pytest.raises(DeltaError, match="live netlist"):
            api.run_request(request, circuit=eco_mapped, cache="off")


class TestNearestAncestor:
    @staticmethod
    def _entry(key, netlist_hash, config_fp, seed):
        entry = build_entry(
            kind="partition",
            key=key,
            circuit="c",
            netlist_hash=netlist_hash,
            config={"verb": "partition"},
            seed=seed,
            solution={"stub": key},
            elapsed_seconds=1.0,
        )
        # nearest_ancestor ranks by the *stored* fingerprint field
        entry["config_fingerprint"] = config_fp
        return entry

    def test_prefers_exact_config_and_seed(self, tmp_path):
        store = SolutionCache(str(tmp_path))
        store.put(self._entry("aaa1", "h1", "cfgA", 1))
        store.put(self._entry("bbb2", "h1", "cfgA", 7))
        store.put(self._entry("ccc3", "h1", "cfgB", 7))
        best = nearest_ancestor(store, "h1", config_fp="cfgA", seed=7)
        assert best["key"] == "bbb2"

    def test_config_match_beats_hash_only(self, tmp_path):
        store = SolutionCache(str(tmp_path))
        store.put(self._entry("aaa1", "h1", "cfgB", 1))
        store.put(self._entry("bbb2", "h1", "cfgA", 1))
        best = nearest_ancestor(store, "h1", config_fp="cfgA", seed=7)
        assert best["key"] == "bbb2"

    def test_other_netlists_never_match(self, tmp_path):
        store = SolutionCache(str(tmp_path))
        store.put(self._entry("aaa1", "h2", "cfgA", 7))
        assert nearest_ancestor(store, "h1", config_fp="cfgA", seed=7) is None

    def test_empty_store_returns_none(self, tmp_path):
        assert nearest_ancestor(SolutionCache(str(tmp_path)), "h1") is None

    def test_exact_key_is_read_without_listing_the_store(
        self, tmp_path, monkeypatch
    ):
        store = SolutionCache(str(tmp_path))
        for i in range(500):
            store.put(self._entry(f"{i:04x}ffff", f"other{i}", "cfgA", 7))
        key = obs_ledger.run_key("h1", "cfgA", 7)
        store.put(self._entry(key, "h1", "cfgA", 7))

        def listing(self):
            raise AssertionError("nearest_ancestor listed the store")

        monkeypatch.setattr(SolutionCache, "entries", listing)
        best = nearest_ancestor(store, "h1", config_fp="cfgA", seed=7)
        assert best["key"] == key

    def test_corrupt_exact_entry_heals_and_the_scan_answers(self, tmp_path):
        store = SolutionCache(str(tmp_path))
        store.put(self._entry("bbb2", "h1", "cfgA", 1))
        key = obs_ledger.run_key("h1", "cfgA", 7)
        path = store.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"torn": ')
        best = nearest_ancestor(store, "h1", config_fp="cfgA", seed=7)
        assert best["key"] == "bbb2"
        assert not os.path.exists(path)
