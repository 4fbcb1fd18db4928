"""kway-sweep: the Tables IV-VII T-sweep, cold through the batch scheduler
and then replayed from its cache.

Each sub-sweep partitions three circuits -- one per generator
kind: c6288 @1.0 (multiplier), c3540 @0.6 (random logic), s5378 @0.5
(sequential) -- at T in {inf, 0, 1, 2, 3} with the EXPERIMENTS.md
recording settings (one solution, two carve seeds, two candidate devices
per carve, solver seed 1994).  Set-up generates the recorded netlists
(the generator's default seed) and writes them as ``.bench`` files, which
is how the program receives them; the workload seed picks the order of
each sub-sweep's jobs and the warm-up netlist.  The solver seed stays the
recorded one: with a seeded solver, how many devices the T = inf carve
ends with moved a sweep's cold sum by about 15% from seed to seed, so the
timed work would have been a property of the seed.  The cold pass runs
into an empty cache with ``run_batch(jobs=1)``;
each replay re-runs the same manifest from that cache.  Three circuits
fit the batch worker's 4-entry mapped-netlist memo, so replays do not
re-map; sub-sweeps (one per 25 s of ``--seconds``) run one after the
other for the same reason.
"""

from __future__ import annotations

import os
import random
from time import perf_counter
from typing import Any, Dict, List

from e2e_common import (
    Op,
    SpeedProbe,
    check_solution,
    derive_seed,
    dir_mb,
    fresh_dir,
    latencies,
    median,
    pass_factor,
    peak_rss_mb,
    quality,
    total,
)

NAME = "kway-sweep"
CIRCUITS = (("c6288", 1.0), ("c3540", 0.6), ("s5378", 0.5))
SETTINGS = {"n_solutions": 1, "seeds_per_carve": 2, "devices_per_carve": 2}
#: The recorded experiments' solver seed; sub-sweep ``k`` uses ``+ k``.
SOLVER_SEED = 1994
#: One sub-sweep (a different solver seed) per this many ``--seconds``.
SECONDS_PER_SUBSWEEP = 25
#: Replays per sub-sweep; ``replay_s`` is the median replay round.
REPLAYS = 8
#: Set-ups per run (``setup_s`` is their median); this one is short.
SETUP_REPEATS = 5


def _bench_files(directory: str) -> List[str]:
    from repro.netlist import benchmarks
    from repro.netlist.bench_io import save_bench

    paths = []
    for name, scale in CIRCUITS:
        netlist = benchmarks.benchmark_circuit(name, scale=scale)
        path = os.path.relpath(os.path.join(directory, f"{name}.bench"))
        save_bench(netlist, path)
        paths.append(path)
    return paths


def setup(work: str, seed: int, ctx: Dict[str, Any]) -> Dict[str, Any]:
    """Generate the sub-sweeps' netlists and run an untimed warm-up batch
    on a netlist and cache of its own."""
    from repro.batch import scheduler
    from repro.experiments.tables4to7 import sweep_manifest
    from repro.netlist import benchmarks
    from repro.netlist.bench_io import save_bench

    paths = _bench_files(work)
    sweeps = []
    for k in range(max(1, round(ctx["seconds"] / SECONDS_PER_SUBSWEEP))):
        manifest = sweep_manifest(paths, seed=SOLVER_SEED + k, name=f"{NAME}-{k}",
                                  **SETTINGS)
        random.Random(derive_seed(seed, NAME, k)).shuffle(manifest["jobs"])
        sweeps.append({"manifest": manifest, "paths": paths,
                       "cache": os.path.join(work, f"cache{k}")})
    warm = fresh_dir(os.path.join(work, "warmup"))
    path = os.path.relpath(os.path.join(warm, "warmup.bench"))
    save_bench(benchmarks.benchmark_circuit(
        "s5378", scale=0.25, seed=derive_seed(0, NAME, "warmup")), path)
    scheduler.run_batch(
        sweep_manifest([path], seed=derive_seed(0, NAME, "warmup"),
                       thresholds=(1,), **SETTINGS),
        jobs=1, cache="use", cache_dir=os.path.join(warm, "cache"))
    return {"sweeps": sweeps}


def _batch_pass(sweep: Dict[str, Any], cls: str, tracer: Any,
                probe: SpeedProbe) -> Dict[str, Any]:
    from repro.batch import scheduler

    ops: Dict[str, Op] = {}

    def on_event(event: Dict[str, Any]) -> None:
        if event["event"] in ("job.start", "batch.done"):
            probe.sample()
        now = perf_counter()
        job_id = event.get("job_id")
        if event["event"] == "job.start":
            ops[job_id] = Op(cls, job_id, sent=now, done=now)
            if tracer is not None:
                tracer.trace_id = f"{cls}:{job_id}"
        elif event["event"] == "job.done":
            ops[job_id].done = now
            ops[job_id].cache = event.get("cache_status", "")

    start = perf_counter()
    report = scheduler.run_batch(sweep["manifest"], jobs=1, cache="use",
                                 cache_dir=sweep["cache"], on_event=on_event)
    end = perf_counter()
    return {"report": report, "ops": list(ops.values()),
            "wall": end - start - probe.spent(start, end)}


def measure(state: Dict[str, Any], tracer: Any, seconds: float) -> Dict[str, Any]:
    """The timed phase: per sub-sweep, one cold pass then the replays."""
    passes = []
    probe = SpeedProbe()
    start = perf_counter()
    with probe.running():
        for sweep in state["sweeps"]:
            cold = _batch_pass(sweep, "miss", tracer, probe)
            replays = [_batch_pass(sweep, "hit", tracer, probe)
                       for _ in range(REPLAYS)]
            passes.append({"cold": cold, "replays": replays})
    hi = perf_counter()
    probe.scale((op for run in passes for p in [run["cold"]] + run["replays"]
                 for op in p["ops"]), inside=True)
    return {"passes": passes, "lo": start, "hi": hi, "probe": probe}


def check(state: Dict[str, Any], measured: Dict[str, Any]) -> Dict[str, Any]:
    """Verify every solution the sweep stored, recompute its objectives,
    and require every replay to reproduce its miss exactly."""
    from repro import api
    from repro.cache import codec
    from repro.cache.store import SolutionCache
    from repro.obs.ledger import canonical_json, netlist_fingerprint

    solutions = []
    ops: List[Op] = []
    for sweep, run in zip(state["sweeps"], measured["passes"]):
        store = SolutionCache(sweep["cache"])
        mapped = {path: api.map(path).solution for path in sweep["paths"]}
        cold = run["cold"]
        views = {o.job_id: canonical_json(o.stable_view())
                 for o in cold["report"].outcomes}
        by_id = {o.job_id: o for o in cold["report"].outcomes}
        docs: Dict[str, str] = {}
        for op in cold["ops"]:
            outcome = by_id.get(op.name)
            if outcome is None or outcome.status != "ok" or op.cache != "miss":
                op.fail(f"cold job {op.name}: {getattr(outcome, 'status', 'lost')}"
                        f" / cache {op.cache}")
                continue
            entry = store.get(outcome.key)
            if entry is None:
                op.fail(f"cold job {op.name}: no cache entry")
                continue
            solution = codec.decode_solution(entry["solution"])
            netlist = mapped[outcome.circuit]
            problems = check_solution(netlist, solution)
            if entry["netlist_hash"] != netlist_fingerprint(netlist):
                problems.append("entry netlist hash differs from the input")
            if outcome.report.total_cost != solution.cost.total_cost:
                problems.append("report cost differs from its solution")
            if problems:
                op.fail(f"{op.name}: {problems[0]}")
                continue
            docs[op.name] = canonical_json(entry["solution"])
            solutions.append(solution)
        ops.extend(cold["ops"])
        for replay in run["replays"]:
            by_id = {o.job_id: o for o in replay["report"].outcomes}
            for op in replay["ops"]:
                outcome = by_id.get(op.name)
                if outcome is None or op.cache != "hit":
                    op.fail(f"replay {op.name}: cache {op.cache}")
                    continue
                if canonical_json(outcome.stable_view()) != views.get(op.name):
                    op.fail(f"replay {op.name}: outcome differs from its miss")
                    continue
                entry = store.get(outcome.key)
                if entry is None or canonical_json(entry["solution"]) != docs.get(op.name):
                    op.fail(f"replay {op.name}: solution document changed")
            ops.extend(replay["ops"])
    return {"ops": ops, "solutions": solutions}


def metrics(setup_s: float, measured: Dict[str, Any], checked: Dict[str, Any],
            scaled: bool) -> Dict[str, float]:
    ops = checked["ops"]
    passes = measured["passes"]

    def wall(p: Dict[str, Any]) -> float:
        return p["wall"] * (pass_factor(p["ops"]) if scaled else 1.0)

    rounds = [total(latencies([op for run in passes for op in run["replays"][r]["ops"]],
                              "hit", scaled)) for r in range(REPLAYS)]
    walls = [wall(run["cold"]) + median([wall(rp) for rp in run["replays"]])
             for run in passes]
    cost, iob = quality(checked["solutions"])
    return {
        "setup_s": setup_s,
        "cold_s": total(latencies(ops, "miss", scaled)),
        "replay_s": median(rounds),
        "wall_s": total(walls),
        "miss_p50_s": median(latencies(ops, "miss", scaled)),
        "hit_p50_ms": 1000.0 * median(latencies(ops, "hit", scaled)),
        "total_cost": cost,
        "iob_util": iob,
        "peak_rss_mb": peak_rss_mb(),
    }


def layers(state: Dict[str, Any], measured: Dict[str, Any],
           checked: Dict[str, Any]) -> Dict[str, float]:
    return {"cache.store_mb": sum(dir_mb(s["cache"]) for s in state["sweeps"])}


def teardown(state: Dict[str, Any]) -> None:
    """Nothing runs outside this process."""
