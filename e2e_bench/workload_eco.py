"""eco-chain: successive seeded ~1% engineering change orders on s5378 @0.5.

The base is the recorded s5378 @0.5 netlist (the generator's default
seed), and each chain's solver seed and edits are fixed; the workload
seed picks the order the chains run in.  How often a step declines to a
cold solve depends strongly on the netlist, the base solution and the
edits: with seeded edits, ten seeds declined 5 to 13 of 60 steps, which
spread ``cold_s`` 0.18 while the warm steps' sum stayed within 6%.
Set-up generates and maps the base netlist and, per chain, derives every
edit with ``techmap.delta.seeded_delta`` against the previous step's
post-edit netlist and solves the base cold into the chain's own empty
cache.  Each timed step
is one ``api.run_request`` carrying the step's delta, with ``circuit=``
the previous netlist and ``cache="use"``, so it warm-starts from the
previous step's cache entry (or declines to a cold solve); each step is
followed by one replay of the same request, a verified cache hit.
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
    solution_doc,
    total,
)

NAME = "eco-chain"
CIRCUIT, SCALE = "s5378", 0.5
#: Independent chains per run, each from its own cold base solve (its
#: own solver seed) in its own store.  Chains differ a lot -- how soon the
#: repaired blocks run out of IOBs, how large the replayed solutions are
#: -- and chains sharing one base solution decline together, so a run
#: averages several independent ones.
CHAINS = 4
#: Chain length per second of ``--seconds``: 15 steps per chain at 25 s.
STEPS_PER_SECOND = 0.6
EDIT_FRACTION = 0.01
#: The cheapest carve scan: a declined step re-solves cold, and with the
#: recording settings of kway-sweep those re-solves would take most of the
#: phase and make its length hinge on how many steps decline.
SETTINGS = {"threshold": 1, "n_solutions": 1, "seeds_per_carve": 1,
            "devices_per_carve": 1}


def _request(seed: int, delta: Any = None) -> Any:
    from repro.request import PartitionRequest

    return PartitionRequest(verb="partition", circuit=CIRCUIT, scale=SCALE,
                            seed=seed, delta=delta, **SETTINGS)


def setup(work: str, seed: int, ctx: Dict[str, Any]) -> Dict[str, Any]:
    """The base netlist, then per chain its edits and a cold base solve
    into the chain's own empty cache."""
    from repro import api
    from repro.cache.store import SolutionCache, use_cache
    from repro.netlist import benchmarks
    from repro.techmap.delta import seeded_delta

    steps = max(5, round(ctx["seconds"] * STEPS_PER_SECOND))
    base = api.map(benchmarks.benchmark_circuit(CIRCUIT, scale=SCALE)).solution
    chains = []
    order = list(range(CHAINS))
    random.Random(derive_seed(seed, NAME, "order")).shuffle(order)
    for c in order:
        # Fixed solver seeds: a chain's base solution sets how soon its
        # repairs run out of IOBs, and seeded ones made the phase's length
        # swing with the seed far more than the edits do.
        chain_seed = derive_seed(c, NAME, "solver")
        netlists = [base]
        deltas = []
        for i in range(steps):
            delta = seeded_delta(netlists[-1], fraction=EDIT_FRACTION,
                                 seed=derive_seed(c, NAME, "edit", i))
            deltas.append(delta)
            netlists.append(delta.apply(netlists[-1])[0])
        cache = fresh_dir(os.path.join(work, f"chain{c}"))
        with use_cache(SolutionCache(cache)):
            solved = api.run_request(_request(chain_seed), circuit=base,
                                     cache="use")
        chains.append({"index": c, "seed": chain_seed, "netlists": netlists,
                       "deltas": deltas, "cache": cache, "base": solved})
    return {"chains": chains}


def measure(state: Dict[str, Any], tracer: Any, seconds: float) -> Dict[str, Any]:
    """The timed phase: every step of every chain, each then replayed."""
    from repro import api
    from repro.cache.store import SolutionCache, use_cache

    steps = []
    probe = SpeedProbe()
    start = perf_counter()
    with probe.running():
        for chain in state["chains"]:
            c = chain["index"]
            with use_cache(SolutionCache(chain["cache"])):
                for i, delta in enumerate(chain["deltas"]):
                    request = _request(chain["seed"], delta)
                    pair = []
                    for cls in ("miss", "hit"):
                        if tracer is not None:
                            tracer.trace_id = f"{cls}:c{c}s{i}"
                        probe.sample()
                        op = Op(cls, f"c{c}s{i}", sent=perf_counter(), done=0.0)
                        try:
                            result = api.run_request(
                                request, circuit=chain["netlists"][i], cache="use")
                        except Exception as exc:  # noqa: BLE001 - counted, not raised
                            result = None
                            op.fail(f"{type(exc).__name__}: {exc}")
                        op.done = perf_counter()
                        if result is not None:
                            op.cache = (result.cache_info or {}).get("status", "")
                        pair.append((op, result))
                    steps.append({"chain": chain, "step": i, "pair": pair})
        probe.sample()
    hi = perf_counter()
    probe.scale((op for step in steps for op, _ in step["pair"]), inside=True)
    return {"steps": steps, "lo": start, "hi": hi, "probe": probe,
            "probed": probe.spent(start, hi)}


def check(state: Dict[str, Any], measured: Dict[str, Any]) -> Dict[str, Any]:
    """Each step's solution must verify against its post-edit netlist;
    its replay must be a hit returning the byte-identical document."""
    solutions = []
    ops: List[Op] = []
    warm = attempted = 0
    for step in measured["steps"]:
        (miss, result), (hit, replay) = step["pair"]
        ops.extend([miss, hit])
        post = step["chain"]["netlists"][step["step"] + 1]
        if result is not None:
            info = (result.cache_info or {}).get("warm")
            if info is not None:
                attempted += 1
                warm += info.get("mode") == "warm"
            if miss.cache != "miss":
                miss.fail(f"step {miss.name}: cache {miss.cache}")
            else:
                problems = check_solution(post, result.solution)
                if problems:
                    miss.fail(f"step {miss.name}: {problems[0]}")
                else:
                    solutions.append(result.solution)
        if replay is not None:
            if hit.cache != "hit":
                hit.fail(f"replay {hit.name}: cache {hit.cache}")
            elif result is None or (
                    solution_doc(replay.solution) != solution_doc(result.solution)):
                hit.fail(f"replay {hit.name}: solution differs from its step")
    checks = []
    for chain in state["chains"]:
        problems = check_solution(chain["netlists"][0], chain["base"].solution)
        checks.append((f"base solve c{chain['index']}", problems[0] if problems else "ok"))
    return {"ops": ops, "solutions": solutions, "checks": checks,
            "warm_ratio": warm / attempted if attempted else 0.0}


def metrics(setup_s: float, measured: Dict[str, Any], checked: Dict[str, Any],
            scaled: bool) -> Dict[str, float]:
    ops = checked["ops"]
    wall = measured["hi"] - measured["lo"] - measured["probed"]
    cost, iob = quality(checked["solutions"])
    return {
        "setup_s": setup_s,
        "cold_s": total(latencies(ops, "miss", scaled)),
        "replay_s": total(latencies(ops, "hit", scaled)),
        "wall_s": wall * (pass_factor(ops) if scaled else 1.0),
        "miss_p50_s": median(latencies(ops, "miss", scaled)),
        "hit_p50_ms": 1000.0 * median(latencies(ops, "hit", scaled)),
        "total_cost": cost,
        "iob_util": iob,
        "peak_rss_mb": peak_rss_mb(),
    }


def layers(state: Dict[str, Any], measured: Dict[str, Any],
           checked: Dict[str, Any]) -> Dict[str, float]:
    return {"cache.store_mb": sum(dir_mb(c["cache"]) for c in state["chains"]),
            "partition.warm_ratio": checked["warm_ratio"]}


def teardown(state: Dict[str, Any]) -> None:
    """Nothing runs outside this process."""
