"""The stable, versioned entry point to the partitioning stack.

``repro.api`` is the recommended way to drive the reproduction
programmatically.  Every solve is a frozen, schema-versioned
:class:`~repro.request.PartitionRequest` executed by :func:`run_request`
-- the one execution path behind the CLI, batch manifests and the job
service (:mod:`repro.service`)::

    from repro import api

    req = api.PartitionRequest(verb="partition", circuit="s5378",
                               scale=0.5, threshold=1, seed=7)
    result = api.run_request(req)
    result.solution.cost.total_cost      # the paper's eq. (1) objective
    result.metrics                       # observability snapshot (if tracing)
    result.run_log                       # the attempt cascade's log
    api.RunResult.from_json(result.to_json())   # round-trippable results

``verb="bipartition"`` runs the paper's experiment 1 (Table III),
``verb="partition"`` the k-way heterogeneous flow (Tables IV-VII).
:func:`repro.request.build_request` builds a request from keyword
arguments; ``run_request(req, circuit=<live netlist>,
library=<custom DeviceLibrary>)`` solves objects that have no name to
resolve.  The other verbs:

* :func:`load` -- resolve a benchmark name / ``.bench`` path / netlist;
* :func:`map` -- technology-map a circuit into XC3000 CLBs;
* :func:`cached_result` -- a request's cached result, never a solve;
* :func:`analyze` -- validate and summarize an observability trace.

Every verb returns a :class:`RunResult` stamped with
``schema_version`` so downstream consumers can detect shape changes.
Every cold solve is one attempt cascade
(:func:`~repro.robust.runner.run_cascade`) whose first attempt is the
plain solver call at the request's seed; a request carrying any of
``deadline`` / ``max_retries`` / ``fallback`` adds deadline splitting,
retry with seed perturbation, engine degradation and checkpointing.
Each k-way attempt is verified before it can be returned, and the
cascade's :class:`~repro.robust.runner.RunLog` rides on the result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, Optional, Union

from repro.cache import codec as cache_codec
from repro.cache import store as cache_store
from repro.core.flow import (
    bipartition_experiment,
    kway_solution,
    map_circuit,
)
from repro.core.results import solve_row
from repro.netlist.benchmarks import RECORDED_SEED, benchmark_circuit
from repro.netlist.bench_io import load_bench
from repro.netlist.netlist import Netlist
from repro.obs import ledger as obs_ledger
from repro.obs.events import EVENT_SCHEMA_VERSION, validate_event, validate_jsonl_file
from repro.obs.metrics import get_registry
from repro.obs.summary import summarize_events
from repro.obs.telemetry import new_trace_id, series
from repro.partition.devices import XC3000_LIBRARY, DeviceLibrary, library_by_name
from repro.partition.kway import KWayConfig
from repro.partition.multilevel import resolve_multilevel
from repro.partition.verify import verify_solution
from repro.robust.budget import cancelled as _job_cancelled
from repro.robust.errors import DeltaError
from repro.request import (
    Algorithm,
    CachePolicy,
    MultilevelMode,
    PartitionRequest,
    RequestError,
    mapping_seed,
)
from repro.robust.runner import RunLog, relaxed_carve, run_cascade
from repro.techmap.mapped import MappedNetlist

#: Version of the :class:`RunResult` shape.  Bumped on any breaking
#: change to the dataclass fields or their meaning.
SCHEMA_VERSION = 1

#: Document identifier written in every serialized :class:`RunResult`.
RESULT_SCHEMA_NAME = "repro-run-result/1"


@dataclass
class RunResult:
    """Uniform envelope returned by every ``repro.api`` verb.

    ``solution`` holds the verb's primary artifact (a
    :class:`~repro.netlist.netlist.Netlist`, a
    :class:`~repro.techmap.mapped.MappedNetlist`, a
    :class:`~repro.core.results.BipartitionReport`, a
    :class:`~repro.partition.kway.KWaySolution`, or the analyze verdict
    dict).  ``run_log`` is the attempt cascade's log of a cold solve
    (``None`` for cache hits and warm repairs); ``metrics`` is the active
    observability registry's snapshot (empty when tracing is disabled).
    """

    kind: str  # "load" | "map" | "bipartition" | "partition" | "analyze"
    solution: Any
    run_log: Optional[RunLog] = None
    metrics: Dict[str, Any] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION
    #: The quality record appended to the run ledger, when one was
    #: enabled (``repro.obs.ledger``); ``None`` otherwise.  Additive
    #: field -- existing consumers of the version-1 shape are unaffected.
    run_record: Optional[Dict[str, Any]] = None
    #: Solution-cache interaction of this call (:mod:`repro.cache`):
    #: ``None`` with ``cache="off"``, otherwise a dict with ``status``
    #: (``"hit"`` | ``"miss"`` | ``"refreshed"`` | ``"skipped"``, the last
    #: with a ``reason``: ``"cancelled"`` or ``"truncated"``), ``key``,
    #: ``path`` and -- on a hit -- ``saved_seconds`` (the original solve
    #: wall-clock).
    #: Additive field, same compatibility note as ``run_record``.
    cache_info: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """True unless the solution reports itself infeasible or truncated
        (a k-way solution or a bipartition report cut short)."""
        feasible = getattr(self.solution, "feasible", True)
        truncated = getattr(self.solution, "truncated", False)
        return bool(feasible) and not truncated

    def to_dict(self) -> Dict[str, Any]:
        """The schema-versioned JSON document form, in stable field order.

        Only the solver verbs (``bipartition`` / ``partition``) serialize:
        their solutions round-trip through the solution-cache codec, which
        is exactly the representation cache entries and service responses
        already carry -- one serialization instead of three near-copies.
        The attempt cascade's log travels as its ``as_record()`` summary
        under ``"runner"``; raises ``TypeError`` for the other verbs.
        """
        return {
            "schema": RESULT_SCHEMA_NAME,
            "v": self.schema_version,
            "kind": self.kind,
            "ok": self.ok,
            "elapsed_seconds": self.elapsed_seconds,
            "solution": cache_codec.encode_solution(self.solution),
            "runner": self.run_log.as_record() if self.run_log else None,
            "metrics": self.metrics,
            "run_record": self.run_record,
            "cache_info": self.cache_info,
        }

    def to_json(self) -> str:
        """One-line JSON of :meth:`to_dict` (stable field order)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: Any) -> "RunResult":
        """Rebuild a result from its document form.

        ``run_log`` comes back as far as the ``"runner"`` summary holds it
        (:meth:`RunLog.from_record`), so the document round-trips.
        Raises ``ValueError`` on a wrong schema or undecodable solution.
        """
        if not isinstance(doc, dict):
            raise ValueError(f"result is {type(doc).__name__}, expected object")
        schema = doc.get("schema", RESULT_SCHEMA_NAME)
        if schema != RESULT_SCHEMA_NAME:
            raise ValueError(
                f"result schema {schema!r}, expected {RESULT_SCHEMA_NAME!r}"
            )
        runner = doc.get("runner")
        return cls(
            kind=doc["kind"],
            solution=cache_codec.decode_solution(doc["solution"]),
            run_log=RunLog.from_record(runner) if runner else None,
            metrics=doc.get("metrics") or {},
            elapsed_seconds=float(doc.get("elapsed_seconds", 0.0)),
            schema_version=int(doc.get("v", SCHEMA_VERSION)),
            run_record=doc.get("run_record"),
            cache_info=doc.get("cache_info"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Parse a serialized result; raises ``ValueError`` on bad input."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"result is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


def _metrics_snapshot() -> Dict[str, Any]:
    reg = get_registry()
    return reg.snapshot() if reg.enabled else {}


def _cache_try_hit(
    kind: str,
    store: cache_store.SolutionCache,
    key: str,
    mapped: MappedNetlist,
) -> Optional[tuple]:
    """``(solution, entry)`` when a trustworthy hit exists, else ``None``.

    A hit is trusted only after it survives decoding *and* -- for k-way
    solutions -- the independent checker
    :func:`~repro.partition.verify.verify_solution` against the live
    mapped netlist.  Anything less is deleted and treated as a miss, so
    a corrupted/stale entry can cost a recompute but never poison a run.
    """
    entry = store.get(key)
    if entry is None or entry.get("kind") != kind:
        return None
    try:
        solution = cache_codec.decode_solution(entry["solution"])
    except cache_codec.CacheDecodeError:
        store.delete(key)
        return None
    if kind == "partition" and verify_solution(mapped, solution):
        store.delete(key)
        return None
    store.touch(key)
    return solution, entry


def _cache_hit_result(
    kind: str,
    store: cache_store.SolutionCache,
    key: str,
    solution: Any,
    entry: Dict[str, Any],
) -> RunResult:
    """Reconstruct the :class:`RunResult` a fresh solve would return.

    ``elapsed_seconds`` is the *original* solve wall-clock from the
    entry, so anything derived downstream (Table IV CPU columns, ledger
    diffs) is bit-identical between cold and warm runs.
    """
    saved = float(entry["elapsed_seconds"])
    reg = get_registry()
    reg.counter("cache.hits").inc()
    reg.emit_event(
        "cache.hit",
        key=key,
        kind=kind,
        circuit=entry.get("circuit"),
        saved_seconds=saved,
    )
    return RunResult(
        kind=kind,
        solution=solution,
        metrics=_metrics_snapshot(),
        elapsed_seconds=saved,
        cache_info={
            "status": "hit",
            "key": key,
            "path": store.path_for(key),
            "saved_seconds": saved,
        },
    )


def _cache_store_result(
    kind: str,
    cache: str,
    store: cache_store.SolutionCache,
    key: str,
    circuit: str,
    netlist_hash: str,
    config: Dict[str, Any],
    seed: int,
    solution: Any,
    elapsed: float,
) -> Dict[str, Any]:
    """Memoize a fresh solve; returns the ``cache_info`` dict."""
    path = store.put(
        cache_store.build_entry(
            kind=kind,
            key=key,
            circuit=circuit,
            netlist_hash=netlist_hash,
            config=config,
            seed=seed,
            solution=cache_codec.encode_solution(solution),
            elapsed_seconds=elapsed,
        )
    )
    reg = get_registry()
    reg.counter("cache.misses" if cache == "use" else "cache.refreshes").inc()
    reg.counter("cache.stores").inc()
    reg.emit_event("cache.store", key=key, kind=kind, circuit=circuit)
    return {
        "status": "miss" if cache == "use" else "refreshed",
        "key": key,
        "path": path,
    }


def _try_warm_solve(
    request: PartitionRequest,
    store: Optional[cache_store.SolutionCache],
    base_mapped: MappedNetlist,
    base_hash: Optional[str],
    mapped: MappedNetlist,
    dirty: Any,
    config: Dict[str, Any],
) -> tuple:
    """Attempt an incremental warm-start solve for a delta request.

    Returns ``(solution, warm_info)``; ``solution`` is ``None`` when no
    usable prior exists, the repair declined or the repair fails
    :func:`~repro.partition.verify.verify_solution` against ``mapped``
    (``warm_info["reason"]`` says why, naming the first violation) and
    the caller falls back to the cold path.  The prior is the entry
    named by ``request.warm_start`` (when it is an explicit key) or the
    cache's nearest ancestor by *base* netlist hash -- ``base_hash`` when
    the caller already computed it, fingerprinted here otherwise.
    Warm-starting always needs the cache, so ``cache="off"`` requests
    solve cold regardless of ``warm_start``.
    """
    from repro.partition.incremental import IncrementalConfig, incremental_partition

    if store is None:
        return None, {"mode": "cold", "reason": "cache disabled"}
    explicit = request.warm_start not in (None, "auto")
    if explicit:
        entry = store.get(request.warm_start)
        miss = f"warm-start key {request.warm_start!r} not in cache"
    else:
        if base_hash is None:
            base_hash = obs_ledger.netlist_fingerprint(base_mapped)
        entry = cache_store.nearest_ancestor(
            store,
            base_hash,
            config_fp=obs_ledger.config_fingerprint(obs_ledger._jsonable(config)),
            seed=request.seed,
        )
        miss = "no cached ancestor for the base netlist"
    if entry is None or entry.get("kind") != "partition":
        return None, {"mode": "cold", "reason": miss}
    try:
        previous = cache_codec.decode_solution(entry["solution"])
    except cache_codec.CacheDecodeError:
        return None, {"mode": "cold", "reason": "ancestor entry undecodable"}
    solution, info = incremental_partition(
        mapped,
        previous,
        dirty,
        IncrementalConfig(seed=request.seed),
    )
    info["ancestor_key"] = entry.get("key")
    info["ancestor_elapsed"] = entry.get("elapsed_seconds")
    if solution is not None:
        problems = verify_solution(mapped, solution)
        if problems:
            info["mode"] = "cold"
            info["reason"] = f"repair failed verification: {problems[0]}"
            return None, info
    return solution, info


def _solve(
    request: PartitionRequest,
    mapped: MappedNetlist,
    library: Optional[DeviceLibrary],
    n_jobs: int,
) -> tuple:
    """``(solution, RunLog)``: the request's cold solve, one attempt
    cascade (:func:`~repro.robust.runner.run_cascade`) for both verbs.

    Each attempt is the verb's plain call -- ``kway_solution`` or
    ``bipartition_experiment`` -- at the cascade's engine, seed and
    budget, so a request without resilience fields is exactly one plain
    call at its own seed.  Every k-way attempt must pass
    ``verify_solution`` before it can become a checkpoint.
    """
    if request.verb == "bipartition":

        def attempt(engine: str, rung: int, seed: int, budget: Any) -> tuple:
            report = bipartition_experiment(
                mapped,
                algorithm=engine,
                runs=request.runs,
                threshold=request.threshold,
                seed=seed,
                balance_tolerance=request.balance_tolerance,
                max_passes=request.max_passes,
                max_growth=request.max_growth,
                budget=budget,
                jobs=n_jobs,
                multilevel=request.multilevel,
            )
            return report, (report.truncated, False, report.best_cut)

    else:

        def attempt(engine: str, rung: int, seed: int, budget: Any) -> tuple:
            fill_levels, devices = relaxed_carve(
                rung, KWayConfig.carve_fill_levels, request.devices_per_carve
            )
            solution = kway_solution(
                mapped,
                threshold=request.threshold,
                library=library,
                n_solutions=request.n_solutions,
                seed=seed,
                seeds_per_carve=request.seeds_per_carve,
                algorithm=engine,
                devices_per_carve=devices,
                budget=budget,
                jobs=n_jobs,
                multilevel=request.multilevel,
                carve_fill_levels=fill_levels,
            )
            verify_solution(mapped, solution, raise_on_violation=True)
            rank = (solution.truncated, not solution.feasible)
            return solution, rank + solution.cost.objective_key()

    return run_cascade(
        attempt,
        engine=request.algorithm.value,
        seed=request.seed,
        deadline=request.deadline,
        max_retries=request.max_retries,
        fallback=request.fallback,
    )


def load(
    circuit: Union[str, Netlist],
    scale: float = 1.0,
    seed: int = RECORDED_SEED,
) -> RunResult:
    """Resolve ``circuit`` into a gate-level netlist.

    Accepts a benchmark name (see ``repro.BENCHMARK_NAMES``), a path to
    an ISCAS ``.bench`` file, or an already-built
    :class:`~repro.netlist.netlist.Netlist` (returned unchanged).
    ``seed`` is the run seed: a benchmark is generated at
    :func:`~repro.request.mapping_seed` of it, so seed 0 gives the
    recorded circuits, as it does for every request.  Raises
    ``KeyError`` for an unknown name, ``ValueError`` for a scale outside
    (0, 1], and :class:`~repro.robust.errors.ParseError` or ``OSError``
    for a malformed or unreadable ``.bench`` file.
    """
    start = perf_counter()
    if isinstance(circuit, Netlist):
        netlist = circuit
    elif circuit.endswith(".bench"):
        netlist = load_bench(circuit)
    else:
        netlist = benchmark_circuit(circuit, scale=scale, seed=mapping_seed(seed))
    return RunResult(
        kind="load",
        solution=netlist,
        metrics=_metrics_snapshot(),
        elapsed_seconds=perf_counter() - start,
    )


def map(  # noqa: A001 - deliberate: api.map reads naturally at call sites
    circuit: Union[str, Netlist, MappedNetlist],
    scale: float = 1.0,
    seed: int = RECORDED_SEED,
) -> RunResult:
    """Technology-map ``circuit`` into XC3000 CLBs; a name or path is
    resolved by :func:`load` at run seed ``seed`` first."""
    start = perf_counter()
    if isinstance(circuit, MappedNetlist):
        mapped = circuit
    else:
        if not isinstance(circuit, Netlist):
            circuit = load(circuit, scale=scale, seed=seed).solution
        mapped = map_circuit(circuit)
    return RunResult(
        kind="map",
        solution=mapped,
        metrics=_metrics_snapshot(),
        elapsed_seconds=perf_counter() - start,
    )


def run_request(
    request: PartitionRequest,
    *,
    circuit: Union[str, Netlist, MappedNetlist, None] = None,
    library: Optional[DeviceLibrary] = None,
    cache: Union[CachePolicy, str, None] = None,
    jobs: Optional[int] = None,
) -> RunResult:
    """Execute a :class:`~repro.request.PartitionRequest` -- the one
    solver flow for both verbs.

    This is the single execution path: ledger resolution, technology
    mapping, multilevel resolution, cache lookup (verify-before-trust),
    the solve itself (one attempt cascade, verified for k-way), cache
    store and ledger append.  Every front door -- library callers, the
    CLI, batch jobs, the service -- builds a request and lands here, so
    they are bit-identical by construction.

    ``cache="use"`` consults the solution cache
    (:func:`repro.cache.resolve_cache`) and memoizes misses; a k-way hit
    is re-verified against the live mapped netlist before it is trusted
    and skips the solve and the ledger append.  ``"refresh"`` recomputes
    and overwrites the entry; ``"off"`` (the request default) bypasses
    the cache.  A cancelled or deadline-truncated solve is returned but
    never stored.  A carried ``delta`` makes the call an incremental
    re-solve that warm-starts from the nearest cached ancestor (see
    ``docs/INCREMENTAL.md``).  When a run ledger is enabled
    (:func:`repro.obs.ledger.resolve_ledger`) the quality record is
    appended and attached as ``run_record``.

    ``circuit`` and ``library`` are optional side-channels for callers
    that already hold the live objects (an in-memory netlist, a custom
    :class:`~repro.partition.devices.DeviceLibrary`); by default both
    resolve from the request's ``circuit`` / ``library`` names.  The
    library name is part of the cache identity, so a live ``library``
    must carry the request's ``library`` name (``RequestError``
    otherwise).  ``cache`` and ``jobs`` override the request's execution-only fields (useful for
    a scheduler re-running the same request under a different policy)
    without changing its identity.

    **Trace correlation:** the run executes under one ``trace_id`` --
    the request's own (minted by the service or a client) or a fresh one
    when tracing is enabled -- stamped on every observability line the
    run emits (solver spans, ``cache.hit``/``cache.store`` events,
    worker-pool fan-outs) and on the ledger record, so a single id links
    a service job to its solve, cache entry and ledger row.
    """
    if not isinstance(request, PartitionRequest):
        raise TypeError(
            f"run_request() takes a PartitionRequest, got {type(request).__name__}"
        )
    if library is not None and library.name != request.library:
        raise RequestError(
            f"library {library.name!r} does not match the request's "
            f"library={request.library!r} (part of its cache identity)"
        )
    reg = get_registry()
    trace_id = request.trace_id
    if trace_id is None and reg.enabled:
        trace_id = new_trace_id()
    with reg.trace_scope(trace_id):
        result = _execute_request(
            request,
            circuit=circuit,
            library=library,
            cache=cache,
            jobs=jobs,
            trace_id=trace_id,
        )
        if reg.enabled and trace_id is not None:
            reg.counter(
                series("runs.completed", trace=trace_id, verb=request.verb)
            ).inc()
    return result


def _execute_request(
    request: PartitionRequest,
    *,
    circuit: Union[str, Netlist, MappedNetlist, None],
    library: Optional[DeviceLibrary],
    cache: Union[CachePolicy, str, None],
    jobs: Optional[int],
    trace_id: Optional[str],
) -> RunResult:
    """:func:`run_request` minus trace-context management."""
    policy = request.cache if cache is None else CachePolicy.coerce(cache)
    n_jobs = request.jobs if jobs is None else jobs
    kind = request.verb
    start = perf_counter()
    ledger = obs_ledger.resolve_ledger()
    mapped = map(
        circuit if circuit is not None else request.circuit,
        scale=request.scale,
        seed=request.seed,
    ).solution
    # Incremental front door: apply a carried ECO delta before anything
    # that depends on the netlist (multilevel resolution, cache identity,
    # the solve itself).  An empty delta leaves ``mapped`` untouched, so
    # its key equals the base request's key -- a pure cache hit.
    base_mapped = mapped
    base_hash: Optional[str] = None
    dirty = None
    if request.delta is not None:
        if request.delta.base is not None:
            base_hash = obs_ledger.netlist_fingerprint(base_mapped)
            if request.delta.base != base_hash:
                raise DeltaError(
                    f"delta was computed against netlist "
                    f"{request.delta.base[:12]}..., but the live netlist "
                    f"is {base_hash[:12]}..."
                )
        mapped, dirty = request.apply_delta(base_mapped)
    config = request.config(resolve_multilevel(request.multilevel, mapped.n_cells))
    store = cache_store.resolve_cache() if policy is not CachePolicy.OFF else None
    # One fingerprint of the solved netlist serves the cache key, the
    # cache entry and the ledger record; the base hash is reused when the
    # delta left the netlist as it was.
    if mapped is base_mapped and base_hash is not None:
        netlist_hash = base_hash
    elif store is not None or ledger is not None:
        netlist_hash = obs_ledger.netlist_fingerprint(mapped)
    else:
        netlist_hash = ""  # neither the cache nor a ledger reads it
    key = (
        cache_store.cache_key(netlist_hash, config, request.seed)
        if store is not None
        else ""
    )
    if policy is CachePolicy.USE and store is not None:
        hit = _cache_try_hit(kind, store, key, mapped)
        if hit is not None:
            return _cache_hit_result(kind, store, key, hit[0], hit[1])
    if library is None and kind == "partition":
        if request.library != XC3000_LIBRARY.name:
            library = library_by_name(request.library)
    log: Optional[RunLog] = None
    warm_info: Optional[Dict[str, Any]] = None
    solution = None
    with obs_ledger.capture_events(enabled=ledger is not None) as events:
        if dirty is not None and (request.warm_start or "auto") != "off":
            solution, warm_info = _try_warm_solve(
                request, store, base_mapped, base_hash, mapped, dirty, config
            )
        if solution is None:
            solution, log = _solve(request, mapped, library, n_jobs)
    elapsed = perf_counter() - start
    if warm_info is not None and warm_info.get("mode") == "warm":
        prev_elapsed = warm_info.get("ancestor_elapsed")
        if isinstance(prev_elapsed, (int, float)) and elapsed > 0:
            warm_info["speedup"] = round(float(prev_elapsed) / elapsed, 3)
        reg = get_registry()
        if reg.enabled:
            # Counters are integers; the exact ratio rides the event.
            reg.counter("incr.warm_speedup").inc(
                max(1, round(float(warm_info.get("speedup", 1.0))))
            )
            reg.emit_event(
                "incr.warm",
                circuit=mapped.name,
                dirty_cells=int(warm_info.get("dirty_cells", 0)),
                speedup=float(warm_info.get("speedup", 0.0)),
                ancestor=str(warm_info.get("ancestor_key", "")),
            )
    cache_info = None
    if store is not None and _job_cancelled():
        # A cancelled solve wound down early: whatever it returned is
        # truncated, and memoizing it under the canonical key would
        # poison the cache for every future asker of the same request.
        cache_info = {"status": "skipped", "reason": "cancelled"}
    elif store is not None and solution.truncated:
        # A deadline cut the solve short: the answer depends on the
        # machine, so a replay of it would not be a replay of a solve.
        cache_info = {"status": "skipped", "reason": "truncated"}
    elif store is not None:
        cache_info = _cache_store_result(
            kind,
            policy.value,
            store,
            key,
            mapped.name,
            netlist_hash,
            config,
            request.seed,
            solution,
            elapsed,
        )
        if warm_info is not None:
            cache_info["warm"] = warm_info
    record = None
    if ledger is not None:
        _, quality = solve_row(kind, solution, request.threshold, elapsed)
        record = ledger.append(
            obs_ledger.build_record(
                kind=kind,
                circuit=mapped.name,
                netlist_hash=netlist_hash,
                config=config,
                seed=request.seed,
                quality=quality,
                convergence=obs_ledger.distill_convergence(events),
                elapsed_seconds=elapsed,
                runner_summary=log.as_record() if log is not None else None,
                trace_id=trace_id,
            )
        )
    return RunResult(
        kind=kind,
        solution=solution,
        run_log=log,
        metrics=_metrics_snapshot(),
        elapsed_seconds=elapsed,
        run_record=record,
        cache_info=cache_info,
    )


def cached_result(
    request: PartitionRequest,
    *,
    store: Optional[cache_store.SolutionCache] = None,
    mapped: Optional[MappedNetlist] = None,
) -> Optional[RunResult]:
    """A :class:`RunResult` for ``request`` served purely from the
    solution cache, or ``None`` when no trustworthy entry exists.

    No solve ever happens here: a hit is decoded, re-verified
    (verify-before-trust, like :func:`run_request`'s ``cache="use"``
    path) and wrapped exactly as a warm :func:`run_request` call would
    return it -- ``elapsed_seconds`` is the original solve wall-clock.
    The service's hot path: pass the memoized ``mapped`` netlist and the
    lookup is one shard read, independent of netlist size.
    """
    if store is None:
        store = cache_store.resolve_cache()
    if mapped is None:
        mapped = map(request.circuit, scale=request.scale, seed=request.seed).solution
    # ``mapped`` is the *base* netlist (the service memoizes it by
    # circuit x scale x mapping-seed); a carried delta applies here so
    # the key and the verify target are both the post-delta netlist.
    mapped, key = request.keyed_netlist(mapped)
    return _cached_lookup(request, store, mapped, key)


def _cached_lookup(
    request: PartitionRequest,
    store: cache_store.SolutionCache,
    mapped: MappedNetlist,
    key: str,
) -> Optional[RunResult]:
    """:func:`cached_result` for the post-delta ``mapped`` netlist and
    its ``key`` (:meth:`~repro.request.PartitionRequest.keyed_netlist`),
    which the service's hot path has already computed."""
    reg = get_registry()
    with reg.trace_scope(request.trace_id):
        hit = _cache_try_hit(request.verb, store, key, mapped)
        if hit is None:
            return None
        result = _cache_hit_result(request.verb, store, key, hit[0], hit[1])
        if reg.enabled and request.trace_id is not None:
            reg.counter(
                series("runs.completed", trace=request.trace_id, verb=request.verb)
            ).inc()
    return result


def analyze(metrics_path: str) -> RunResult:
    """Validate a JSONL observability trace and summarize it.

    ``solution`` is a dict with ``events`` (parsed event dicts),
    ``problems`` (schema violations, empty for a conforming stream) and
    ``summary`` (the human-readable report of the events that validate).
    """
    start = perf_counter()
    events, problems = validate_jsonl_file(metrics_path)
    # An event whose only problem is its schema version still has the
    # fields the report reads, so it is summarized (and reported).
    readable = [
        event for event in events
        if isinstance(event, dict)
        and not validate_event({**event, "v": EVENT_SCHEMA_VERSION})
    ]
    summary = summarize_events(readable) if events else ""
    return RunResult(
        kind="analyze",
        solution={"events": events, "problems": problems, "summary": summary},
        metrics=_metrics_snapshot(),
        elapsed_seconds=perf_counter() - start,
    )


__all__ = [
    "SCHEMA_VERSION",
    "RESULT_SCHEMA_NAME",
    "RunResult",
    "PartitionRequest",
    "Algorithm",
    "CachePolicy",
    "MultilevelMode",
    "load",
    "map",
    "run_request",
    "cached_result",
    "analyze",
]
