"""serve-mixed: open-loop traffic against a ``python -m repro serve`` process.

The server runs with one pool worker on an empty cache, quotas far above
the offered load.  One single-threaded generator sends seeded Poisson
arrivals at a fixed rate, one connection at a time, without waiting for
queued jobs: about 85% of requests repeat a three-request hot set solved
during set-up (instant 200 hits), about 15% are distinct-seed variants
of a small two-device design (s5378 @0.25), each a 202 miss solved on
the pool.  The distinct netlists outnumber the server's 8-entry mapped
netlist memo, so hot hits sometimes re-map.  The designs -- warm-up,
hot set and variants -- are the same in every run; the workload seed
picks the arrival times, which arrivals are misses, the hot request each
hit repeats and the order of the variants.  With seeded variants the
median miss moved with how large the seed's eleven netlists happened to
be.  Hits are timed from their
due time to the 200 reply; misses from their due time to the job's
``finished_ts``, read from ``GET /v1/jobs/<id>`` after the schedule (the
server stamps it with the same host clock the generator uses).
"""

from __future__ import annotations

import os
import random
import resource
import signal
import subprocess
import sys
import time
from time import perf_counter
from typing import Any, Dict, List, Optional

from e2e_common import (
    INF,
    Op,
    SpeedProbe,
    check_solution,
    derive_seed,
    dir_mb,
    fresh_dir,
    latencies,
    median,
    peak_rss_mb,
    quality,
    solution_doc,
    total,
)

NAME = "serve-mixed"
CIRCUIT, SCALE = "s5378", 0.25
SETTINGS = {"threshold": 1, "n_solutions": 1, "seeds_per_carve": 2,
            "devices_per_carve": 2}
#: Offered load (requests per second).  About 0.45 misses/s of ~0.45 s
#: keep the single worker near a fifth busy.
RATE = 3.0
MISS_SHARE = 0.15
HOT_SET = 3
PROBE_GAP_S = 0.03
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


def _request(seed: int) -> Any:
    from repro.request import PartitionRequest

    return PartitionRequest(verb="partition", circuit=CIRCUIT, scale=SCALE,
                            seed=seed, **SETTINGS)


def _client(port: int) -> Any:
    from repro.service.client import ServiceClient

    return ServiceClient(port=port, client_id="e2e-bench", timeout=120.0)


def _wait_terminal(client: Any, job_id: str) -> Dict[str, Any]:
    """Block on the job's event stream until it ends, then read the job."""
    for _ in client.stream(job_id):
        pass
    return client.status(job_id)


def _start_server(root: str, work: str, trace_dir: Optional[str]) -> Dict[str, Any]:
    cache = fresh_dir(os.path.join(work, "cache"))
    log_path = os.path.join(work, "server.log")
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
           "--workers", "1", "--cache-dir", cache, "--rate", "10000",
           "--burst", "10000", "--max-inflight", "10000"]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    with open(log_path, "w", encoding="utf-8") as log:
        # A shell starts background jobs with SIGINT ignored, and children
        # inherit that; the server needs it back to shut its pool down.
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    server = {"proc": proc, "cache": cache, "log": log_path, "port": None}
    deadline = time.monotonic() + START_TIMEOUT_S
    while server["port"] is None:
        with open(log_path, encoding="utf-8") as fh:
            for line in fh:
                if "listening on http://" in line:
                    server["port"] = int(line.split("listening on http://")[1]
                                         .split()[0].rsplit(":", 1)[1])
        if server["port"] is None:
            if proc.poll() is not None or time.monotonic() > deadline:
                stop_server(server)
                raise RuntimeError(f"server did not start; see {log_path}")
            time.sleep(0.02)
    return server


def _group_alive(pgid: int) -> bool:
    """Whether a process of group ``pgid`` is still running (zombies,
    which have ended and wait only for a parent to reap them, do not
    count)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                state, _, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def stop_server(server: Dict[str, Any]) -> None:
    """Stop the server and everything it started, and wait until they end.

    SIGINT is the server's graceful path (it shuts its pool down); when
    that does not end the process group in time, SIGTERM and then SIGKILL
    go to the whole group.
    """
    proc = server["proc"]
    for sig in (signal.SIGINT, signal.SIGTERM, signal.SIGKILL):
        if not _group_alive(proc.pid):
            break
        try:
            if sig == signal.SIGINT:
                proc.send_signal(sig)
            else:
                os.killpg(proc.pid, sig)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while _group_alive(proc.pid) and time.monotonic() < deadline:
            proc.poll()
            time.sleep(0.02)
    proc.wait()


def setup(work: str, seed: int, ctx: Dict[str, Any]) -> Dict[str, Any]:
    """Start the server, run one untimed warm-up miss and solve the hot set."""
    server = _start_server(ctx["root"], work, ctx.get("trace_dir"))
    try:
        client = _client(server["port"])
        warm = client.submit(_request(derive_seed(0, NAME, "warmup")))
        jobs = [warm["job_id"]]
        hot = [_request(derive_seed(h, NAME, "hot")) for h in range(HOT_SET)]
        jobs += [client.submit(request)["job_id"] for request in hot]
        for job_id in jobs:
            doc = _wait_terminal(client, job_id)
            if doc.get("state") != "done":
                raise RuntimeError(f"set-up job {job_id} ended {doc.get('state')}")
    except Exception:
        stop_server(server)
        raise
    return {"server": server, "hot": hot, "seed": seed}


def _schedule(seed: int, seconds: float, hot: List[Any]) -> List[Dict[str, Any]]:
    """Arrival offsets of a Poisson process conditioned on its count (sorted
    uniforms), with a fixed number of misses at seeded positions, one in
    each equal block of arrivals, each a distinct variant of the fixed
    pool in seeded order.  Misses placed anywhere queued behind each
    other: one run in five had four of its eleven misses wait behind
    another, and its median miss read 40% above the rest."""
    rng = random.Random(derive_seed(seed, NAME, "schedule"))
    n = max(2, round(RATE * seconds))
    offsets = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    n_miss = max(1, round(MISS_SHARE * n))
    bounds = [round(b * n / n_miss) for b in range(n_miss + 1)]
    order = list(range(n_miss))
    rng.shuffle(order)
    variants = {rng.randrange(bounds[b], bounds[b + 1]):
                _request(derive_seed(order[b], NAME, "cold")) for b in range(n_miss)}
    plan = []
    for i, offset in enumerate(offsets):
        if i in variants:
            plan.append({"cls": "miss", "offset": offset, "request": variants[i]})
        else:
            plan.append({"cls": "hit", "offset": offset,
                         "request": hot[rng.randrange(len(hot))]})
    return plan


def measure(state: Dict[str, Any], tracer: Any, seconds: float) -> Dict[str, Any]:
    """Send the schedule open-loop, then read every miss's job document."""
    from repro.service.client import ServiceError

    client = _client(state["server"]["port"])
    plan = _schedule(state["seed"], seconds, state["hot"])
    ops: List[Op] = []
    replies: List[Optional[Dict[str, Any]]] = []
    # Probe bursts go into the generator's idle gaps, never past a due time.
    probe = SpeedProbe(clock=time.time)
    lo = perf_counter()
    t0 = time.time() + 0.05
    for i, item in enumerate(plan):
        due = t0 + item["offset"]
        if due - time.time() > PROBE_GAP_S:
            probe.sample()
        delay = due - time.time()
        if delay > 0:
            time.sleep(delay)
        trace = f"{item['cls']}-{i:04d}"
        op = Op(item["cls"], trace, sent=time.time(), done=0.0, due=due)
        try:
            if tracer is not None:
                tracer.trace_id = trace
                reply = tracer.call("service.submit", client.submit,
                                    item["request"], trace_id=trace)
            else:
                reply = client.submit(item["request"], trace_id=trace)
        except ServiceError as exc:
            reply = None
            op.fail(f"HTTP {exc.status}")
        except OSError as exc:
            reply = None
            op.fail(f"{type(exc).__name__}: {exc}")
        op.done = time.time()
        if reply is not None:
            op.cache = "hit" if reply["_http_status"] == 200 else "queued"
        ops.append(op)
        replies.append(reply)
    jobs: Dict[str, Dict[str, Any]] = {}
    submit_s: Dict[str, float] = {}
    for op, reply in zip(ops, replies):
        if op.cls != "miss" or reply is None or reply["_http_status"] != 202:
            continue
        job_id = reply["job_id"]
        try:
            doc = (tracer.call("service.drain", _wait_terminal, client, job_id)
                   if tracer is not None else _wait_terminal(client, job_id))
        except (ServiceError, OSError) as exc:
            op.fail(f"job {job_id}: {type(exc).__name__}")
            continue
        jobs[op.name] = doc
        submit_s[op.name] = op.done - op.sent  # the 202 round trip
        op.extra = {k: doc.get(k) for k in ("submitted_ts", "started_ts", "finished_ts")}
        op.extra["reply"] = op.done
        if doc.get("finished_ts") is not None:
            op.done = doc["finished_ts"]
    hi = perf_counter()
    probe.sample()
    # The bursts run on whichever core the generator gets, seldom the
    # busy worker's, so only their level over the whole phase is used.
    probe.scale(ops, local=False)
    stats = client.stats()
    return {"plan": plan, "ops": ops, "replies": replies, "jobs": jobs,
            "submit_s": submit_s, "stats": stats, "lo": lo, "hi": hi,
            "probe": probe}


def check(state: Dict[str, Any], measured: Dict[str, Any]) -> Dict[str, Any]:
    """Verify every served solution, require identical documents for
    repeats of one hot request, and compare one served hit with a direct
    ``api.run_request`` replay on the server's store."""
    from repro import api
    from repro.cache.store import SolutionCache, use_cache

    mapped: Dict[int, Any] = {}

    def netlist(request: Any) -> Any:
        if request.seed not in mapped:
            mapped[request.seed] = api.map(
                request.circuit, scale=request.scale, seed=request.mapping_seed
            ).solution
        return mapped[request.seed]

    solutions: Dict[int, Any] = {}
    docs: Dict[int, str] = {}
    first_hit: Optional[Dict[str, Any]] = None
    for item, op, reply in zip(measured["plan"], measured["ops"], measured["replies"]):
        if not op.ok:
            continue
        request = item["request"]
        if op.cls == "hit":
            if reply["_http_status"] != 200:
                op.fail("hot request was not served from the cache")
                continue
            result_doc = reply.get("result")
        else:
            job = measured["jobs"].get(op.name, {})
            if job.get("state") != "done":
                op.fail(f"job ended {job.get('state')}: {job.get('error')}")
                continue
            result_doc = job.get("result")
        try:
            result = api.RunResult.from_dict(result_doc)
        except (ValueError, KeyError, TypeError) as exc:
            op.fail(f"unreadable result: {exc}")
            continue
        problems = check_solution(netlist(request), result.solution)
        if problems:
            op.fail(problems[0])
            continue
        doc = solution_doc(result.solution)
        if docs.setdefault(request.seed, doc) != doc:
            op.fail("repeat of a hot request returned another solution")
            continue
        solutions[request.seed] = result.solution
        if op.cls == "hit" and first_hit is None:
            first_hit = {"request": request, "result": result_doc}
    checks = []
    if first_hit is None:
        checks.append(("direct-replay", "no served hit to compare"))
    else:
        with use_cache(SolutionCache(state["server"]["cache"])):
            direct = api.run_request(first_hit["request"], cache="use")
        served = first_hit["result"]
        same = ((direct.cache_info or {}).get("status") == "hit"
                and direct.to_dict()["solution"] == served["solution"]
                and direct.elapsed_seconds == served["elapsed_seconds"])
        checks.append(("direct-replay", "ok" if same else
                       "served hit differs from a direct run_request replay"))
    return {"ops": measured["ops"], "solutions": list(solutions.values()),
            "checks": checks}


def metrics(setup_s: float, measured: Dict[str, Any], checked: Dict[str, Any],
            scaled: bool) -> Dict[str, float]:
    """``cold_s`` and ``replay_s`` sum service times -- each miss's
    execution (started -> finished), each hit's round trip -- since sums of
    open-loop latencies would add up the schedule's own queueing and
    lateness; the medians keep those.  ``wall_s`` stays in wall seconds:
    the schedule's span is wall-clock by design."""
    ops = checked["ops"]
    ok = all(op.ok for op in ops)

    def f(op: Op) -> float:
        return op.factor if scaled else 1.0

    cost, iob = quality(checked["solutions"])
    return {
        "setup_s": setup_s,
        "cold_s": total([(op.extra["finished_ts"] - op.extra["started_ts"]) * f(op)
                         for op in ops if op.cls == "miss"]) if ok else INF,
        "replay_s": total([(op.done - op.sent) * f(op)
                           for op in ops if op.cls == "hit"]) if ok else INF,
        "wall_s": (max(op.done for op in ops) - min(op.sent for op in ops)
                   if ok else INF),
        "miss_p50_s": median(latencies(ops, "miss", scaled)),
        "hit_p50_ms": 1000.0 * median(latencies(ops, "hit", scaled)),
        "total_cost": cost,
        "iob_util": iob,
        # The server and its pool worker are this process's only
        # children; both are reaped by the time metrics are read.
        "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
    }


def layers(state: Dict[str, Any], measured: Dict[str, Any],
           checked: Dict[str, Any]) -> Dict[str, float]:
    """The service/perf rows, from job documents and ``/v1/stats``."""
    submit, wait, execs, solves, handoff = [], [], [], [], []
    for op in measured["ops"]:
        job = measured["jobs"].get(op.name)
        if op.cls != "miss" or not job or job.get("state") != "done":
            continue
        submit.append(measured["submit_s"][op.name])
        wait.append(job["started_ts"] - job["submitted_ts"])
        exec_s = job["finished_ts"] - job["started_ts"]
        solve_s = float(job["result"]["elapsed_seconds"])
        execs.append(exec_s)
        solves.append(solve_s)
        handoff.append(exec_s - solve_s)
    counters = measured["stats"].get("counters", {})
    late = [op.sent - op.due for op in measured["ops"]]
    return {
        "service.submit_ms": 1000.0 * median(submit),
        "service.queue_wait_s": median(wait),
        "service.exec_s": median(execs),
        "service.solve_s": median(solves),
        "service.late_s": max(late) if late else 0.0,
        "service.rejected": float(counters.get("rejected", 0)),
        "service.failed": float(counters.get("failed", 0)
                                + counters.get("expired", 0)),
        "perf.handoff_s": median(handoff),
        "cache.store_mb": dir_mb(state["server"]["cache"]),
    }


def teardown(state: Dict[str, Any]) -> None:
    stop_server(state["server"])
