"""The partition service: queue/quota units + live HTTP server paths."""

import asyncio
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro

from repro import api
from repro.cache.store import SolutionCache, use_cache
from repro.request import build_request
from repro.robust import faults
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import Job, JobQueue, JobTable
from repro.service.quota import ClientQuota, TokenBucket
from repro.service.server import PartitionService
from repro.service.smoke import is_running, live_children

CIRCUIT = "s5378"
SCALE = 0.08


def quick_request(seed=7, **overrides):
    base = dict(
        circuit=CIRCUIT, scale=SCALE, seed=seed, threshold=1, n_solutions=1
    )
    base.update(overrides)
    return build_request("partition", **base)


def make_job(job_id="j1", priority=0, state="queued", client="anonymous"):
    return Job(
        job_id=job_id,
        request=quick_request(),
        priority=priority,
        state=state,
        client=client,
    )


# ---------------------------------------------------------------------------
# Queue / table / quota units
# ---------------------------------------------------------------------------


def test_queue_orders_by_priority_then_submission():
    queue = JobQueue()
    low = make_job("low", priority=0)
    high = make_job("high", priority=5)
    later = make_job("later", priority=5)
    for job in (low, high, later):
        queue.push(job)
    assert queue.pop() is high
    assert queue.pop() is later
    assert queue.pop() is low
    assert queue.pop() is None


def test_queue_skips_cancelled_tombstones():
    queue = JobQueue()
    victim = make_job("victim", priority=9)
    survivor = make_job("survivor")
    queue.push(victim)
    queue.push(survivor)
    victim.state = "cancelled"
    assert len(queue) == 1
    assert queue.pop() is survivor


def test_table_retention_evicts_only_finished():
    table = JobTable(keep_finished=2)
    live = make_job("live")
    table.add(live)
    for i in range(4):
        job = make_job(f"f{i}", state="done")
        table.add(job)
        table.finish(job)
    assert table.get("live") is live
    assert table.get("f0") is None and table.get("f1") is None
    assert table.get("f2") is not None and table.get("f3") is not None
    assert table.counts()["done"] == 2


def test_table_inflight_counts_per_client():
    table = JobTable()
    table.add(make_job("a", client="alice"))
    table.add(make_job("b", client="alice", state="running"))
    table.add(make_job("c", client="alice", state="done"))
    table.add(make_job("d", client="bob"))
    assert table.inflight("alice") == 2
    assert table.inflight("bob") == 1


def test_token_bucket_deterministic_clock():
    now = [0.0]
    bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
    assert bucket.try_acquire() and bucket.try_acquire()
    assert not bucket.try_acquire()
    assert bucket.retry_after() == pytest.approx(0.5)
    now[0] += 0.5
    assert bucket.try_acquire()
    with pytest.raises(ValueError):
        TokenBucket(rate=0, burst=1)


def test_client_quota_reasons():
    now = [0.0]
    quota = ClientQuota(rate=1.0, burst=1.0, max_inflight=2, clock=lambda: now[0])
    assert quota.admit("alice", 0) is None
    assert "submissions/s" in quota.admit("alice", 0)
    assert "in flight" in quota.admit("alice", 2)
    now[0] += 1.0
    assert quota.admit("alice", 1) is None
    # Independent buckets per client.
    assert quota.admit("bob", 0) is None


def test_hot_lookup_applies_the_delta_and_fingerprints_once(tmp_path, monkeypatch):
    from repro.batch.worker import mapped_netlist
    from repro.obs import ledger as obs_ledger
    from repro.techmap.delta import NetlistDelta, seeded_delta

    base = mapped_netlist(quick_request())
    delta = seeded_delta(base, fraction=0.02, seed=1)
    request = quick_request(delta=delta.to_dict(), cache="use")
    service = PartitionService(workers=1, cache="use", cache_dir=str(tmp_path))
    with use_cache(service.store):
        solved = api.run_request(request, circuit=base)
    assert solved.cache_info["status"] == "miss"

    counts = {"apply": 0, "fingerprint": 0}
    real_apply = NetlistDelta.apply
    real_fingerprint = obs_ledger.netlist_fingerprint

    def counting_apply(self, mapped):
        counts["apply"] += 1
        return real_apply(self, mapped)

    def counting_fingerprint(mapped):
        counts["fingerprint"] += 1
        return real_fingerprint(mapped)

    monkeypatch.setattr(NetlistDelta, "apply", counting_apply)
    monkeypatch.setattr(obs_ledger, "netlist_fingerprint", counting_fingerprint)
    doc, mapped = service._hot_result(request)
    assert mapped is base
    assert counts == {"apply": 1, "fingerprint": 1}
    assert doc["cache_info"]["status"] == "hit"
    assert doc["cache_info"]["key"] == solved.cache_info["key"]
    assert doc["solution"] == solved.to_dict()["solution"]
    # The public lookup answers the same document.
    assert api.cached_result(request, store=service.store).to_dict() == doc


def test_execute_job_solves_on_the_netlist_it_carries(monkeypatch):
    from repro.batch import worker
    from repro.batch.manifest import BatchJob

    request = quick_request(seed=41)
    mapped = api.map(
        request.circuit, scale=request.scale, seed=request.mapping_seed
    ).solution

    def no_mapping(*args, **kwargs):
        raise RuntimeError("mapped again")

    monkeypatch.setattr(worker, "_NETLISTS", {})
    monkeypatch.setattr(api, "map_circuit", no_mapping)
    carried = worker.execute_job(
        BatchJob(job_id="carried", request=request, mapped=mapped), cache="off"
    )
    assert carried.status == "ok", carried.error
    # Without the netlist the worker maps, which the patch refuses.
    bare = worker.execute_job(BatchJob(job_id="bare", request=request), cache="off")
    assert bare.status == "failed" and "mapped again" in bare.error


# ---------------------------------------------------------------------------
# Live server over real sockets
# ---------------------------------------------------------------------------


class ServiceThread:
    """Run a PartitionService on its own event-loop thread for tests."""

    def __init__(self, **kwargs):
        self.service = PartitionService(host="127.0.0.1", port=0, **kwargs)
        self._ready = threading.Event()
        self._stop = None
        self._loop = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.start()
        self._ready.set()
        await self._stop.wait()
        await self.service.stop()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(30), "service failed to start"
        return ServiceClient("127.0.0.1", self.service.port, client_id="test")

    def __exit__(self, *exc):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("service-cache"))
    with ServiceThread(workers=1, cache="use", cache_dir=cache_dir) as client:
        yield client, cache_dir


def test_health_and_stats(served):
    client, _ = served
    health = client.health()
    assert health["status"] == "ok"
    assert health["service"] == "repro-partition-service/1"
    stats = client.stats()
    assert "counters" in stats and "queue_depth" in stats


def test_submit_solve_hit_and_stream(served):
    client, cache_dir = served
    request = quick_request(seed=21)
    reply = client.submit(request)
    assert reply["_http_status"] == 202 and reply["state"] == "queued"
    done = client.wait(reply["job_id"], timeout=300)
    assert done["state"] == "done"
    assert done["result"]["schema"] == api.RESULT_SCHEMA_NAME
    assert done["result"]["ok"] is True

    # Same request again: instant 200 cache hit, bit-identical to a
    # direct api replay against the same store.
    hot = client.submit(request)
    assert hot["_http_status"] == 200 and hot["cached"] is True
    with use_cache(SolutionCache(cache_dir)):
        direct = api.run_request(request, cache="use")
    assert direct.cache_info.get("status") == "hit"
    assert hot["result"] == direct.to_dict()

    events = [e["event"] for e in client.stream(reply["job_id"])]
    assert events[0] == "job.queued"
    assert "job.start" in events and "job.done" in events
    assert events[-1] == "stream.end"


def test_a_miss_ships_its_netlist_and_the_finished_job_drops_it(tmp_path):
    thread = ServiceThread(workers=1, cache="use", cache_dir=str(tmp_path))
    with thread as client:
        service = thread.service
        shipped = []
        submit = service._pool.submit

        def recording_submit(batch_job):
            shipped.append(batch_job.mapped)
            return submit(batch_job)

        service._pool.submit = recording_submit
        reply = client.submit(quick_request(seed=43))
        assert reply["_http_status"] == 202
        assert client.wait(reply["job_id"], timeout=300)["state"] == "done"
        assert service.table.get(reply["job_id"]).mapped is None
    # The pool task carried the netlist the submit-time lookup keyed.
    assert len(shipped) == 1 and shipped[0] is not None
    assert shipped[0].n_cells > 0


def test_cancel_queued_job(served):
    client, _ = served
    # Occupy the single worker, then cancel a queued victim.
    slow = client.submit(quick_request(seed=33, scale=0.2, n_solutions=2))
    victim = client.submit(quick_request(seed=34, scale=0.2))
    if victim["_http_status"] == 202:
        cancelled = client.cancel(victim["job_id"])
        assert cancelled["cancelled"] is True
        final = client.status(victim["job_id"])
        # Cancelled stays the verdict even if the dispatcher raced us
        # and the job had already started (best-effort cancel).
        assert final["state"] == "cancelled"
    # Cancelling a terminal job is a no-op, not an error.
    if slow["_http_status"] == 202:
        client.wait(slow["job_id"], timeout=300)
        again = client.cancel(slow["job_id"])
        assert again["cancelled"] is False


def test_error_paths(served):
    client, _ = served
    with pytest.raises(ServiceError) as excinfo:
        client.status("no-such-job")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/v1/jobs", body={"request": {"verb": "nope"}})
    assert excinfo.value.status == 400
    # Out-of-range fields are refused at submit, not at execution.
    with pytest.raises(ServiceError) as excinfo:
        client._request("POST", "/v1/jobs", body={"request": {
            "verb": "bipartition", "circuit": "s5378", "runs": 0}})
    assert excinfo.value.status == 400
    with pytest.raises(ServiceError) as excinfo:
        client._request("PATCH", "/v1/jobs")
    assert excinfo.value.status == 405
    with pytest.raises(ServiceError) as excinfo:
        client._request("GET", "/v1/teapot")
    assert excinfo.value.status == 404
    # Unsolvable circuit: refused at submit with a clear 400.
    with pytest.raises(ServiceError) as excinfo:
        client.submit(build_request("partition", "not-a-circuit"))
    assert excinfo.value.status == 400


def test_rate_limit_429():
    with ServiceThread(
        workers=1, cache="off", rate=0.001, burst=1.0, max_inflight=1
    ) as client:
        with pytest.raises(ServiceError) as excinfo:
            for _ in range(3):
                client._request("GET", "/v1/stats")
                client._request(
                    "POST",
                    "/v1/jobs",
                    body={"request": quick_request().to_dict(), "client": "flood"},
                )
        assert excinfo.value.status == 429
        assert "Retry-After" not in excinfo.value.payload  # header, not body


def test_service_recovers_after_a_worker_dies(tmp_path):
    # The first submitted job's worker hard-exits before solving: the
    # job fails, the broken pool is replaced, and the next cold request
    # solves on fresh workers.
    cache_dir = str(tmp_path / "cache")
    victim_id = f"j000001-partition-{CIRCUIT}"
    with faults.inject(
        faults.Fault("batch.job", exit_code=17, match={"job": victim_id})
    ):
        with ServiceThread(workers=1, cache="use", cache_dir=cache_dir) as client:
            victim = client.submit(quick_request(seed=41))
            assert victim["job_id"] == victim_id
            dead = client.wait(victim_id, timeout=60)
            assert dead["state"] == "failed"
            assert "worker died" in dead["error"]

            request = quick_request(seed=42)
            reply = client.submit(request)
            assert reply["_http_status"] == 202
            done = client.wait(reply["job_id"], timeout=120)
            assert done["state"] == "done"
    with use_cache(SolutionCache(cache_dir)):
        direct = api.run_request(request, cache="use")
    assert direct.cache_info.get("status") == "hit"
    assert done["result"] == direct.to_dict()


# ---------------------------------------------------------------------------
# Process lifecycle of `repro serve`
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_sigterm_leaves_no_pool_worker_behind(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--cache-dir", str(tmp_path / "cache")],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        start_new_session=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on http://" in line, line
        client = ServiceClient(
            "127.0.0.1", int(line.rsplit(":", 1)[1].split()[0]), client_id="term"
        )
        # A full-scale s9234 k-way solve runs for minutes.
        slow = client.submit(build_request("partition", "s9234", seed=3))
        deadline = time.monotonic() + 60
        while client.status(slow["job_id"])["state"] != "running":
            assert time.monotonic() < deadline, "slow job never started"
            time.sleep(0.1)
        time.sleep(1.0)  # let the worker get into the solve proper
        workers = live_children(proc.pid)
        assert workers, "the running job has no pool worker"
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 10
        while any(is_running(pid) for pid in workers):
            assert time.monotonic() < deadline, "a pool worker outlived the server"
            time.sleep(0.1)
        assert proc.wait(timeout=10) == 0
    finally:
        try:  # the server's session: an orphaned worker keeps its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        proc.stdout.close()
