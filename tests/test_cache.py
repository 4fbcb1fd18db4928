"""Solution cache: store edge cases, codec round-trips, api policies."""

import json
import os
import threading

import pytest

from repro import api
from repro.cache.codec import (
    CODEC_VERSION,
    CacheDecodeError,
    decode_solution,
    encode_solution,
)
from repro.cache.store import (
    CACHE_ENV_VAR,
    DEFAULT_CACHE_DIR,
    SolutionCache,
    build_entry,
    cache_key,
    get_cache,
    resolve_cache,
    set_cache,
    use_cache,
    validate_entry,
)
from repro.obs.ledger import _jsonable, netlist_fingerprint
from repro.request import build_request

CIRCUIT = "s5378"
SCALE = 0.1


@pytest.fixture
def store(tmp_path):
    return SolutionCache(str(tmp_path / "cache"))


@pytest.fixture(scope="module")
def mapped():
    return api.map(CIRCUIT, scale=SCALE, seed=1994).solution


@pytest.fixture(scope="module")
def kway_result(mapped):
    request = build_request(
        "partition", mapped.name, scale=SCALE, seed=1994, n_solutions=1,
        seeds_per_carve=2, devices_per_carve=2,
    )
    return api.run_request(request, circuit=mapped)


def _entry_for(mapped, solution, seed=1994, config=None):
    config = config or {"verb": "partition", "threshold": 1}
    key = cache_key(netlist_fingerprint(mapped), config, seed)
    return build_entry(
        kind="partition",
        key=key,
        circuit=mapped.name,
        netlist_hash="x" * 16,
        config=config,
        seed=seed,
        solution=encode_solution(solution),
        elapsed_seconds=1.25,
    )


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def test_cache_key_is_deterministic_and_sensitive(mapped):
    config = {"verb": "partition", "threshold": 1}
    digest = netlist_fingerprint(mapped)
    key = cache_key(digest, config, 7)
    assert key == cache_key(digest, dict(config), 7)
    assert key != cache_key(digest, {**config, "threshold": 2}, 7)
    assert key != cache_key(digest, config, 8)
    assert key != cache_key("0" * 16, config, 7)


def test_cache_key_canonicalizes_inf(mapped):
    # float('inf') is not JSON; the ledger canonicalization makes it part
    # of the key rather than an error.
    digest = netlist_fingerprint(mapped)
    a = cache_key(digest, {"threshold": float("inf")}, 0)
    b = cache_key(digest, {"threshold": float("inf")}, 0)
    assert a == b


def test_cache_key_takes_the_netlist_hash_not_the_netlist(mapped):
    with pytest.raises(TypeError, match="netlist hash"):
        cache_key(mapped, {"verb": "partition"}, 0)


def test_short_key_rejected(store):
    with pytest.raises(ValueError):
        store.path_for("ab")


# ---------------------------------------------------------------------------
# Store round-trip and corruption healing
# ---------------------------------------------------------------------------


def test_put_get_roundtrip_and_sharding(store, mapped, kway_result):
    entry = _entry_for(mapped, kway_result.solution)
    path = store.put(entry)
    assert os.path.dirname(path).endswith(entry["key"][:2])
    got = store.get(entry["key"])
    assert got is not None and got["key"] == entry["key"]
    decoded = decode_solution(got["solution"])
    assert decoded.summary() == kway_result.solution.summary()


@pytest.mark.parametrize(
    "verb, fields",
    [
        ("partition", {"threshold": float("inf"), "n_solutions": 1,
                       "seeds_per_carve": 2, "devices_per_carve": 2}),
        ("bipartition", {"runs": 2}),
    ],
)
def test_put_writes_the_jsonable_rendering(store, monkeypatch, verb, fields):
    import copy

    stored = []
    real_put = SolutionCache.put

    def capturing_put(self, entry):
        stored.append(copy.deepcopy(entry))
        return real_put(self, entry)

    monkeypatch.setattr(SolutionCache, "put", capturing_put)
    with use_cache(store):
        result = api.run_request(build_request(
            verb, CIRCUIT, scale=SCALE, seed=1994, cache="use", **fields
        ))
    (entry,) = stored
    with open(result.cache_info["path"], encoding="utf-8") as fh:
        text = fh.read()
    assert text == json.dumps(
        _jsonable(entry), sort_keys=True, separators=(",", ":")
    ) + "\n"
    if verb == "partition":
        assert entry["config"]["threshold"] == "inf"


def test_put_refuses_a_non_strict_entry(store, mapped, kway_result):
    entry = _entry_for(mapped, kway_result.solution)
    entry["elapsed_seconds"] = float("inf")
    with pytest.raises(ValueError):
        store.put(entry)
    assert store.entries() == []


def test_validate_entry_flags_problems(mapped, kway_result):
    entry = _entry_for(mapped, kway_result.solution)
    assert validate_entry(entry) == []
    assert validate_entry("nope")
    bad = dict(entry)
    bad["v"] = 99
    bad["seed"] = "seven"
    problems = validate_entry(bad)
    assert any("v=" in p for p in problems)
    assert any("seed" in p for p in problems)


def test_corrupted_entry_is_a_miss_and_self_heals(store, mapped, kway_result):
    entry = _entry_for(mapped, kway_result.solution)
    path = store.put(entry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{ this is not json")
    assert store.get(entry["key"]) is None
    assert not os.path.exists(path)  # bad file deleted, slot heals


def test_truncated_entry_is_a_miss(store, mapped, kway_result):
    entry = _entry_for(mapped, kway_result.solution)
    path = store.put(entry)
    blob = open(path, encoding="utf-8").read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(blob[: len(blob) // 2])  # torn write simulation
    assert store.get(entry["key"]) is None
    assert not os.path.exists(path)


def test_key_mismatch_is_a_miss(store, mapped, kway_result):
    entry = _entry_for(mapped, kway_result.solution)
    store.put(entry)
    other = dict(entry, key=entry["key"][::-1])
    path = store.path_for(other["key"])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh)  # body claims a different key
    assert store.get(other["key"]) is None


def test_decode_rejects_stale_codec_and_unknown_type():
    with pytest.raises(CacheDecodeError):
        decode_solution({"codec": CODEC_VERSION + 1, "type": "kway"})
    with pytest.raises(CacheDecodeError):
        decode_solution({"codec": CODEC_VERSION, "type": "mystery"})
    with pytest.raises(CacheDecodeError):
        decode_solution([1, 2, 3])


def test_bipartition_truncated_flag_is_written_only_when_set():
    from repro.core.results import BipartitionReport

    report = BipartitionReport("c", "fm", 2, [3, 4], [0, 0], 0.5, 10)
    assert "truncated" not in encode_solution(report)
    cut_short = BipartitionReport("c", "fm", 1, [3], [0], 0.5, 10, truncated=True)
    payload = encode_solution(cut_short)
    assert payload["truncated"] is True
    assert decode_solution(payload) == cut_short
    assert decode_solution(encode_solution(report)) == report


def test_encode_rejects_uncacheable_shapes():
    with pytest.raises(TypeError):
        encode_solution(object())


# ---------------------------------------------------------------------------
# Eviction
# ---------------------------------------------------------------------------


def test_eviction_under_size_cap(store, mapped, kway_result):
    paths = []
    for seed in range(4):
        entry = _entry_for(mapped, kway_result.solution, seed=seed)
        paths.append(store.put(entry))
        # Distinct mtimes so LRU order is well defined on coarse clocks.
        os.utime(paths[-1], (seed, seed))
    sizes = [os.path.getsize(p) for p in paths]
    store.max_bytes = sum(sizes) - 1  # one entry over the cap
    evicted = store.evict()
    assert len(evicted) == 1
    assert not os.path.exists(paths[0])  # oldest mtime went first
    assert all(os.path.exists(p) for p in paths[1:])
    assert store.stats()["bytes"] <= store.max_bytes


def test_touch_protects_recent_entries_from_eviction(store, mapped, kway_result):
    entries = [_entry_for(mapped, kway_result.solution, seed=s) for s in range(3)]
    paths = [store.put(e) for e in entries]
    for n, path in enumerate(paths):
        os.utime(path, (n, n))
    store.touch(entries[0]["key"])  # oldest becomes newest
    evicted = store.evict(max_bytes=os.path.getsize(paths[0]) + 1)
    assert entries[0]["key"] not in evicted
    assert store.get(entries[0]["key"]) is not None


def test_evict_zero_empties_store(store, mapped, kway_result):
    for seed in range(3):
        store.put(_entry_for(mapped, kway_result.solution, seed=seed))
    assert store.stats()["entries"] == 3
    store.evict(0)
    assert store.stats() == {
        "root": store.root, "entries": 0, "bytes": 0, "shards": 0,
        "max_bytes": store.max_bytes,
    }


def test_put_runs_eviction_automatically(store, mapped, kway_result, tmp_path):
    first = _entry_for(mapped, kway_result.solution, seed=0)
    second = _entry_for(mapped, kway_result.solution, seed=1)
    path = store.put(first)
    os.utime(path, (1, 1))
    # The entries' lengths differ with their created_ts floats, so the cap
    # is the larger of the two on-disk sizes: either fits, both do not.
    sizer = SolutionCache(str(tmp_path / "sizer"))
    store.max_bytes = max(os.path.getsize(path), os.path.getsize(sizer.put(second)))
    store.put(second)
    assert store.stats()["entries"] == 1
    assert store.get(first["key"]) is None  # older entry was evicted
    assert store.get(second["key"]) is not None


# ---------------------------------------------------------------------------
# Concurrency: the tmp+rename discipline
# ---------------------------------------------------------------------------


def test_concurrent_writers_never_tear_an_entry(store, mapped, kway_result):
    entry = _entry_for(mapped, kway_result.solution)
    errors = []

    def writer():
        try:
            for _ in range(10):
                store.put(json.loads(json.dumps(entry)))
        except Exception as exc:  # pragma: no cover - the failure signal
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    got = store.get(entry["key"])
    assert got is not None and validate_entry(got) == []
    # No stray .tmp siblings survive the rename discipline.
    shard_dir = os.path.dirname(store.path_for(entry["key"]))
    assert [n for n in os.listdir(shard_dir) if ".tmp." in n] == []


# ---------------------------------------------------------------------------
# Enablement and resolution
# ---------------------------------------------------------------------------


def test_resolve_cache_precedence(tmp_path, monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    assert resolve_cache().root == DEFAULT_CACHE_DIR
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
    assert resolve_cache().root == str(tmp_path / "env")
    monkeypatch.setenv(CACHE_ENV_VAR, "1")  # bare enable -> default dir
    assert resolve_cache().root == DEFAULT_CACHE_DIR
    installed = SolutionCache(str(tmp_path / "installed"))
    with use_cache(installed):
        assert resolve_cache() is installed
        assert resolve_cache(str(tmp_path / "explicit")).root == str(
            tmp_path / "explicit"
        )
    assert get_cache() is None


def test_set_cache_installs_and_clears(tmp_path):
    store = SolutionCache(str(tmp_path))
    assert set_cache(store) is store
    try:
        assert get_cache() is store
    finally:
        set_cache(None)
    assert get_cache() is None


# ---------------------------------------------------------------------------
# api integration: policies, verification, refresh
# ---------------------------------------------------------------------------


def _partition(**kwargs):
    return api.run_request(build_request(
        "partition", CIRCUIT, scale=SCALE, seed=1994, n_solutions=1,
        seeds_per_carve=2, devices_per_carve=2, **kwargs
    ))


def test_api_miss_then_hit_is_bit_identical(store):
    with use_cache(store):
        cold = _partition(cache="use")
        assert cold.cache_info["status"] == "miss"
        warm = _partition(cache="use")
    assert warm.cache_info["status"] == "hit"
    assert warm.cache_info["key"] == cold.cache_info["key"]
    assert warm.solution.summary() == cold.solution.summary()
    # Hits replay the original solve time (bit-identical CPU columns).
    assert warm.elapsed_seconds == cold.elapsed_seconds
    assert warm.cache_info["saved_seconds"] == cold.elapsed_seconds


def test_api_cache_off_touches_nothing(store):
    with use_cache(store):
        result = _partition(cache="off")
    assert result.cache_info is None
    assert store.stats()["entries"] == 0


def test_api_rejects_unknown_policy():
    with pytest.raises(ValueError):
        _partition(cache="sometimes")


def test_api_refresh_overwrites_stale_entry(store):
    with use_cache(store):
        cold = _partition(cache="use")
        key = cold.cache_info["key"]
        # Go stale: tamper the stored entry's payload in place.
        path = store.path_for(key)
        entry = json.load(open(path, encoding="utf-8"))
        entry["elapsed_seconds"] = 123456.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        refreshed = _partition(cache="refresh")
        assert refreshed.cache_info["status"] == "refreshed"
        warm = _partition(cache="use")
    assert warm.cache_info["status"] == "hit"
    assert warm.elapsed_seconds != 123456.0  # stale entry was replaced


def test_api_corrupted_entry_falls_back_to_recompute(store):
    with use_cache(store):
        cold = _partition(cache="use")
        path = store.path_for(cold.cache_info["key"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"v": 1, "truncated')
        again = _partition(cache="use")
        assert again.cache_info["status"] == "miss"  # recomputed, not crashed
        assert again.solution.summary() == cold.solution.summary()
        assert store.get(cold.cache_info["key"]) is not None  # re-stored


def test_api_hit_is_verified_before_trust(store):
    with use_cache(store):
        cold = _partition(cache="use")
        path = store.path_for(cold.cache_info["key"])
        entry = json.load(open(path, encoding="utf-8"))
        # Decodes fine but fails the independent checker: drop a cell.
        block = entry["solution"]["blocks"][0]
        for field in ("cells", "originals", "cell_inputs", "cell_outputs"):
            block[field] = block[field][1:]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        again = _partition(cache="use")
    assert again.cache_info["status"] == "miss"  # tampered entry rejected
    assert again.solution.summary() == cold.solution.summary()


def test_api_bipartition_roundtrip(store):
    with use_cache(store):
        request = build_request(
            "bipartition", CIRCUIT, scale=SCALE, seed=3, runs=2, cache="use"
        )
        cold = api.run_request(request)
        warm = api.run_request(request)
    assert cold.cache_info["status"] == "miss"
    assert warm.cache_info["status"] == "hit"
    assert warm.solution.as_dict() == cold.solution.as_dict()


def test_api_hit_skips_ledger_append(store, tmp_path):
    from repro.obs.ledger import Ledger, use_ledger

    ledger = Ledger(str(tmp_path / "ledger"))
    with use_cache(store), use_ledger(ledger):
        cold = _partition(cache="use")
        warm = _partition(cache="use")
    assert cold.run_record is not None
    assert warm.run_record is None  # no new run happened
    assert len(ledger.records()) == 1


def test_self_heal_announces_cache_corrupt(store, mapped, kway_result):
    from repro.obs.events import ListEmitter
    from repro.obs.metrics import MetricsRegistry, use_registry

    entry = _entry_for(mapped, kway_result.solution)
    path = store.put(entry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{ torn write")
    reg = MetricsRegistry(enabled=True, emitter=ListEmitter())
    with use_registry(reg):
        assert store.get(entry["key"]) is None
        # Second flavor: parseable JSON that fails schema validation.
        store.put(entry)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"v": 99}, fh)
        assert store.get(entry["key"]) is None
    assert reg.counter("cache.corrupt").value == 2
    events = [e for e in reg.emitter.events if e["name"] == "cache.corrupt"]
    reasons = [e["fields"]["reason"] for e in events]
    assert any("unreadable" in r for r in reasons)
    assert any("schema mismatch" in r for r in reasons)
    assert all(e["fields"]["key"] == entry["key"] for e in events)


def test_plain_miss_is_not_corruption(store, mapped, kway_result):
    from repro.obs.events import ListEmitter
    from repro.obs.metrics import MetricsRegistry, use_registry

    entry = _entry_for(mapped, kway_result.solution)
    reg = MetricsRegistry(enabled=True, emitter=ListEmitter())
    with use_registry(reg):
        assert store.get(entry["key"]) is None  # never stored: plain miss
    assert reg.counter("cache.corrupt").value == 0
    assert [e for e in reg.emitter.events if e["name"] == "cache.corrupt"] == []
