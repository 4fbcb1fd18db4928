"""The versioned request schema: round-trips, keys, shims and enums."""

import json
import warnings

import pytest

from repro import api
from repro.batch.manifest import ManifestError, expand_manifest
from repro.cache.store import SolutionCache, cache_key, use_cache
from repro.obs.ledger import config_fingerprint, netlist_fingerprint, run_key
from repro.partition.devices import XC3000_LIBRARY, DeviceLibrary
from repro.request import (
    REQUEST_SCHEMA_NAME,
    VERB_PARAMS,
    Algorithm,
    CachePolicy,
    MultilevelMode,
    PartitionRequest,
    RequestError,
    build_request,
    parse_threshold,
    threshold_json,
)

CIRCUIT = "s5378"
SCALE = 0.08


def quick_partition_request(**overrides):
    base = dict(circuit=CIRCUIT, scale=SCALE, seed=7, threshold=1, n_solutions=1)
    base.update(overrides)
    return build_request("partition", **base)


# ---------------------------------------------------------------------------
# JSON round-trips
# ---------------------------------------------------------------------------


def test_json_round_trip_partition():
    request = quick_partition_request(deadline=30.0, cache="use")
    clone = PartitionRequest.from_json(request.to_json())
    assert clone == request
    assert clone.to_json() == request.to_json()


def test_json_round_trip_bipartition():
    request = build_request(
        "bipartition", CIRCUIT, algorithm="fm", runs=3, threshold=0, seed=2
    )
    clone = PartitionRequest.from_json(request.to_json())
    assert clone == request
    assert clone.algorithm is Algorithm.FM


def test_json_document_shape_is_stable():
    doc = json.loads(quick_partition_request().to_json())
    assert doc["schema"] == REQUEST_SCHEMA_NAME
    assert doc["v"] == 1
    # Stable field order: schema header first, then identity fields.
    keys = list(doc)
    assert keys[0] == "schema" and keys[1] == "v"
    assert keys[2:5] == ["verb", "circuit", "scale"]


def test_inf_threshold_survives_json():
    request = quick_partition_request(threshold="inf")
    assert request.threshold == float("inf")
    doc = json.loads(request.to_json())
    assert doc["threshold"] == "inf"
    assert PartitionRequest.from_json(request.to_json()).threshold == float("inf")


def test_threshold_type_preserved():
    assert isinstance(parse_threshold(1), int)
    assert isinstance(parse_threshold(1.0), float)
    assert threshold_json(float("inf")) == "inf"
    with pytest.raises(RequestError):
        parse_threshold(True)
    with pytest.raises(RequestError):
        parse_threshold("nope")


def test_from_dict_rejects_unknown_and_wrong_schema():
    doc = quick_partition_request().to_dict()
    bad = dict(doc)
    bad["bogus_field"] = 1
    with pytest.raises(RequestError):
        PartitionRequest.from_dict(bad)
    wrong = dict(doc)
    wrong["schema"] = "other/1"
    with pytest.raises(RequestError):
        PartitionRequest.from_dict(wrong)
    with pytest.raises(RequestError):
        PartitionRequest.from_json("not json")


def test_request_validation():
    with pytest.raises(RequestError):
        build_request("frobnicate", CIRCUIT)
    with pytest.raises(RequestError):
        build_request("partition", "")
    with pytest.raises(RequestError):
        build_request("partition", CIRCUIT, algorithm="quantum")
    with pytest.raises(RequestError):
        build_request("partition", CIRCUIT, nonsense_knob=3)


@pytest.mark.parametrize(
    "field, value",
    [
        ("runs", 0),
        ("n_solutions", 0),
        ("seeds_per_carve", 0),
        ("runs", -3),
        ("n_solutions", True),
        ("max_retries", -1),
        ("max_growth", -0.2),
        ("devices_per_carve", 1.5),
        ("devices_per_carve", 0),
        ("devices_per_carve", -2),
        ("scale", 0),
        ("scale", 2.0),
        ("scale", -0.5),
        ("scale", "1"),
        ("threshold", -1),
        ("max_passes", -1),
        ("max_passes", 1.5),
        ("balance_tolerance", -0.5),
        ("deadline", "5"),
        ("deadline", -1),
        ("fallback", "no"),
        ("fallback", 0),
        ("jobs", "2"),
        ("jobs", 1.5),
        ("library", ""),
        ("library", 3),
    ],
)
def test_out_of_range_fields_are_rejected(field, value):
    """Each would otherwise fail late or silently: an empty report whose
    ``best_cut`` raises, a misleading infeasible carve, a solve under a
    key of its own, a queued job that fails at execution, or engines
    that disagree on a negative growth cap."""
    with pytest.raises(RequestError, match=field):
        build_request("bipartition", CIRCUIT, **{field: value})
    doc = quick_partition_request().to_dict()
    doc[field] = value
    with pytest.raises(RequestError, match=field):
        PartitionRequest.from_dict(doc)


def test_range_limits_themselves_are_accepted():
    request = build_request(
        "partition", CIRCUIT, runs=1, n_solutions=1, seeds_per_carve=1,
        max_retries=0, max_growth=0.0,
    )
    assert (request.runs, request.max_retries, request.max_growth) == (1, 0, 0.0)
    request = build_request(
        "bipartition", CIRCUIT, scale=1, threshold=0, max_passes=0,
        balance_tolerance=0, deadline=0, fallback=False, jobs=-1,
    )
    assert (request.scale, request.deadline) == (1.0, 0)
    assert type(request.scale) is float and type(request.deadline) is int


def test_int_scale_keys_like_the_command_line():
    """A manifest or service body's ``"scale": 1`` names the solve the
    CLI's ``--scale 1`` names: one config fingerprint, one cache key."""
    from repro.cli import _request_from_args, build_parser
    from repro.obs.ledger import config_fingerprint

    typed = build_request("partition", CIRCUIT, scale=1)
    cli = _request_from_args(build_parser().parse_args(
        ["partition", CIRCUIT, "--scale", "1"]
    ))
    assert config_fingerprint(typed.config()) == config_fingerprint(cli.config())


# ---------------------------------------------------------------------------
# Cache-key / ledger identity
# ---------------------------------------------------------------------------


def test_cache_key_matches_ledger_run_key():
    request = quick_partition_request()
    mapped = api.map(CIRCUIT, scale=SCALE, seed=request.mapping_seed).solution
    use_ml = request.resolve_multilevel(mapped.n_cells)
    expected = run_key(
        netlist_fingerprint(mapped),
        config_fingerprint(request.config(use_ml)),
        request.seed,
    )
    assert request.cache_key(mapped) == expected
    assert request.keyed_netlist(mapped) == (mapped, expected)
    assert cache_key(
        netlist_fingerprint(mapped), request.config(use_ml), request.seed
    ) == expected


def test_cache_key_stable_across_round_trip():
    request = quick_partition_request()
    mapped = api.map(CIRCUIT, scale=SCALE, seed=request.mapping_seed).solution
    clone = PartitionRequest.from_json(request.to_json())
    assert clone.cache_key(mapped) == request.cache_key(mapped)


def test_execution_fields_do_not_move_the_key():
    request = quick_partition_request()
    tweaked = quick_partition_request(cache="refresh", jobs=4)
    mapped = api.map(CIRCUIT, scale=SCALE, seed=request.mapping_seed).solution
    assert tweaked.cache_key(mapped) == request.cache_key(mapped)


def test_int_vs_float_threshold_changes_the_key():
    mapped = api.map(CIRCUIT, scale=SCALE, seed=1994).solution
    a = quick_partition_request(threshold=1)
    b = quick_partition_request(threshold=1.0)
    assert a.cache_key(mapped) != b.cache_key(mapped)


# ---------------------------------------------------------------------------
# Enum shims
# ---------------------------------------------------------------------------


def test_multilevel_bool_wire_spelling_coerces_silently():
    # true/false/null is the documented JSON and manifest spelling.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mode = MultilevelMode.coerce(True)
        assert mode is MultilevelMode.ON and mode.tri is True
        assert MultilevelMode.coerce(False) is MultilevelMode.OFF
        assert MultilevelMode.coerce(None) is MultilevelMode.AUTO
        assert MultilevelMode.coerce("off").tri is False
        doc = quick_partition_request().to_dict()
        doc["multilevel"] = True
        assert PartitionRequest.from_dict(doc).multilevel is MultilevelMode.ON
    with pytest.raises(RequestError):
        MultilevelMode.coerce("sideways")


def test_cache_policy_coercion_message():
    assert CachePolicy.coerce("use") is CachePolicy.USE
    with pytest.raises(ValueError, match="is not a cache policy"):
        CachePolicy.coerce("bogus")


def test_live_netlist_request_matches_the_named_request(tmp_path):
    # A caller holding the netlist object passes it beside the request;
    # identity is the netlist hash, so it hits what the named run stored.
    request = quick_partition_request()
    mapped = api.map(CIRCUIT, scale=SCALE, seed=request.mapping_seed).solution
    live = build_request(
        "partition", mapped.name, scale=SCALE, seed=7, threshold=1,
        n_solutions=1, multilevel="off",
    )
    with use_cache(SolutionCache(str(tmp_path / "cache"))):
        via_request = api.run_request(request, cache="refresh")
        via_object = api.run_request(live, circuit=mapped, cache="use")
    assert via_object.cache_info.get("status") == "hit"
    # A live library must carry the name the cache key hashes.
    tiny = DeviceLibrary(list(XC3000_LIBRARY.devices[:2]), name="tiny")
    with pytest.raises(RequestError, match="tiny"):
        api.run_request(live, circuit=mapped, library=tiny)
    assert via_object.solution.cost.total_cost == via_request.solution.cost.total_cost
    assert (
        json.dumps(via_object.to_dict()["solution"], sort_keys=True)
        == json.dumps(via_request.to_dict()["solution"], sort_keys=True)
    )


# ---------------------------------------------------------------------------
# RunResult serialization
# ---------------------------------------------------------------------------


def test_run_result_round_trip(tmp_path):
    with use_cache(SolutionCache(str(tmp_path / "cache"))):
        result = api.run_request(quick_partition_request(), cache="refresh")
    doc = result.to_dict()
    assert doc["schema"] == api.RESULT_SCHEMA_NAME
    assert list(doc)[:2] == ["schema", "v"]
    clone = api.RunResult.from_json(result.to_json())
    assert clone.kind == result.kind
    assert clone.elapsed_seconds == result.elapsed_seconds
    assert clone.solution.cost.total_cost == result.solution.cost.total_cost
    assert clone.to_json() == result.to_json()
    with pytest.raises(ValueError):
        api.RunResult.from_dict({"schema": "other/1", "v": 1})


# ---------------------------------------------------------------------------
# Batch-manifest bridge
# ---------------------------------------------------------------------------


def _manifest():
    return {
        "schema": "repro-batch-manifest/1",
        "name": "request-bridge",
        "defaults": {"scale": SCALE, "threshold": 1, "n_solutions": 1},
        "jobs": [
            {"verb": "partition", "circuit": CIRCUIT, "seeds": [1, 2]},
            {"verb": "bipartition", "circuit": CIRCUIT, "runs": 2},
        ],
    }


def test_requests_from_manifest():
    requests = [job.request for job in expand_manifest(_manifest())]
    assert len(requests) == 3
    assert {r.verb for r in requests} == {"partition", "bipartition"}
    assert requests[0].seed == 1 and requests[1].seed == 2
    # A job's request is the one the same fields build anywhere else.
    assert requests[0] == build_request(
        "partition", CIRCUIT, scale=SCALE, threshold=1, n_solutions=1, seed=1
    )


def test_manifest_bad_params_surface_as_manifest_error():
    manifest = _manifest()
    manifest["jobs"][0]["threshold"] = "sideways"
    with pytest.raises(ManifestError):
        expand_manifest(manifest)
    manifest = _manifest()
    manifest["jobs"][0]["n_solutions"] = 0
    with pytest.raises(ManifestError, match="n_solutions"):
        expand_manifest(manifest)


# ---------------------------------------------------------------------------
# One defaults table
# ---------------------------------------------------------------------------


def test_omitted_threshold_resolves_per_verb():
    from repro.cli import _request_from_args, build_parser

    def cli_threshold(argv):
        return _request_from_args(build_parser().parse_args(argv)).threshold

    bi = PartitionRequest.from_dict({"verb": "bipartition", "circuit": CIRCUIT})
    assert bi.threshold == 0 == VERB_PARAMS["bipartition"]["threshold"]
    assert build_request("bipartition", CIRCUIT) == bi
    manifest = {
        "schema": "repro-batch-manifest/1",
        "jobs": [{"verb": "bipartition", "circuit": CIRCUIT}],
    }
    assert expand_manifest(manifest)[0].request == bi
    assert cli_threshold(["bipartition", CIRCUIT]) == 0
    # Partition defaults (and with them partition cache keys) stay put.
    part = PartitionRequest.from_dict({"verb": "partition", "circuit": CIRCUIT})
    assert part.threshold == 1 == VERB_PARAMS["partition"]["threshold"]
    assert cli_threshold(["partition", CIRCUIT]) == 1
