"""Pins of the request schema's observable forms.

Every value here is a literal: the ``config()`` dict a request is keyed
by, the ``to_json()`` document every front door exchanges, and the
request each documented ``repro partition|bipartition`` command line
builds.  Cache keys and ledger ``run_key``s are derived from these, so
any drift (a key, a value, a number type, the document's field order)
fails here first.
"""

import json

import pytest

from repro.cli import _request_from_args, build_parser
from repro.request import build_request

DELTA = {
    "schema": "repro-netlist-delta/1",
    "v": 1,
    "ops": [{"op": "remove_cell", "cell": "n1"}],
    "base": "0123456789abcdef",
}

#: Every field off its default (``delta`` is added for partition only).
OFF_DEFAULT = dict(
    scale=0.5, seed=7, algorithm="fm+traditional", threshold=2.5,
    multilevel="on", library="tiny", n_solutions=4, seeds_per_carve=5,
    devices_per_carve=6, runs=9, balance_tolerance=0.1, max_passes=3,
    max_growth=0.5, deadline=12, max_retries=2, fallback=False,
    cache="use", jobs=2, warm_start="off", trace_id="t-1",
)

PARTITION_JSON = (
    '{"schema":"repro-partition-request/1","v":1,"verb":"partition",'
    '"circuit":"s5378","scale":1.0,"seed":0,"algorithm":"fm+functional",'
    '"threshold":1,"multilevel":"auto","library":"XC3000","n_solutions":2,'
    '"seeds_per_carve":3,"devices_per_carve":3,"runs":20,'
    '"balance_tolerance":0.02,"max_passes":16,"max_growth":null,'
    '"deadline":null,"max_retries":null,"fallback":null,"cache":"off",'
    '"jobs":1}'
)
BIPARTITION_JSON = (
    '{"schema":"repro-partition-request/1","v":1,"verb":"bipartition",'
    '"circuit":"s5378","scale":1.0,"seed":0,"algorithm":"fm+functional",'
    '"threshold":0,"multilevel":"auto","library":"XC3000","n_solutions":2,'
    '"seeds_per_carve":3,"devices_per_carve":3,"runs":20,'
    '"balance_tolerance":0.02,"max_passes":16,"max_growth":null,'
    '"deadline":null,"max_retries":null,"fallback":null,"cache":"off",'
    '"jobs":1}'
)

CASES = {
    "partition-defaults": (
        lambda: build_request("partition", "s5378"),
        '{"algorithm": "fm+functional", "deadline": null, '
        '"devices_per_carve": 3, "fallback": null, "library": "XC3000", '
        '"max_retries": null, "n_solutions": 2, "scale": 1.0, '
        '"seeds_per_carve": 3, "threshold": 1, "verb": "partition"}',
        PARTITION_JSON,
    ),
    "bipartition-defaults": (
        lambda: build_request("bipartition", "s5378"),
        '{"algorithm": "fm+functional", "balance_tolerance": 0.02, '
        '"deadline": null, "fallback": null, "max_growth": null, '
        '"max_passes": 16, "max_retries": null, "runs": 20, "scale": 1.0, '
        '"threshold": 0, "verb": "bipartition"}',
        BIPARTITION_JSON,
    ),
    "partition-off-default": (
        lambda: build_request("partition", "s9234", delta=DELTA, **OFF_DEFAULT),
        '{"algorithm": "fm+traditional", "deadline": 12, '
        '"devices_per_carve": 6, "fallback": false, "library": "tiny", '
        '"max_retries": 2, "n_solutions": 4, "scale": 0.5, '
        '"seeds_per_carve": 5, "threshold": 2.5, "verb": "partition"}',
        '{"schema":"repro-partition-request/1","v":1,"verb":"partition",'
        '"circuit":"s9234","scale":0.5,"seed":7,"algorithm":"fm+traditional",'
        '"threshold":2.5,"multilevel":"on","library":"tiny","n_solutions":4,'
        '"seeds_per_carve":5,"devices_per_carve":6,"runs":9,'
        '"balance_tolerance":0.1,"max_passes":3,"max_growth":0.5,'
        '"deadline":12,"max_retries":2,"fallback":false,"cache":"use",'
        '"jobs":2,"delta":{"schema":"repro-netlist-delta/1","v":1,'
        '"ops":[{"op":"remove_cell","cell":"n1"}],"base":"0123456789abcdef"},'
        '"warm_start":"off","trace_id":"t-1"}',
    ),
    "bipartition-off-default": (
        lambda: build_request("bipartition", "s9234", **OFF_DEFAULT),
        '{"algorithm": "fm+traditional", "balance_tolerance": 0.1, '
        '"deadline": 12, "fallback": false, "max_growth": 0.5, '
        '"max_passes": 3, "max_retries": 2, "runs": 9, "scale": 0.5, '
        '"threshold": 2.5, "verb": "bipartition"}',
        '{"schema":"repro-partition-request/1","v":1,"verb":"bipartition",'
        '"circuit":"s9234","scale":0.5,"seed":7,"algorithm":"fm+traditional",'
        '"threshold":2.5,"multilevel":"on","library":"tiny","n_solutions":4,'
        '"seeds_per_carve":5,"devices_per_carve":6,"runs":9,'
        '"balance_tolerance":0.1,"max_passes":3,"max_growth":0.5,'
        '"deadline":12,"max_retries":2,"fallback":false,"cache":"use",'
        '"jobs":2,"warm_start":"off","trace_id":"t-1"}',
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_config_and_document_are_pinned(case):
    make, config, document = CASES[case]
    request = make()
    assert json.dumps(request.config(), sort_keys=True) == config
    marked = json.loads(config)
    marked["multilevel"] = True
    assert json.dumps(request.config(True), sort_keys=True) == json.dumps(
        marked, sort_keys=True
    )
    assert request.to_json() == document


def _document(base, **changes):
    """``base`` with ``changes`` applied in place (new keys go last, as
    the optional ``delta``/``warm_start`` fields do)."""
    doc = json.loads(base)
    doc.update(changes)
    return json.dumps(doc, separators=(",", ":"))


#: What the command line builds with no flags: the mapping seed 1994,
#: and five runs for bipartition.
CLI_PARTITION = _document(PARTITION_JSON, seed=1994)
CLI_BIPARTITION = _document(BIPARTITION_JSON, seed=1994, runs=5)

#: Each solver command line of the CI workflow, the README, docs/ and the
#: verify notes, plus the spellings of every tri-state and renamed flag,
#: with the fields its request holds off the no-flag request.
CLI_PARITY = [
    ("partition s5378", {}),
    ("bipartition s5378", {}),
    ("partition s5378 --scale 0.25 --threshold 1 --trace --metrics-out "
     "trace.jsonl", {"scale": 0.25}),
    ("partition s5378 --scale 0.25 --threshold 1 --jobs 2 --trace-dir ci-trace",
     {"scale": 0.25, "jobs": 2}),
    ("partition s5378 --scale 0.25 --threshold 1 --ledger ci-ledger",
     {"scale": 0.25}),
    ("partition s5378 --scale 0.25 --threshold 1 --multilevel --ledger "
     "ci-ledger", {"scale": 0.25, "multilevel": "on"}),
    ("partition s5378 --scale 0.25 --threshold 1 --trace --metrics-out "
     "traced.jsonl --ledger ci-ledger", {"scale": 0.25}),
    ("partition s5378 --scale 0.25 --threshold 1 --jobs 2 --ledger ci-ledger",
     {"scale": 0.25, "jobs": 2}),
    ("partition s5378 --scale 0.25 --threshold 1 --deadline 1000 --ledger "
     "ci-ledger", {"scale": 0.25, "deadline": 1000}),
    ("partition s5378 --scale 0.25 --seed 7 --threshold 1 --cache use "
     "--cache-dir ci-incr-cache --json",
     {"scale": 0.25, "seed": 7, "cache": "use"}),
    ("partition s5378 --scale 0.25 --seed 7 --threshold 1 --delta eco.json "
     "--cache use --cache-dir ci-incr-cache --json",
     {"scale": 0.25, "seed": 7, "cache": "use", "delta": DELTA}),
    ("bipartition s5378 --scale 0.3 --runs 5", {"scale": 0.3}),
    ("partition s5378 --scale 0.5 --threshold 1", {"scale": 0.5}),
    ("partition s9234 --scale 0.3 --verify", {"circuit": "s9234", "scale": 0.3}),
    ("partition s9234 --scale 0.5 --threshold 1 --jobs 0",
     {"circuit": "s9234", "scale": 0.5, "jobs": 0}),
    ("partition s9234 --scale 0.5 --trace --metrics-out run.jsonl",
     {"circuit": "s9234", "scale": 0.5}),
    ("partition s9234 --scale 0.5 --threshold 1 --ledger",
     {"circuit": "s9234", "scale": 0.5}),
    ("partition s5378 --scale 0.25 --cache use", {"scale": 0.25, "cache": "use"}),
    ("partition s5378 --scale 0.25 --cache use --delta eco.json",
     {"scale": 0.25, "cache": "use", "delta": DELTA}),
    ("partition s9234 --scale 0.5 --trace-dir trace/",
     {"circuit": "s9234", "scale": 0.5}),
    ("partition s9234 --ledger /tmp/my-ledger", {"circuit": "s9234"}),
    ("partition s5378 --scale 0.5 --deadline 5 --json",
     {"scale": 0.5, "deadline": 5}),
    ("bipartition s5378 --deadline 10 --max-retries 1",
     {"deadline": 10, "max_retries": 1}),
    ("partition s5378 --no-fallback", {"fallback": False}),
    ("partition s9234 --scale 0.25 --threshold 1",
     {"circuit": "s9234", "scale": 0.25}),
    ("partition s5378 --scale 0.25 --deadline 30", {"scale": 0.25, "deadline": 30}),
    ("partition s5378 --scale 1 --deadline 0.5 --json", {"deadline": 0.5}),
    ("bipartition s5378 --scale 0.12 --runs 3", {"scale": 0.12, "runs": 3}),
    ("partition s5378 --threshold inf --solutions 1 --no-multilevel",
     {"threshold": "inf", "n_solutions": 1, "multilevel": "off"}),
    ("partition s5378 --scale 0.1 --solutions 1 --delta eco.json "
     "--warm-start off --cache refresh",
     {"scale": 0.1, "n_solutions": 1, "cache": "refresh", "delta": DELTA,
      "warm_start": "off"}),
    ("bipartition s5378 --algorithm fm --threshold 2 --multilevel --jobs 0 "
     "--no-fallback",
     {"algorithm": "fm", "threshold": 2, "multilevel": "on", "jobs": 0,
      "fallback": False}),
]


@pytest.mark.parametrize(
    "command, changes", CLI_PARITY, ids=[command for command, _ in CLI_PARITY]
)
def test_command_line_builds_the_pinned_request(command, changes, tmp_path):
    delta_path = tmp_path / "eco.json"
    delta_path.write_text(json.dumps(DELTA), encoding="utf-8")
    argv = [str(delta_path) if arg == "eco.json" else arg for arg in command.split()]
    base = CLI_PARTITION if argv[0] == "partition" else CLI_BIPARTITION
    request = _request_from_args(build_parser().parse_args(argv))
    assert request.to_json() == _document(base, **changes)
