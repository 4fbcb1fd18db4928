"""Pins of what a warm ECO repair returns.

Two drills, each a cold solve into an empty cache, a seeded 1% delta and
the warm re-solve carrying it:

* ``ci-s5378`` -- the CI ``incremental-smoke`` drill, through the
  command line: ``repro delta gen s5378 --scale 0.25 --seed 7 --fraction
  0.01``, then ``repro partition s5378 --scale 0.25 --seed 7 --threshold
  1 --cache use --json`` without and with ``--delta``;
* ``rent400`` -- the first Rent-netlist drill of
  ``benchmarks/bench_incremental.py``, through ``api.run_request``.

Each warm solution document must digest to the value in
``tests/golden/repair_digests.json`` (sha256 of its JSON with sorted keys
and no spaces; CI checks ``warm.json`` against the same value).  Any
change in what the repair returns fails here.

Regenerate (only when a change of the repaired solutions is intended)
from the repo root::

    PYTHONPATH=src:. python tests/test_repair_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from typing import Dict

import pytest

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "golden", "repair_digests.json"
)

#: The CI drill's circuit arguments.
CI_CIRCUIT = ["s5378", "--scale", "0.25", "--seed", "7"]


def solution_digest(solution: Dict[str, object]) -> str:
    """sha256 of a solution document's canonical JSON."""
    text = json.dumps(solution, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_json(argv) -> Dict[str, object]:
    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


def _ci_drill(root: str) -> Dict[str, object]:
    from repro.cli import main

    eco = os.path.join(root, "eco.json")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(["delta", "gen", *CI_CIRCUIT, "--fraction", "0.01",
                     "--out", eco]) == 0
    solve = ["partition", *CI_CIRCUIT, "--threshold", "1", "--cache", "use",
             "--cache-dir", os.path.join(root, "cache"), "--json"]
    assert _cli_json(solve)["cache_info"]["status"] == "miss"
    return _cli_json([*solve, "--delta", eco])


def _rent_drill(root: str) -> Dict[str, object]:
    from repro import api
    from repro.cache.store import SolutionCache, use_cache
    from repro.netlist.generate import random_logic
    from repro.obs.ledger import netlist_fingerprint
    from repro.request import build_request
    from repro.techmap.delta import seeded_delta
    from repro.techmap.mapped import technology_map

    netlist = random_logic("rent400", 840, 16, 16, seed=9)
    mapped = technology_map(netlist)
    settings = dict(seed=7, threshold=1, n_solutions=1)
    delta = seeded_delta(mapped, fraction=0.01, seed=0,
                         base=netlist_fingerprint(mapped))
    with use_cache(SolutionCache(os.path.join(root, "cache"))):
        cold = api.run_request(build_request("partition", "rent400", **settings),
                               circuit=netlist, cache="use")
        assert cold.cache_info["status"] == "miss"
        warm = api.run_request(
            build_request("partition", "rent400", delta=delta.to_dict(),
                          **settings),
            circuit=netlist, cache="use")
    return warm.to_dict()


DRILLS = {"ci-s5378": _ci_drill, "rent400": _rent_drill}


def _repaired(drill: str) -> Dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="repro-repair-") as root:
        doc = DRILLS[drill](root)
    assert doc["cache_info"]["warm"]["mode"] == "warm", doc["cache_info"]
    return doc["solution"]


@pytest.fixture(scope="module")
def golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)["sha256"]


@pytest.mark.parametrize("drill", sorted(DRILLS))
def test_warm_repair_solution_is_pinned(drill, golden):
    assert solution_digest(_repaired(drill)) == golden[drill]


def _regenerate() -> None:
    doc = {
        "note": "sha256 of each drill's warm solution document; "
                "see tests/test_repair_golden.py",
        "sha256": {drill: solution_digest(_repaired(drill))
                   for drill in sorted(DRILLS)},
    }
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}: {doc['sha256']}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
