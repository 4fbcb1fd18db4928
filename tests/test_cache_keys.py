"""Pins of the solution-cache keys.

The CI ``cache-batch-smoke`` job runs one Tables IV-VII manifest cold,
then warm, and gates that the warm run replays the cold one; a change
that moved every key would pass that gate.  These pins hold the keys
themselves: the cold run's job keys for that manifest (``repro batch
manifest`` with the arguments recorded in ``tests/golden/cache_keys.json``)
must equal the recorded ones, and so must the netlist hash they derive
from.  Here the keys are computed in-process, without solving; CI reads
them from the cold run's report.

Regenerate (only when a change of the cache keys is intended) from the
repo root::

    PYTHONPATH=src python tests/test_cache_keys.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from typing import Dict, Tuple

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "cache_keys.json")


def manifest_keys(manifest_args: str) -> Tuple[Dict[str, str], Dict[str, str]]:
    """``({job id: netlist hash}, {job id: cache key})`` of the manifest
    ``repro batch manifest <manifest_args>`` writes."""
    from repro.batch.manifest import expand_manifest, load_manifest
    from repro.batch.worker import mapped_netlist
    from repro.cli import main
    from repro.obs.ledger import netlist_fingerprint

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.json")
        assert main(["batch", "manifest", *manifest_args.split(), "--out", path]) == 0
        jobs = expand_manifest(load_manifest(path))
    hashes, keys = {}, {}
    for job in jobs:
        mapped = mapped_netlist(job.request)
        hashes[job.job_id] = netlist_fingerprint(mapped)
        keys[job.job_id] = job.request.cache_key(mapped)
    return hashes, keys


def test_manifest_cache_keys_match_their_pins():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    hashes, keys = manifest_keys(golden["manifest"])
    assert set(hashes.values()) == {golden["netlist_hash"]}
    assert keys == golden["keys"]


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    hashes, golden["keys"] = manifest_keys(golden["manifest"])
    (golden["netlist_hash"],) = set(hashes.values())
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    json.dump(golden, sys.stdout, indent=1)
    print()
