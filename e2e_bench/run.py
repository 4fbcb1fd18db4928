"""End-to-end benchmark of the partitioning stack; see ``README.md`` beside it.

Run from the repository root::

    python3 e2e_bench/run.py --workload kway-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` first repeats
the untraced run, then runs the workload again with the layer wrappers
installed and prints the per-layer metrics, a self-time table of the
timed phase and the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Each run works in a fresh directory under ``.e2e_bench/`` and leaves its
per-request records there (``result.json``, and ``spans.json`` when
traced).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import e2e_common as common  # noqa: E402
import e2e_trace  # noqa: E402
import workload_eco  # noqa: E402
import workload_kway  # noqa: E402
import workload_serve  # noqa: E402

WORKLOADS = {
    workload_kway.NAME: workload_kway,
    workload_eco.NAME: workload_eco,
    workload_serve.NAME: workload_serve,
}

#: The gated metrics.  ``replay_s`` is computed too, but serve-mixed's did
#: not repeat within a tenth across seeds (see README.md), so it is
#: reported among the per-layer metrics as ``hit.replay_s``.
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("wall_s", "s"),
    ("miss_p50_s", "s"),
    ("hit_p50_ms", "ms"),
    ("total_cost", "units"),
    ("iob_util", "fraction"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("partition.kway_calls", "count"),
    ("partition.kway_s", "s"),
    ("partition.tables_s", "s"),
    ("partition.engine_runs", "count"),
    ("partition.engine_s", "s"),
    ("partition.carve_levels", "count"),
    ("partition.candidates", "count"),
    ("partition.carve_yield", "ratio"),
    ("partition.passes", "count"),
    ("partition.moves_single", "count"),
    ("partition.moves_replicate", "count"),
    ("partition.moves_unreplicate", "count"),
    ("partition.sgain_recomputes", "count"),
    ("partition.incr_calls", "count"),
    ("partition.incr_s", "s"),
    ("partition.warm_ratio", "ratio"),
    ("partition.dirty_cells", "count"),
    ("partition.fm_runs", "count"),
    ("partition.fm_s", "s"),
    ("partition.verify_calls", "count"),
    ("partition.verify_s", "s"),
    ("obs.fingerprint_calls", "count"),
    ("obs.fingerprint_s", "s"),
    ("techmap.map_calls", "count"),
    ("techmap.map_s", "s"),
    ("techmap.delta_calls", "count"),
    ("techmap.delta_s", "s"),
    ("netlist.gen_calls", "count"),
    ("netlist.gen_s", "s"),
    ("netlist.load_calls", "count"),
    ("netlist.load_s", "s"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.get_s", "s"),
    ("cache.decode_s", "s"),
    ("cache.put_calls", "count"),
    ("cache.put_s", "s"),
    ("cache.encode_s", "s"),
    ("cache.ancestor_calls", "count"),
    ("cache.ancestor_s", "s"),
    ("cache.ancestor_reads", "count"),
    ("cache.store_mb", "MB"),
    ("api.calls", "count"),
    ("api.self_s", "s"),
    ("batch.jobs", "count"),
    ("batch.self_s", "s"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_s", "s"),
    ("service.exec_s", "s"),
    ("service.solve_s", "s"),
    ("service.late_s", "s"),
    ("service.rejected", "count"),
    ("service.failed", "count"),
    ("perf.handoff_s", "s"),
    ("hit.replay_s", "s"),
    ("tail.hit_ms", "ms"),
    ("tail.miss_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Worker-side solver spans (``repro serve --trace-dir``) by benchmark row.
WORKER_SPANS = {"repl.run": "partition.engine", "fm.run": "partition.fm",
                "incr.refine": "partition.incr"}


def bootstrap() -> None:
    """Put this checkout's program first on ``sys.path``, or stop.

    The benchmark measures the sources next to it and nothing else: a
    directory without them (or an interpreter that would import another
    copy) ends the run with an error and no result line.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"e2e_bench: no program sources under {src}")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    for var in ("REPRO_CACHE", "REPRO_LEDGER"):
        os.environ.pop(var, None)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"e2e_bench: imported repro from {repro.__file__}, not {src}")


def run_pass(mod: Any, work: str, seed: int, seconds: float, traced: bool
             ) -> Dict[str, Any]:
    """Set up (several times untraced, once traced), run the timed phase,
    stop everything the workload started, then check the outputs."""
    from repro.obs.metrics import MetricsRegistry, set_registry

    common.fresh_dir(work)
    ctx = {"root": ROOT, "seconds": seconds,
           "trace_dir": os.path.join(work, "trace") if traced else None}
    tracer = e2e_trace.Tracer() if traced else None
    registry = MetricsRegistry(enabled=True) if traced else None
    repeats = 1 if traced else getattr(mod, "SETUP_REPEATS", common.SETUP_REPEATS)
    setup_probe = common.SpeedProbe()
    setup_ops: List[Any] = []
    state = None
    counts: Counter = Counter()
    counters: Dict[str, int] = {}
    try:
        if traced:
            tracer.install_layers()
            set_registry(registry)
        for r in range(repeats):
            if state is not None:
                mod.teardown(state)
                state = None
            directory = common.fresh_dir(os.path.join(work, f"setup{r}"))
            setup_probe.sample()
            start = perf_counter()
            state = mod.setup(directory, seed, ctx)
            setup_ops.append(common.Op("setup", f"setup{r}", sent=start,
                                       done=perf_counter()))
        setup_probe.sample()
        setup_probe.scale(setup_ops)
        if traced:
            counts0 = Counter(tracer.counts)
            counters0 = registry.snapshot()["counters"]
        measured = mod.measure(state, tracer, seconds)
        if traced:
            counts = Counter(tracer.counts) - counts0
            counters = {k: v - counters0.get(k, 0)
                        for k, v in registry.snapshot()["counters"].items()}
    finally:
        if traced:
            tracer.restore()
            set_registry(None)
        if state is not None:
            mod.teardown(state)
    checked = mod.check(state, measured)
    return {
        "setup_ops": setup_ops, "state": state, "measured": measured,
        "checked": checked, "tracer": tracer, "ctx": ctx, "counts": counts,
        "counters": counters, "factor": common.pass_factor(checked["ops"]),
        "raw_metrics": mod.metrics(
            common.median(common.latencies(setup_ops, "setup", scaled=False)),
            measured, checked, False),
        "metrics": mod.metrics(
            common.median(common.latencies(setup_ops, "setup")),
            measured, checked, True),
    }


def scaled(values: Dict[str, float], units: Dict[str, str], factor: float
           ) -> Dict[str, float]:
    """Time values in reference seconds (see ``e2e_common.SpeedProbe``)."""
    return {k: v * factor if units.get(k) in ("s", "ms") else v
            for k, v in values.items()}


def tally(passes: List[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    """Attempted and failed operations, and the first failure reasons."""
    attempted = failed = 0
    reasons: List[str] = []
    for p in passes:
        for op in p["checked"]["ops"]:
            attempted += 1
            if not op.ok:
                failed += 1
                reasons.append(f"{op.cls} {op.name}: {op.verdict}")
        for name, verdict in p["checked"].get("checks", []):
            attempted += 1
            if verdict != "ok":
                failed += 1
                reasons.append(f"check {name}: {verdict}")
    return attempted, failed, reasons


def layer_metrics(mod: Any, traced: Dict[str, Any], plain: Dict[str, Any]
                  ) -> Tuple[Dict[str, float], str]:
    """Every per-layer metric from the traced pass, and its printed tables."""
    tracer = traced["tracer"]
    measured = traced["measured"]
    lo, hi = measured["lo"], measured["hi"]
    rows = e2e_trace.self_times(tracer.spans, lo, hi)
    whole = e2e_trace.self_times(tracer.spans)
    reg = Counter(traced["counters"])
    counts = traced["counts"]
    tables = [e2e_trace.format_table(
        f"self time of the traced timed phase ({mod.NAME})",
        e2e_trace.phase_table(tracer.spans, lo, hi), hi - lo)]
    if traced["ctx"]["trace_dir"] and os.path.isdir(traced["ctx"]["trace_dir"]):
        # The pool worker solves served misses; its spans and counters
        # arrive through the server's --trace-dir streams.
        traces = {op.name for op in measured["ops"] if op.cls == "miss"}
        spans, worker_counters = e2e_trace.read_worker_streams(
            traced["ctx"]["trace_dir"], traces)
        kway_calls = sum(1 for s in spans if s.name == "kway.partition")
        for span in spans:
            span.name = WORKER_SPANS.get(
                span.name, "partition.kway" if span.name.startswith(("kway.", "ml."))
                else span.name)
        worker_rows = e2e_trace.self_times(spans)
        worker_rows["partition.kway"] = (kway_calls,
                                         worker_rows.get("partition.kway", (0, 0.0))[1])
        rows.update(worker_rows)
        reg.update(worker_counters)
        busy = sum(s.end - s.start for s in spans if s.parent < 0)
        tables.append(e2e_trace.format_table(
            "self time of the pool worker's solver spans (served misses)",
            sorted(((n, c, t) for n, (c, t) in worker_rows.items()),
                   key=lambda r: -r[2]), busy))

    def calls(name: str) -> float:
        return float(rows.get(name, (0, 0.0))[0])

    def secs(name: str) -> float:
        return rows.get(name, (0, 0.0))[1]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    ops = plain["checked"]["ops"]
    hit_tail = common.tail(common.latencies(ops, "hit"))
    miss_tail = common.tail(common.latencies(ops, "miss"))
    plain_s = plain["measured"]["hi"] - plain["measured"]["lo"]
    overhead = (hi - lo) - plain_s
    values: Dict[str, float] = {
        "partition.kway_calls": calls("partition.kway"),
        "partition.kway_s": secs("partition.kway"),
        "partition.tables_s": secs("partition.tables"),
        "partition.engine_runs": calls("partition.engine"),
        "partition.engine_s": secs("partition.engine"),
        "partition.carve_levels": float(reg["kway.carve_levels"]),
        "partition.candidates": float(reg["kway.candidates"]),
        "partition.carve_yield": ratio(reg["kway.carve_levels"], reg["kway.candidates"]),
        "partition.passes": float(reg["repl.passes"]),
        "partition.moves_single": float(reg["repl.moves.single"]),
        "partition.moves_replicate": float(reg["repl.moves.replicate"]),
        "partition.moves_unreplicate": float(reg["repl.moves.unreplicate"]),
        "partition.sgain_recomputes": float(reg["repl.sgain_recomputes"]),
        "partition.incr_calls": calls("partition.incr"),
        "partition.incr_s": secs("partition.incr"),
        "partition.warm_ratio": 0.0,
        "partition.dirty_cells": float(reg["incr.dirty_cells"]),
        "partition.fm_runs": calls("partition.fm"),
        "partition.fm_s": secs("partition.fm"),
        "partition.verify_calls": calls("partition.verify"),
        "partition.verify_s": secs("partition.verify"),
        "obs.fingerprint_calls": calls("obs.fingerprint"),
        "obs.fingerprint_s": secs("obs.fingerprint"),
        "techmap.map_calls": calls("techmap.map"),
        "techmap.map_s": secs("techmap.map"),
        "techmap.delta_calls": calls("techmap.delta"),
        "techmap.delta_s": secs("techmap.delta"),
        # Generation belongs to set-up, so it is counted over the whole
        # traced pass; every other row covers the timed phase only.
        "netlist.gen_calls": float(whole.get("netlist.gen", (0, 0.0))[0]),
        "netlist.gen_s": whole.get("netlist.gen", (0, 0.0))[1],
        "netlist.load_calls": calls("netlist.load"),
        "netlist.load_s": secs("netlist.load"),
        "cache.lookups": calls("cache.get"),
        "cache.hit_ratio": ratio(counts["cache.get_hits"], calls("cache.get")),
        "cache.get_s": secs("cache.get"),
        "cache.decode_s": secs("cache.decode"),
        "cache.put_calls": calls("cache.put"),
        "cache.put_s": secs("cache.put"),
        "cache.encode_s": secs("cache.encode"),
        "cache.ancestor_calls": calls("cache.ancestor"),
        "cache.ancestor_s": secs("cache.ancestor"),
        "cache.ancestor_reads": ratio(counts["cache.ancestor_reads"],
                                      calls("cache.ancestor")),
        "cache.store_mb": 0.0,
        "api.calls": calls("api.run_request"),
        "api.self_s": secs("api.run_request"),
        "batch.jobs": calls("batch.job"),
        "batch.self_s": secs("batch.job") + secs("batch.run"),
        "service.submit_ms": 0.0,
        "service.queue_wait_s": 0.0,
        "service.exec_s": 0.0,
        "service.solve_s": 0.0,
        "service.late_s": 0.0,
        "service.rejected": 0.0,
        "service.failed": 0.0,
        "perf.handoff_s": 0.0,
    }
    values.update(mod.layers(traced["state"], measured, traced["checked"]))
    values = scaled(values, dict(PER_LAYER), traced["factor"])
    values["hit.replay_s"] = plain["metrics"]["replay_s"]
    values["tail.hit_ms"] = 1000.0 * hit_tail[1]
    values["tail.miss_s"] = miss_tail[1]
    values["trace.overhead_s"] = overhead
    tables.append(
        f"speed factors (reference s per measured s): traced "
        f"{traced['factor']:.4f}, untraced {plain['factor']:.4f}; the tables "
        f"above are in measured seconds")
    tables.append(
        f"tracing overhead ({mod.NAME}): traced phase {hi - lo:.4f} s - untraced "
        f"{plain_s:.4f} s = {overhead:+.4f} s ({overhead / plain_s:+.1%})")
    tables.append(
        f"tails of the untraced phase (reference time): hits p{hit_tail[0]} = "
        f"{values['tail.hit_ms']:.3f} ms over {hit_tail[2]} samples; misses "
        f"p{miss_tail[0]} = {values['tail.miss_s']:.4f} s over {miss_tail[2]} samples")
    return values, "\n".join(tables)


def record(path: str, args: argparse.Namespace, context: Dict[str, Any],
           passes: Dict[str, Dict[str, Any]], result: Dict[str, Any]) -> None:
    """Per-request records and run context, written once per run."""
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "context": context, "result": result}
    for label, p in passes.items():
        doc[label] = {
            "setup": common.op_records(p["setup_ops"]),
            "phase_s": p["measured"]["hi"] - p["measured"]["lo"],
            "speed_probe_s": (p["measured"]["probe"].samples
                              if "probe" in p["measured"] else None),
            "speed_factor": p["factor"],
            "measured_metrics": {k: common.finite_or_none(v)
                                 for k, v in p["raw_metrics"].items()},
            "metrics": {k: common.finite_or_none(v) for k, v in p["metrics"].items()},
            "ops": common.op_records(p["checked"]["ops"]),
            "checks": p["checked"].get("checks", []),
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops what it started: SystemExit unwinds
    # through the workload's teardown.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    bootstrap()
    os.chdir(ROOT)
    mod = WORKLOADS[args.workload]
    work = common.fresh_dir(os.path.join(
        ROOT, ".e2e_bench", f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"))
    # Temporary files of this process and of the server it starts (the
    # service's cancel-flag directory) stay inside the checkout too.
    os.environ["TMPDIR"] = common.fresh_dir(os.path.join(work, "tmp"))
    tempfile.tempdir = None
    context = common.run_context(ROOT)
    passes = {"untraced": run_pass(mod, os.path.join(work, "untraced"),
                                   args.seed, args.seconds, traced=False)}
    if args.trace:
        passes["traced"] = run_pass(mod, os.path.join(work, "traced"),
                                    args.seed, args.seconds, traced=True)
        values, tables = layer_metrics(mod, passes["traced"], passes["untraced"])
        print(tables)
        units = PER_LAYER
        passes["traced"]["tracer"].dump(os.path.join(work, "spans.json"))
    else:
        values, units = passes["untraced"]["metrics"], END_TO_END
    attempted, failed, reasons = tally(list(passes.values()))
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    context["loadavg_end"] = list(os.getloadavg())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": common.finite_or_none(values[name]), "unit": unit}
                    for name, unit in units},
    }
    record(os.path.join(work, "result.json"), args, context, passes, result)
    for label in list(passes) + ["tmp"]:
        shutil.rmtree(os.path.join(work, label), ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
