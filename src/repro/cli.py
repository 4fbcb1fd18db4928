"""Command-line interface: ``repro-fpga`` / ``python -m repro``.

Subcommands
-----------
stats        Table II characteristics for a benchmark or .bench file.
map          Technology-map a circuit and report CLB/IOB/net counts.
bipartition  Min-cut bipartitioning with or without functional replication.
partition    Heterogeneous k-way partitioning (cost + interconnect).
experiment   Regenerate a paper table/figure (table1..table7, figure3).
runs         Inspect the persistent run ledger (list/show/diff/report).
batch        Run job manifests against the solution cache (run/manifest/check).
cache        Inspect or trim the on-disk solution cache (stats/evict).
serve        Partitioning-as-a-service: the async HTTP job server
             (see docs/SERVICE.md).
obs          Observability utilities: validate JSONL event streams,
             export merged Perfetto/Chrome timelines, render or scrape
             Prometheus metrics.

``bipartition`` and ``partition`` build one
:class:`repro.request.PartitionRequest` from their flags and solve it
with :func:`repro.api.run_request` -- the execution path of
``repro.api``, batch manifests and the service too -- so a CLI run
stores under, and replays from, the same cache key as any other front
door.

``bipartition`` and ``partition`` accept ``--ledger [PATH]`` to append
the run's quality record to the ledger (``results/ledger`` by default);
``repro-fpga runs diff`` then gates quality drift between any two
records with per-metric tolerances.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import Field
from enum import Enum
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.netlist.benchmarks import BENCHMARK_NAMES
from repro.netlist.stats import mapped_stats, netlist_stats
from repro.request import (
    MAPPING_SEED,
    VERB_FIELDS,
    VERB_PARAMS,
    CachePolicy,
    RequestError,
    build_request,
    mapping_seed,
)


def _load_circuit(spec: str, scale: float, seed: int, mapped: bool = True) -> Any:
    """``spec`` resolved by :func:`repro.api.load` at run seed ``seed``
    and, unless ``mapped`` is false, technology-mapped by
    :func:`repro.api.map`.  A circuit it cannot resolve is the command's
    usage message."""
    from repro import api

    try:
        netlist = api.load(spec, scale=scale, seed=seed).solution
    except KeyError:
        raise SystemExit(
            f"unknown circuit {spec!r}: expected one of "
            f"{', '.join(BENCHMARK_NAMES)} or a path ending in .bench"
        ) from None
    except ValueError as exc:  # a malformed .bench file or a bad scale
        raise SystemExit(str(exc)) from exc
    except OSError as exc:
        raise SystemExit(f"cannot read {spec!r}: {exc}") from exc
    return api.map(netlist).solution if mapped else netlist


#: The command line's own defaults, the only ones it does not take from
#: the request declaration: both ledger goldens pin the recorded seed,
#: and a command-line bipartition runs five starts, not the paper's
#: twenty.
CLI_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "bipartition": {"seed": MAPPING_SEED, "runs": 5},
    "partition": {"seed": MAPPING_SEED},
}


def _flag_type(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """A declared parser as an argparse ``type``: its
    :class:`~repro.request.RequestError` becomes the flag's error."""

    def convert(text: str) -> Any:
        try:
            return parse(text)
        except RequestError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    convert.__name__ = getattr(parse, "__name__", "value")
    return convert


def _add_field_flag(
    parser: argparse.ArgumentParser, spec: Field, verb: str, suppress: bool = True
) -> None:
    """The flag of one request field, as its declaration says it parses.

    With ``suppress`` an absent flag leaves the field out of the
    namespace, so the request takes its declared default (or the command
    line's own); otherwise the namespace holds that default.
    """
    meta = spec.metadata
    cli = meta["cli"]
    default = CLI_DEFAULTS[verb].get(
        spec.name, VERB_PARAMS[verb].get(spec.name, spec.default)
    )
    kwargs: Dict[str, Any] = {
        "dest": spec.name,
        "default": argparse.SUPPRESS if suppress else default,
    }
    if cli is bool:
        kwargs["action"] = argparse.BooleanOptionalAction
    elif isinstance(cli, type) and issubclass(cli, Enum):
        kwargs["choices"] = [member.value for member in cli]
    else:
        kwargs["type"] = _flag_type(cli)
    help_text = meta["help"] or ""
    if default is not None and cli is not bool:
        help_text += f" (default: {getattr(default, 'value', default)})"
    parser.add_argument(
        meta["flag"] or "--" + spec.name.replace("_", "-"), help=help_text, **kwargs
    )


#: The request fields a circuit is resolved at, besides its name; both
#: verbs declare them alike.
_CIRCUIT_FIELDS = tuple(
    spec for spec in VERB_FIELDS["partition"] if spec.name in ("scale", "seed")
)


def _add_circuit_args(
    parser: argparse.ArgumentParser,
    *names: str,
    nargs: Optional[str] = None,
    json_flag: bool = True,
) -> None:
    """A circuit command's circuit positional(s), the ``--scale`` and
    ``--seed`` (the run seed) it resolves them at, as the request
    declares those, and ``--json``."""
    for name in names:
        parser.add_argument(name, nargs=nargs, help="benchmark name or .bench file")
    for spec in _CIRCUIT_FIELDS:
        _add_field_flag(parser, spec, "partition", suppress=False)
    if json_flag:
        parser.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )


def _add_cache_dir_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="solution-cache directory (default: the REPRO_CACHE env var, "
        "otherwise results/cache)",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record metrics/spans/events for this run as JSONL "
        "(see docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="JSONL trace destination (implies --trace; default trace.jsonl)",
    )
    parser.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="directory for per-process JSONL streams (implies --trace): "
        "the parent writes main.jsonl, pool workers append "
        "worker-<pid>.jsonl; merge with 'repro-fpga obs export'",
    )
    from repro.obs.ledger import DEFAULT_LEDGER_DIR

    parser.add_argument(
        "--ledger",
        nargs="?",
        const=DEFAULT_LEDGER_DIR,
        default=None,
        metavar="PATH",
        help="append this run's quality record to the run ledger "
        f"(directory or .jsonl file; bare flag = {DEFAULT_LEDGER_DIR}; "
        "REPRO_LEDGER env var also enables it)",
    )


@contextlib.contextmanager
def _observability(args: argparse.Namespace) -> Iterator[Optional[str]]:
    """Install an enabled registry streaming JSONL when tracing is on.

    Yields the trace destination (``None`` when tracing is off).  Final
    metric values are flushed and the file closed on the way out.
    """
    trace_dir = getattr(args, "trace_dir", None)
    trace = bool(
        getattr(args, "trace", False)
        or getattr(args, "metrics_out", None)
        or trace_dir
    )
    if not trace:
        yield None
        return
    from repro.obs.events import JsonlEmitter
    from repro.obs.metrics import MetricsRegistry, use_registry

    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        trace_dir = os.path.abspath(trace_dir)
    path = args.metrics_out or (
        os.path.join(trace_dir, "main.jsonl") if trace_dir else "trace.jsonl"
    )
    registry = MetricsRegistry(
        enabled=True, emitter=JsonlEmitter(path), trace_dir=trace_dir
    )
    registry.emit_meta()
    try:
        with use_registry(registry):
            yield path
    finally:
        registry.close()


def _request_from_args(args: argparse.Namespace) -> Any:
    """The :class:`~repro.request.PartitionRequest` the flags describe:
    every field a flag set, over the command line's own defaults."""
    fields = {
        spec.name: getattr(args, spec.name)
        for spec in VERB_FIELDS[args.command]
        if spec.metadata["cli"] and hasattr(args, spec.name)
    }
    try:
        return build_request(args.command, args.circuit, **fields)
    except RequestError as exc:
        raise SystemExit(str(exc)) from exc


def _engine(log: Any) -> str:
    """The engine behind a solve's solution (``RunResult`` has none):
    the attempt cascade returns its last, best checkpoint."""
    events = [event for event in log.events if event.kind == "checkpoint"]
    return events[-1].engine if events else ""


def _summary_line(report: Any, result: Any, engine: Optional[str]) -> str:
    """The one-line human view of a solver verb's result."""
    if result.kind == "bipartition":
        line = (
            f"{report.circuit}: {report.algorithm}, {report.runs} runs -> "
            f"best cut {report.best_cut}, avg cut {report.avg_cut:.1f}, "
            f"avg replicated {report.avg_replicated:.1f}"
        )
    else:
        line = (
            f"{report.circuit}: k={report.k} cost={report.total_cost:.0f} "
            f"devices={report.device_counts} "
            f"CLB util {100 * report.avg_clb_utilization:.1f}% "
            f"IOB util {100 * report.avg_iob_utilization:.1f}% "
            f"replicated {100 * report.replicated_fraction:.1f}% "
            f"feasible={report.feasible}"
        )
    line += f" ({result.elapsed_seconds:.2f}s"
    if result.run_log is not None:
        line += f", {engine}, {len(result.run_log.attempts())} attempt(s)"
    line += ")"
    cache_info = result.cache_info or {}
    if cache_info:
        line += f" cache={cache_info.get('status')}"
    warm = cache_info.get("warm") or {}
    if warm.get("mode") == "warm":
        line += (
            f" warm-start: {warm.get('dirty_cells')} dirty cells, "
            f"{warm.get('speedup', 0.0):.1f}x vs ancestor"
        )
    elif warm:
        line += f" warm-start declined: {warm.get('reason')}"
    return line


def _cmd_solve(args: argparse.Namespace) -> int:
    """``bipartition`` / ``partition``: the flags become one request,
    solved by :func:`repro.api.run_request` like every other front door."""
    from repro import api
    from repro.cache.store import resolve_cache, use_cache
    from repro.core.results import solve_row
    from repro.obs.ledger import Ledger, resolve_ledger, use_ledger
    from repro.robust.errors import ReproError

    request = _request_from_args(args)
    with contextlib.ExitStack() as scope:
        trace_path = scope.enter_context(_observability(args))
        if args.ledger:
            scope.enter_context(use_ledger(Ledger(args.ledger)))
        scope.enter_context(use_cache(resolve_cache(args.cache_dir)))
        ledger = resolve_ledger()
        mapped = _load_circuit(request.circuit, request.scale, request.seed)
        try:
            result = api.run_request(request, circuit=mapped)
        except ReproError as exc:
            raise SystemExit(str(exc)) from exc
    if trace_path is not None:
        print(f"trace written to {trace_path}", file=sys.stderr)
    if result.run_record is not None and ledger is not None:
        print(
            f"logged run {result.run_record['run_id']} to {ledger.path}",
            file=sys.stderr,
        )
    problems = None
    if getattr(args, "verify", False):
        from repro.partition.verify import verify_solution

        problems = verify_solution(request.apply_delta(mapped)[0], result.solution)
    log = result.run_log
    engine = _engine(log) if log is not None else None
    report, _ = solve_row(
        request.verb, result.solution, request.threshold, result.elapsed_seconds
    )
    if args.json:
        doc = {**report.as_dict(), **result.to_dict()}
        if log is not None:
            doc.update(
                engine=engine, run_log_summary=log.summary(), run_log=log.as_dicts()
            )
        if problems is not None:
            doc["violations"] = problems
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))
    else:
        line = _summary_line(report, result, engine)
        if problems is not None:
            line += f" violations={len(problems)}"
        print(line)
        for problem in problems or ():
            print(f"VIOLATION: {problem}", file=sys.stderr)
    return 1 if problems else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    netlist = _load_circuit(args.circuit, args.scale, args.seed, mapped=False)
    stats = netlist_stats(netlist)
    if args.json:
        print(json.dumps(stats.as_dict(), indent=2))
    else:
        for key, value in stats.as_dict().items():
            print(f"{key:>12}: {value}")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    mapped = _load_circuit(args.circuit, args.scale, args.seed)
    stats = mapped_stats(mapped)
    payload = stats.as_dict()
    payload["multi_output_cells"] = mapped.n_multi_output_cells
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:>20}: {value}")
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    from repro.obs.ledger import netlist_fingerprint
    from repro.robust.errors import DeltaError
    from repro.techmap.delta import diff_mapped, seeded_delta

    if args.delta_cmd == "diff":
        old = _load_circuit(args.old, args.scale, args.seed)
        new = _load_circuit(args.new, args.scale, args.seed)
        try:
            delta = diff_mapped(old, new, base=netlist_fingerprint(old))
        except DeltaError as exc:
            raise SystemExit(str(exc)) from exc
        source = old
    else:  # gen
        source = _load_circuit(args.circuit, args.scale, args.seed)
        delta = seeded_delta(
            source,
            fraction=args.fraction,
            seed=args.delta_seed,
            base=netlist_fingerprint(source),
        )
    try:
        _, dirty = delta.apply(source)
    except DeltaError as exc:
        raise SystemExit(f"delta does not apply: {exc}") from exc
    doc = delta.to_dict()
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    print(
        f"{len(delta.ops)} ops -> {len(dirty.cells)} dirty cells "
        f"({100 * dirty.fraction:.1f}% of {dirty.n_cells} post-delta cells), "
        f"{len(dirty.touched_nets)} touched nets"
        + (f"; written to {args.out}" if args.out else ""),
        file=sys.stderr,
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.metrics is not None:
        return _analyze_metrics(args)
    if args.circuit is None:
        raise SystemExit("analyze: provide a circuit or --metrics PATH")
    from repro.hypergraph.build import build_hypergraph
    from repro.netlist.rent import fit_rent, rent_points
    from repro.replication.potential import cell_distribution

    mapped = _load_circuit(args.circuit, args.scale, args.seed)
    hg = build_hypergraph(mapped, include_terminals=False)
    dist = cell_distribution(hg, name=mapped.name)
    # The Rent sample is drawn at the seed the circuit was generated at.
    fit = fit_rent(rent_points(hg, seed=mapping_seed(args.seed)))
    payload = {
        "circuit": mapped.name,
        "clbs": mapped.n_cells,
        "multi_output_cells": mapped.n_multi_output_cells,
        "psi_distribution": {label: count for label, count, _ in dist.rows()},
        "rent_exponent": round(fit.exponent, 3) if fit else None,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        from repro.experiments.figure3 import ascii_histogram

        print(ascii_histogram(dist))
        if fit:
            print(f"Rent exponent: {fit.exponent:.3f} "
                  f"(coefficient {fit.coefficient:.2f}, "
                  f"{len(fit.points)} sample blocks)")
    return 0


def _analyze_metrics(args: argparse.Namespace) -> int:
    """Print :func:`repro.api.analyze`'s verdict on a JSONL trace."""
    from repro import api

    verdict = api.analyze(args.metrics).solution
    events, problems = verdict["events"], verdict["problems"]
    if args.json:
        print(
            json.dumps(
                {"path": args.metrics, "events": len(events), "problems": problems},
                indent=2,
            )
        )
    else:
        print(verdict["summary"] or "(empty trace)")
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
    return 0 if not problems else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import table1, table2, table3, figure3, tables4to7

    name = args.name
    if name == "table1":
        print(table1.run().text())
    elif name == "table2":
        print(table2.run(args.circuits, args.scale, args.seed).text())
    elif name == "figure3":
        print(figure3.run(args.circuits, args.scale, args.seed).text())
    elif name == "table3":
        print(
            table3.run(args.circuits, args.scale, args.seed, runs=args.runs).text()
        )
    elif name in ("table4", "table5", "table6", "table7"):
        data = tables4to7.sweep(args.circuits, args.scale, args.seed)
        table_fn = {
            "table4": tables4to7.table4,
            "table5": tables4to7.table5,
            "table6": tables4to7.table6,
            "table7": tables4to7.table7,
        }[name]
        print(table_fn(data, args.scale).text())
    else:
        raise SystemExit(f"unknown experiment {name!r}")
    return 0


# ---------------------------------------------------------------------------
# runs: the persistent ledger
# ---------------------------------------------------------------------------


def _runs_ledger(args: argparse.Namespace):
    """Ledger for the ``runs`` subcommands (always resolves to one)."""
    from repro.obs.ledger import Ledger, resolve_ledger

    return resolve_ledger(getattr(args, "ledger", None)) or Ledger()


def _quality_brief(record: dict) -> str:
    """One-line quality summary keyed by record kind."""
    quality = record.get("quality") or {}
    if record.get("kind") == "bipartition":
        return (
            f"best_cut={quality.get('best_cut')} "
            f"avg_cut={quality.get('avg_cut')}"
        )
    if "table" in quality:
        return f"table={quality.get('table')}"
    return (
        f"k={quality.get('k')} cost={quality.get('total_cost')} "
        f"feasible={quality.get('feasible')}"
    )


def _cmd_runs_list(args: argparse.Namespace) -> int:
    ledger = _runs_ledger(args)
    rows = ledger.records()
    if args.kind:
        rows = [r for r in rows if r.get("kind") == args.kind]
    if args.circuit:
        rows = [r for r in rows if r.get("circuit") == args.circuit]
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "run_id": r.get("run_id"),
                        "run_key": r.get("run_key"),
                        "kind": r.get("kind"),
                        "circuit": r.get("circuit"),
                        "seed": r.get("seed"),
                        "iso_ts": r.get("iso_ts"),
                        "git_rev": r.get("git_rev"),
                        "quality": r.get("quality"),
                    }
                    for r in rows
                ],
                indent=2,
            )
        )
        return 0
    if not rows:
        print(f"(no records in {ledger.path})")
        return 0
    for i, record in enumerate(rows):
        print(
            f"{i:>3}  {record.get('run_id')}  {record.get('iso_ts')}  "
            f"{record.get('kind'):<11} {str(record.get('circuit')):<10} "
            f"seed={record.get('seed')}  {_quality_brief(record)}"
        )
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from repro.obs.compare import flatten

    ledger = _runs_ledger(args)
    try:
        record = ledger.find(args.token)
    except (LookupError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0
    for key in ("run_id", "run_key", "kind", "circuit", "seed", "iso_ts",
                "git_rev", "netlist_hash", "config_fingerprint"):
        print(f"{key:>18}: {record.get(key)}")
    print(f"{'config':>18}: {json.dumps(record.get('config'), sort_keys=True)}")
    for metric, value in sorted(flatten(record.get("quality") or {}).items()):
        print(f"{'quality.' + metric:>40}: {value}")
    convergence = record.get("convergence") or {}
    carves = convergence.get("carves") or []
    for carve in carves:
        print(
            f"{'carve':>18}: level={carve.get('level')} "
            f"device={carve.get('device')} clbs={carve.get('clbs')} "
            f"cut={carve.get('cut')} terminals={carve.get('terminals')}"
        )
    ml_levels = convergence.get("multilevel") or []
    for entry in ml_levels:
        print(
            f"{'vcycle':>18}: level={entry.get('level')} "
            f"cells={entry.get('cells')} nets={entry.get('nets')} "
            f"cut={entry.get('cut')} match_rate={entry.get('match_rate')}"
        )
    if convergence.get("multilevel_dropped"):
        print(
            f"{'vcycle':>18}: "
            f"(+{convergence['multilevel_dropped']} more levels dropped)"
        )
    return 0


def _parse_tolerances(specs: List[str]) -> dict:
    from repro.obs.compare import parse_tolerance

    tolerances = {}
    for spec in specs:
        try:
            metric, tol = parse_tolerance(spec)
        except ValueError as exc:
            raise SystemExit(str(exc)) from exc
        tolerances[metric] = tol
    return tolerances


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.obs.compare import diff_records, gate_exit_code, render_text

    ledger = _runs_ledger(args)
    try:
        baseline = ledger.find(args.baseline)
        current = ledger.find(args.current)
    except (LookupError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    diff = diff_records(baseline, current, _parse_tolerances(args.tolerance))
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2))
    else:
        print(render_text(diff, show_same=args.show_same))
    return gate_exit_code(diff, strict=args.strict)


def _cmd_runs_report(args: argparse.Namespace) -> int:
    from repro.obs.compare import diff_records, render_html

    ledger = _runs_ledger(args)
    try:
        if args.tokens:
            records = [ledger.find(token) for token in args.tokens]
        else:
            records = ledger.records()[-args.last:]
        baseline = ledger.find(args.baseline) if args.baseline else None
    except (LookupError, ValueError) as exc:
        raise SystemExit(str(exc)) from exc
    if not records:
        raise SystemExit(f"no records to report on in {ledger.path}")
    diffs = [
        diff_records(baseline, record, _parse_tolerances(args.tolerance))
        for record in records
    ] if baseline is not None else []
    page = render_html(records, diffs, title=f"Run ledger report: {ledger.path}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(page)
    print(f"report written to {args.out} "
          f"({len(records)} run(s), {len(diffs)} diff(s))")
    return 0


# ---------------------------------------------------------------------------
# batch & cache: manifest-driven sweeps against the solution cache
# ---------------------------------------------------------------------------


def _cmd_batch_run(args: argparse.Namespace) -> int:
    from repro.batch.manifest import ManifestError, load_manifest
    from repro.batch.scheduler import run_batch

    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as exc:
        raise SystemExit(str(exc)) from exc

    from repro.obs.events import LineWriter

    done = [0]
    # One writer, one write() per line: progress callbacks fire from
    # collector threads when --jobs > 1, and bare print() (two writes:
    # text then newline) interleaves mid-line under that concurrency.
    writer = LineWriter(sys.stderr)

    def progress(payload: dict) -> None:
        if args.quiet:
            return
        event = payload.get("event")
        if event in ("job.done", "job.skipped"):
            done[0] += 1
            status = payload.get("status", "skipped")
            cache_status = payload.get("cache_status", "-")
            wall = payload.get("wall_seconds", 0.0)
            writer.write_line(
                f"  [{done[0]}] {payload.get('job_id')}: {status} "
                f"(cache {cache_status}, {wall:.2f}s)"
            )

    with _observability(args) as trace_path:
        report = run_batch(
            manifest,
            jobs=args.jobs,
            cache=args.cache,
            cache_dir=args.cache_dir,
            deadline=args.deadline,
            on_event=progress,
        )
    if args.report:
        report.write(args.report)
        print(f"report written to {args.report}", file=sys.stderr)
    if trace_path is not None:
        print(f"trace written to {trace_path}", file=sys.stderr)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    verdicts = report.counts("status")
    clean = not verdicts.get("failed") and not verdicts.get("skipped")
    return 0 if clean or args.keep_going else 1


def _cmd_batch_manifest(args: argparse.Namespace) -> int:
    from repro.batch.manifest import ManifestError, expand_manifest
    from repro.experiments import tables4to7

    manifest = tables4to7.sweep_manifest(
        circuits=args.circuits,
        scale=args.scale,
        seed=args.seed,
        thresholds=args.thresholds or tables4to7.DEFAULT_THRESHOLDS,
        n_solutions=args.n_solutions,
        seeds_per_carve=args.seeds_per_carve,
        devices_per_carve=args.devices_per_carve,
    )
    try:
        n_jobs = len(expand_manifest(manifest))
    except ManifestError as exc:
        raise SystemExit(str(exc)) from exc
    text = json.dumps(manifest, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"manifest with {n_jobs} job(s) written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_batch_check(args: argparse.Namespace) -> int:
    from repro.batch.scheduler import check_reports

    reports = []
    for path in (args.first, args.second):
        try:
            with open(path, encoding="utf-8") as fh:
                reports.append(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"cannot read report {path}: {exc}") from exc
    problems = check_reports(reports[0], reports[1], args.min_hit_rate)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}", file=sys.stderr)
        return 1
    rate = reports[1].get("cache", {}).get("hit_rate", 0.0)
    print(
        f"OK: runs are bit-identical, warm hit rate {rate:.0%} "
        f">= {args.min_hit_rate:.0%}"
    )
    return 0


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.cache.store import resolve_cache

    stats = resolve_cache(args.cache_dir).stats()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        for key, value in stats.items():
            print(f"{key:>12}: {value}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import run_service

    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    try:
        with _observability(args):
            run_service(
                host=args.host,
                port=args.port,
                workers=args.workers,
                cache=args.cache,
                cache_dir=args.cache_dir,
                rate=args.rate,
                burst=args.burst,
                max_inflight=args.max_inflight,
            )
    except OSError as exc:
        raise SystemExit(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    return 0


def _expand_stream_paths(paths: List[str]) -> List[str]:
    """Flatten trace directories into their ``*.jsonl`` streams."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            out.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".jsonl")
            )
        else:
            out.append(path)
    return out


def _cmd_obs_validate(args: argparse.Namespace) -> int:
    from repro.obs.events import validate_jsonl_file

    failed = False
    for path in _expand_stream_paths(args.paths):
        events, problems = validate_jsonl_file(path)
        if problems:
            failed = True
            print(f"{path}: INVALID ({len(problems)} problem(s)): {problems[0]}")
            if args.verbose:
                for problem in problems[1:]:
                    print(f"  {problem}")
        else:
            print(f"{path}: ok ({len(events)} event(s))")
    return 1 if failed else 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from repro.obs.export import export_chrome_trace

    paths = _expand_stream_paths(args.paths)
    if not paths:
        raise SystemExit("obs export: no JSONL event streams found")
    try:
        summary = export_chrome_trace(paths, args.out, trace_id=args.trace_id)
    except OSError as exc:
        raise SystemExit(f"obs export: {exc}") from exc
    print(
        f"wrote {summary['events']} event(s) ({summary['spans']} span(s)) "
        f"from {summary['streams']} stream(s) to {summary['out']}"
    )
    return 0


def _snapshot_from_stream(path: str) -> dict:
    """Rebuild a metrics snapshot from a stream's flushed final values."""
    from repro.obs.events import read_jsonl

    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}
    for record in read_jsonl(path, skip_invalid=True):
        kind = record.get("kind")
        name = record.get("name")
        if not isinstance(name, str):
            continue
        if kind == "counter":
            counters[name] = record.get("value", 0)
        elif kind == "gauge":
            gauges[name] = record.get("value", 0)
        elif kind == "histogram":
            pairs = record.get("buckets") or []
            histograms[name] = {
                "bounds": [p[0] for p in pairs if p[0] is not None],
                "counts": [p[1] for p in pairs],
                "count": record.get("count", 0),
                "sum": record.get("sum", 0.0),
            }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def _cmd_obs_metrics(args: argparse.Namespace) -> int:
    if (args.url is None) == (args.path is None):
        raise SystemExit("obs metrics: give a JSONL PATH or --url, not both")
    if args.url is not None:
        from urllib.error import URLError
        from urllib.request import urlopen

        url = args.url
        if not url.rstrip("/").endswith("/v1/metrics"):
            url = url.rstrip("/") + "/v1/metrics"
        try:
            with urlopen(url, timeout=30) as response:
                sys.stdout.write(response.read().decode("utf-8"))
        except (OSError, URLError) as exc:
            raise SystemExit(f"obs metrics: cannot scrape {url}: {exc}") from exc
        return 0
    from repro.obs.telemetry import prometheus_exposition

    try:
        snapshot = _snapshot_from_stream(args.path)
    except OSError as exc:
        raise SystemExit(f"obs metrics: {exc}") from exc
    sys.stdout.write(prometheus_exposition(snapshot))
    return 0


def _cmd_cache_evict(args: argparse.Namespace) -> int:
    from repro.cache.store import resolve_cache

    store = resolve_cache(args.cache_dir)
    evicted = store.evict(0 if args.all else args.max_bytes)
    stats = store.stats()
    print(
        f"evicted {len(evicted)} entrie(s); "
        f"{stats['entries']} left ({stats['bytes']} bytes) in {store.root}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fpga",
        description="Heterogeneous-FPGA netlist partitioning (DAC'94 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="gate-level circuit statistics")
    _add_circuit_args(p_stats, "circuit")
    p_stats.set_defaults(func=_cmd_stats)

    p_map = sub.add_parser("map", help="technology-map into XC3000 CLBs")
    _add_circuit_args(p_map, "circuit")
    p_map.set_defaults(func=_cmd_map)

    for verb, help_text in (
        ("bipartition", "equal-size min-cut bipartitioning"),
        ("partition", "heterogeneous k-way partitioning"),
    ):
        p_solve = sub.add_parser(verb, help=help_text)
        _add_circuit_args(p_solve, "circuit")
        for spec in VERB_FIELDS[verb]:
            if spec.metadata["cli"] and spec not in _CIRCUIT_FIELDS:
                _add_field_flag(p_solve, spec, verb)
        p_solve.set_defaults(func=_cmd_solve, **CLI_DEFAULTS[verb])
        _add_cache_dir_arg(p_solve)
        _add_obs_args(p_solve)
        if verb == "partition":
            p_solve.add_argument(
                "--verify",
                action="store_true",
                help="run the independent solution checker; non-zero exit "
                "on violations",
            )

    p_delta = sub.add_parser(
        "delta",
        help="ECO netlist deltas: diff two circuits or generate a drill edit",
    )
    delta_sub = p_delta.add_subparsers(dest="delta_cmd", required=True)
    p_dd = delta_sub.add_parser(
        "diff",
        help="diff OLD into NEW as a repro-netlist-delta/1 document",
    )
    _add_circuit_args(p_dd, "old", "new", json_flag=False)
    p_dd.add_argument("--out", metavar="PATH", default=None)
    p_dd.set_defaults(func=_cmd_delta)
    p_dg = delta_sub.add_parser(
        "gen",
        help="generate a deterministic seeded ECO edit (CI / bench drills)",
    )
    _add_circuit_args(p_dg, "circuit", json_flag=False)
    p_dg.add_argument(
        "--fraction",
        type=float,
        default=0.01,
        help="fraction of cells to edit (default 0.01)",
    )
    p_dg.add_argument(
        "--delta-seed",
        dest="delta_seed",
        type=int,
        default=0,
        help="seed for the edit generator itself",
    )
    p_dg.add_argument("--out", metavar="PATH", default=None)
    p_dg.set_defaults(func=_cmd_delta)

    p_an = sub.add_parser(
        "analyze",
        help="replication-potential distribution + Rent exponent, "
        "or validate an observability trace (--metrics)",
    )
    _add_circuit_args(p_an, "circuit", nargs="?")
    p_an.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="validate and summarize a JSONL trace instead of a circuit",
    )
    p_an.set_defaults(func=_cmd_analyze)

    p_exp = sub.add_parser(
        "experiment",
        help="regenerate a paper table/figure (Tables III-VII solve as one "
        "batch on every core, cached in REPRO_CACHE or results/cache)",
    )
    p_exp.add_argument(
        "name",
        choices=[
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "table7",
            "figure3",
        ],
    )
    p_exp.add_argument("--scale", type=float, default=0.5)
    p_exp.add_argument("--circuits", nargs="*", default=None)
    p_exp.add_argument("--seed", type=int, default=MAPPING_SEED)
    p_exp.add_argument("--runs", type=int, default=20)
    p_exp.set_defaults(func=_cmd_experiment)

    p_runs = sub.add_parser(
        "runs", help="inspect the persistent run ledger (quality drift)"
    )
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)

    def _ledger_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger",
            metavar="PATH",
            default=None,
            help="ledger directory or .jsonl file (default results/ledger, "
            "or the REPRO_LEDGER env var)",
        )

    p_rl = runs_sub.add_parser("list", help="list ledger records")
    _ledger_arg(p_rl)
    p_rl.add_argument("--kind", default=None, help="filter by record kind")
    p_rl.add_argument("--circuit", default=None, help="filter by circuit")
    p_rl.add_argument("--json", action="store_true")
    p_rl.set_defaults(func=_cmd_runs_list)

    p_rs = runs_sub.add_parser("show", help="show one record in full")
    p_rs.add_argument(
        "token",
        help="record selector: index, run_id prefix, 'latest', or a JSONL path",
    )
    _ledger_arg(p_rs)
    p_rs.add_argument("--json", action="store_true")
    p_rs.set_defaults(func=_cmd_runs_show)

    p_rd = runs_sub.add_parser(
        "diff",
        help="diff two records; non-zero exit on drift/regression",
    )
    p_rd.add_argument("baseline", help="baseline record selector")
    p_rd.add_argument(
        "current", nargs="?", default="latest", help="current record selector"
    )
    _ledger_arg(p_rd)
    p_rd.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="METRIC=BAND",
        help="per-metric band, e.g. total_cost=5%% or avg_cut=2%%+0.5 "
        "(repeatable)",
    )
    p_rd.add_argument(
        "--strict",
        action="store_true",
        help="also fail on improvements (golden-determinism gating)",
    )
    p_rd.add_argument(
        "--show-same", action="store_true", help="print unchanged metrics too"
    )
    p_rd.add_argument("--json", action="store_true")
    p_rd.set_defaults(func=_cmd_runs_diff)

    p_rr = runs_sub.add_parser(
        "report", help="self-contained HTML report with convergence curves"
    )
    p_rr.add_argument(
        "tokens", nargs="*", help="record selectors (default: the last --last)"
    )
    _ledger_arg(p_rr)
    p_rr.add_argument(
        "--baseline",
        default=None,
        help="also diff every reported run against this record",
    )
    p_rr.add_argument(
        "--tolerance",
        action="append",
        default=[],
        metavar="METRIC=BAND",
        help="per-metric band for --baseline diffs (repeatable)",
    )
    p_rr.add_argument("--last", type=int, default=5, metavar="N")
    p_rr.add_argument("--out", default="runs_report.html", metavar="PATH")
    p_rr.set_defaults(func=_cmd_runs_report)

    p_batch = sub.add_parser(
        "batch", help="run job manifests against the solution cache"
    )
    batch_sub = p_batch.add_subparsers(dest="batch_command", required=True)

    p_br = batch_sub.add_parser(
        "run", help="execute every job of a manifest; exit 1 on failures"
    )
    p_br.add_argument("manifest", help="batch manifest JSON file")
    p_br.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (1 = sequential, 0 = all cores)",
    )
    p_br.add_argument(
        "--cache",
        choices=[policy.value for policy in CachePolicy],
        default=CachePolicy.USE.value,
        help="solution-cache policy for every job (default use)",
    )
    _add_cache_dir_arg(p_br)
    p_br.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="global wall-clock budget; jobs that cannot start in time "
        "are reported skipped",
    )
    p_br.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the full batch report JSON here",
    )
    p_br.add_argument(
        "--keep-going",
        action="store_true",
        help="exit 0 even when jobs failed or were skipped (the report "
        "still carries the per-job verdicts)",
    )
    p_br.add_argument(
        "--quiet", action="store_true", help="suppress per-job progress lines"
    )
    p_br.add_argument("--json", action="store_true")
    p_br.add_argument(
        "--trace",
        action="store_true",
        help="record batch/cache events as JSONL (see docs/OBSERVABILITY.md)",
    )
    p_br.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="JSONL trace destination (implies --trace; default trace.jsonl)",
    )
    p_br.set_defaults(func=_cmd_batch_run)

    p_bm = batch_sub.add_parser(
        "manifest", help="emit a Tables IV-VII sweep manifest"
    )
    p_bm.add_argument(
        "generator",
        choices=["tables4to7"],
        help="which manifest to generate",
    )
    partition_fields = {spec.name: spec for spec in VERB_FIELDS["partition"]}
    p_bm.add_argument("--circuits", nargs="*", default=None)
    p_bm.add_argument(
        "--thresholds",
        nargs="+",
        type=_flag_type(partition_fields["threshold"].metadata["cli"]),
        default=None,
        metavar="T",
        help="replication thresholds ('inf' or numbers; default: inf 0 1 2 3)",
    )
    for name in ("scale", "seed", "n_solutions", "seeds_per_carve",
                 "devices_per_carve"):
        _add_field_flag(p_bm, partition_fields[name], "partition", suppress=False)
    p_bm.add_argument(
        "--out", metavar="PATH", default=None, help="write here (default stdout)"
    )
    p_bm.set_defaults(func=_cmd_batch_manifest)

    p_bc = batch_sub.add_parser(
        "check",
        help="gate two batch reports: warm hit rate + bit-identical results",
    )
    p_bc.add_argument("first", help="cold-run report JSON")
    p_bc.add_argument("second", help="warm-run report JSON")
    p_bc.add_argument(
        "--min-hit-rate",
        type=float,
        default=0.9,
        metavar="FRAC",
        help="required cache hit rate in the second run (default 0.9)",
    )
    p_bc.set_defaults(func=_cmd_batch_check)

    p_cache = sub.add_parser(
        "cache", help="inspect or trim the on-disk solution cache"
    )
    cache_sub = p_cache.add_subparsers(dest="cache_command", required=True)

    p_cs = cache_sub.add_parser("stats", help="entry/byte counts and location")
    _add_cache_dir_arg(p_cs)
    p_cs.add_argument("--json", action="store_true")
    p_cs.set_defaults(func=_cmd_cache_stats)

    p_ce = cache_sub.add_parser(
        "evict", help="LRU-evict entries down to the size cap"
    )
    _add_cache_dir_arg(p_ce)
    p_ce.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="evict down to N bytes (default: the configured cap)",
    )
    p_ce.add_argument(
        "--all", action="store_true", help="evict everything (same as 0 bytes)"
    )
    p_ce.set_defaults(func=_cmd_cache_evict)

    p_serve = sub.add_parser(
        "serve",
        help="partitioning-as-a-service: async HTTP job server "
        "(submit/status/cancel/stream; see docs/SERVICE.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port",
        type=int,
        default=8377,
        help="listen port (0 = pick a free port and print it; default 8377)",
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="solver worker processes (default 2)",
    )
    p_serve.add_argument(
        "--cache",
        choices=[policy.value for policy in CachePolicy],
        default=CachePolicy.USE.value,
        help="solution-cache policy for served jobs (default use)",
    )
    _add_cache_dir_arg(p_serve)
    p_serve.add_argument(
        "--rate",
        type=float,
        default=20.0,
        metavar="R",
        help="per-client submissions/second (token-bucket refill; default 20)",
    )
    p_serve.add_argument(
        "--burst",
        type=float,
        default=40.0,
        metavar="B",
        help="per-client burst capacity (default 40)",
    )
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        metavar="N",
        help="per-client queued+running job quota (default 16)",
    )
    p_serve.add_argument(
        "--trace",
        action="store_true",
        help="serve under an enabled metrics registry: GET /v1/metrics "
        "then exposes every registry series (trace-labeled counters "
        "included), and job events are mirrored to the trace stream",
    )
    p_serve.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="JSONL trace destination (implies --trace; default trace.jsonl)",
    )
    p_serve.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help="directory for per-process JSONL streams (implies --trace): "
        "the server writes main.jsonl, solver workers append "
        "worker-<pid>.jsonl; merge with 'repro-fpga obs export'",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_obs = sub.add_parser(
        "obs",
        help="observability utilities: validate JSONL event streams, "
        "export Perfetto timelines, render Prometheus metrics",
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)

    p_ov = obs_sub.add_parser(
        "validate",
        help="validate repro-obs-events/1 JSONL stream(s); exit 1 and "
        "report the first offending line on schema problems",
    )
    p_ov.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="JSONL stream files or trace directories",
    )
    p_ov.add_argument(
        "--verbose", action="store_true",
        help="list every problem, not just the first",
    )
    p_ov.set_defaults(func=_cmd_obs_validate)

    p_oe = obs_sub.add_parser(
        "export",
        help="merge JSONL stream(s) into one Chrome trace-event timeline "
        "(open in Perfetto or chrome://tracing)",
    )
    p_oe.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="JSONL stream files or trace directories (multi-worker "
        "streams merge into per-pid lanes)",
    )
    p_oe.add_argument(
        "--chrome", action="store_true",
        help="write Chrome trace-event JSON (the default and currently "
        "only format)",
    )
    p_oe.add_argument(
        "--out", default="trace.chrome.json", metavar="FILE",
        help="output file (default trace.chrome.json)",
    )
    p_oe.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="keep only records stamped with this trace id",
    )
    p_oe.set_defaults(func=_cmd_obs_export)

    p_om = obs_sub.add_parser(
        "metrics",
        help="Prometheus text exposition: scrape a live service (--url) "
        "or render a JSONL trace's final metric values",
    )
    p_om.add_argument(
        "path", nargs="?", default=None, metavar="PATH",
        help="JSONL trace whose flushed metrics should be rendered",
    )
    p_om.add_argument(
        "--url", default=None, metavar="URL",
        help="service base URL (or full /v1/metrics URL) to scrape",
    )
    p_om.set_defaults(func=_cmd_obs_metrics)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
