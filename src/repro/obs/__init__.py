"""Observability: metrics, hierarchical tracing and JSONL event streams.

``repro.obs`` is the process-local instrumentation layer threaded
through the partitioning stack (FM passes, replication moves, k-way
carve levels, attempt-cascade decisions, process-pool workers):

* :mod:`repro.obs.metrics` -- :class:`MetricsRegistry` with counters,
  gauges and explicit-bucket histograms, plus snapshot/merge for
  cross-process aggregation;
* :mod:`repro.obs.trace` -- hierarchical ``span()`` timing (wall clock
  via ``perf_counter``, optional ``process_time`` profiling);
* :mod:`repro.obs.events` -- the ``repro-obs-events/1`` JSON-lines
  schema, emitters and validators;
* :mod:`repro.obs.summary` -- the human-readable rendering behind
  ``repro-fpga analyze --metrics``;
* :mod:`repro.obs.telemetry` -- trace-id minting, labeled metric
  series, Prometheus text exposition and rolling-window latency
  quantiles (the live side served at ``GET /v1/metrics``);
* :mod:`repro.obs.export` -- Chrome trace-event / Perfetto timeline
  export, merging multi-worker JSONL streams on one trace id;
* :mod:`repro.obs.ledger` -- the persistent, append-only run ledger
  (``results/ledger/runs.jsonl``): one schema-versioned quality record
  per solver/experiment run, keyed by netlist hash + config fingerprint
  + seed + git rev;
* :mod:`repro.obs.compare` -- run diffing with per-metric tolerances,
  machine-readable drift verdicts and the self-contained HTML report
  behind ``repro-fpga runs report``.

The default registry is **disabled**: every instrumentation site costs a
single attribute check (``if reg.enabled:``), measured at well under the
3% overhead gate in ``benchmarks/bench_fm_hot.py``.  Enable collection
for a scope with::

    from repro.obs import MetricsRegistry, use_registry

    reg = MetricsRegistry(enabled=True)
    with use_registry(reg):
        partition_heterogeneous(mapped, config)
    print(reg.snapshot()["counters"])

or from the CLI with ``--trace`` / ``--metrics-out PATH``.  Tracing
never changes solver results: the golden-equivalence tests run the
engines bit-identical with tracing on.
"""

from __future__ import annotations

from repro.obs.compare import (
    RunDiff,
    Tolerance,
    diff_records,
    gate_exit_code,
    render_html,
    render_text,
)
from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_NAME,
    EVENT_SCHEMA_VERSION,
    JsonlEmitter,
    ListEmitter,
    TeeEmitter,
    meta_event,
    read_jsonl,
    validate_event,
    validate_events,
    validate_jsonl_file,
)
from repro.obs.export import chrome_trace, export_chrome_trace, stream_events
from repro.obs.ledger import (
    LEDGER_SCHEMA_NAME,
    LEDGER_SCHEMA_VERSION,
    Ledger,
    build_record,
    distill_convergence,
    get_ledger,
    netlist_fingerprint,
    resolve_ledger,
    set_ledger,
    use_ledger,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.summary import summarize_events
from repro.obs.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    QuantileWindow,
    new_trace_id,
    parse_exposition,
    prometheus_exposition,
    series,
    split_series,
)
from repro.obs.trace import NULL_SPAN, Span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
    "use_registry",
    "Span",
    "NULL_SPAN",
    "EVENT_KINDS",
    "EVENT_SCHEMA_NAME",
    "EVENT_SCHEMA_VERSION",
    "JsonlEmitter",
    "ListEmitter",
    "TeeEmitter",
    "meta_event",
    "read_jsonl",
    "validate_event",
    "validate_events",
    "validate_jsonl_file",
    "summarize_events",
    "PROMETHEUS_CONTENT_TYPE",
    "QuantileWindow",
    "new_trace_id",
    "parse_exposition",
    "prometheus_exposition",
    "series",
    "split_series",
    "chrome_trace",
    "export_chrome_trace",
    "stream_events",
    "LEDGER_SCHEMA_NAME",
    "LEDGER_SCHEMA_VERSION",
    "Ledger",
    "build_record",
    "distill_convergence",
    "get_ledger",
    "netlist_fingerprint",
    "resolve_ledger",
    "set_ledger",
    "use_ledger",
    "RunDiff",
    "Tolerance",
    "diff_records",
    "gate_exit_code",
    "render_html",
    "render_text",
]
