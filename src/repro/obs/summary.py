"""Human-readable rendering of an observability event stream.

``repro-fpga analyze --metrics trace.jsonl`` feeds a validated JSONL
event stream through :func:`summarize_events` to get the terminal
summary: per-span-name timing aggregates, a depth-indented trace of the
slowest top-level spans, counters/gauges, histogram tables and the
orchestration events the attempt cascade recorded.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: How many top-level spans the trace section shows.
_TRACE_TOP = 12


def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def _span_aggregates(spans: List[Dict[str, Any]]) -> List[str]:
    agg: Dict[str, List[float]] = {}
    for span in spans:
        agg.setdefault(span["name"], []).append(span["dur_s"])
    lines = ["spans (by name):",
             f"  {'name':<24} {'count':>6} {'total':>10} {'mean':>10} {'max':>10}"]
    for name in sorted(agg, key=lambda n: -sum(agg[n])):
        durs = agg[name]
        lines.append(
            f"  {name:<24} {len(durs):>6} {_fmt_seconds(sum(durs)):>10} "
            f"{_fmt_seconds(sum(durs) / len(durs)):>10} {_fmt_seconds(max(durs)):>10}"
        )
    return lines


def _span_tree(spans: List[Dict[str, Any]]) -> List[str]:
    children: Dict[Any, List[Dict[str, Any]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    roots = sorted(children.get(None, []), key=lambda s: -s["dur_s"])[:_TRACE_TOP]
    lines = ["slowest traces:"]

    def render(span: Dict[str, Any], indent: int) -> None:
        attrs = span.get("attrs") or {}
        attr_text = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        cpu = f" cpu {_fmt_seconds(span['cpu_s']).strip()}" if "cpu_s" in span else ""
        lines.append(
            f"  {'  ' * indent}{span['name']} {_fmt_seconds(span['dur_s']).strip()}"
            f"{cpu}{('  ' + attr_text) if attr_text else ''}"
        )
        for child in sorted(children.get(span["id"], []), key=lambda s: s["ts"]):
            render(child, indent + 1)

    for root in roots:
        render(root, 0)
    return lines


def summarize_events(events: List[Dict[str, Any]]) -> str:
    """Render a validated event stream as a terminal-friendly report."""
    spans = [e for e in events if e.get("kind") == "span"]
    counters = [e for e in events if e.get("kind") == "counter"]
    gauges = [e for e in events if e.get("kind") == "gauge"]
    histograms = [e for e in events if e.get("kind") == "histogram"]
    adhoc = [e for e in events if e.get("kind") == "event"]

    sections: List[List[str]] = []
    if spans:
        sections.append(_span_aggregates(spans))
        sections.append(_span_tree(spans))
    if counters:
        width = max(len(e["name"]) for e in counters)
        sections.append(
            ["counters:"]
            + [f"  {e['name']:<{width}}  {e['value']}"
               for e in sorted(counters, key=lambda e: e["name"])]
        )
    if gauges:
        width = max(len(e["name"]) for e in gauges)
        sections.append(
            ["gauges:"]
            + [f"  {e['name']:<{width}}  {e['value']}"
               for e in sorted(gauges, key=lambda e: e["name"])]
        )
    for hist in sorted(histograms, key=lambda e: e["name"]):
        lines = [
            f"histogram {hist['name']}: count={hist['count']} "
            f"sum={hist['sum']:.4f} min={hist['min']} max={hist['max']}"
        ]
        for bound, count in hist["buckets"]:
            if not count:
                continue
            label = "+inf" if bound is None else f"<= {bound}"
            lines.append(f"  {label:>12}  {count}")
        sections.append(lines)
    if adhoc:
        lines = [f"events ({len(adhoc)}):"]
        for event in adhoc:
            fields = event.get("fields") or {}
            field_text = " ".join(
                f"{k}={v}" for k, v in sorted(fields.items()) if v not in ("", None)
            )
            lines.append(f"  {event['name']}  {field_text}")
        sections.append(lines)
    if not sections:
        return "no observability data in stream"
    return "\n\n".join("\n".join(section) for section in sections)
