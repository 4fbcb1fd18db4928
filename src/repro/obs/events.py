"""JSON-lines event stream: emitters, schema and validation.

Every observability artifact -- finished spans, ad-hoc events, final
metric values -- is serialized as one JSON object per line so traces can
be streamed, tailed, grepped and post-processed without loading a run
into memory.  The schema (``repro-obs-events/1``) is deliberately flat:

* common fields: ``v`` (schema version, always ``1``), ``ts`` (epoch
  seconds of the record), ``kind`` and ``name``;
* ``kind="meta"`` -- one header line per stream (``schema``, python
  version, pid);
* ``kind="span"`` -- a finished trace span: ``id``, ``parent`` (span id
  or ``None``), ``depth``, ``dur_s`` (``time.perf_counter`` delta),
  optional ``start_ts`` (wall-clock epoch seconds at span entry, the
  anchor timeline exporters need), optional ``cpu_s``
  (``time.process_time`` delta, profiling mode) and ``attrs`` (span
  attributes);
* ``kind="event"`` -- an ad-hoc structured event with ``fields``
  (e.g. the attempt cascade's attempt/degrade/checkpoint decisions);
* ``kind="counter"`` / ``"gauge"`` -- a final metric ``value``;
* ``kind="histogram"`` -- ``count``, ``sum``, ``min``, ``max`` and
  ``buckets`` as ``[upper_bound, count]`` pairs (the last bound is
  ``null`` for the overflow bucket).

Any line may additionally carry ``trace`` -- the trace id of the request
whose work emitted it (see :mod:`repro.obs.telemetry`); streams from
before trace propagation simply omit it, so the field is schema-additive.

:func:`validate_event` / :func:`validate_jsonl_file` check conformance
without any third-party JSON-schema dependency; the CI workflow runs the
file validator over a traced quick partition.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from typing import Any, Dict, IO, Iterable, List, Tuple, Union

#: Version stamped into every event line as ``v``.
EVENT_SCHEMA_VERSION = 1

#: Stream identifier written in the ``meta`` header line.
EVENT_SCHEMA_NAME = "repro-obs-events/1"

#: Every ``kind`` a conforming stream may contain.
EVENT_KINDS = ("meta", "span", "event", "counter", "gauge", "histogram")

_NUMBER = (int, float)


class ListEmitter:
    """In-memory emitter collecting event dicts (tests, `analyze`)."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def emit(self, event: Dict[str, Any]) -> None:
        self.events.append(event)

    def close(self) -> None:  # symmetry with JsonlEmitter
        pass


class TeeEmitter:
    """Fan one event stream out to several emitters (e.g. JSONL + list).

    The CLI uses this when a run is both traced (``--trace``) and
    ledger-logged (``--ledger``): the JSONL file gets the full stream
    while an in-memory :class:`ListEmitter` feeds the ledger's
    convergence distillation.
    """

    def __init__(self, *emitters: Any) -> None:
        self.emitters = list(emitters)

    def emit(self, event: Dict[str, Any]) -> None:
        for emitter in self.emitters:
            emitter.emit(event)

    def close(self) -> None:
        for emitter in self.emitters:
            emitter.close()


class JsonlEmitter:
    """Append events to a file (or file-like object) as JSON lines.

    ``append=True`` opens a path in append mode -- pool workers reopen
    their per-process stream file between tasks, so each reopen adds a
    fresh ``meta`` header and the file accumulates one multi-task stream
    (the validator accepts multiple meta lines).
    """

    def __init__(self, target: Union[str, IO[str]], append: bool = False) -> None:
        if isinstance(target, (str, os.PathLike)):
            mode = "a" if append else "w"
            self._fh: IO[str] = open(target, mode, encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False

    def emit(self, event: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(event, sort_keys=True, default=str))
        self._fh.write("\n")

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class LineWriter:
    """A thread-safe whole-line sink for progress/event streams.

    ``print(text, file=fh)`` issues *two* writes (the text, then the
    newline), so concurrent writers can interleave mid-line and tear
    the stream.  This writer
    joins line + terminator into one string and hands it to the
    underlying file in a single ``write`` call under a lock, then
    flushes, so every line lands whole and in emission order.

    Wraps an open file-like object (commonly ``sys.stderr`` or a socket
    makefile); ``close()`` only closes targets opened here by path.
    """

    def __init__(self, target: Union[str, IO[str]]) -> None:
        if isinstance(target, (str, os.PathLike)):
            self._fh: IO[str] = open(target, "a", encoding="utf-8")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        self._lock = threading.Lock()

    def write_line(self, line: str) -> None:
        """Write ``line`` (newline appended) atomically and flush."""
        data = line if line.endswith("\n") else line + "\n"
        with self._lock:
            self._fh.write(data)
            self._fh.flush()

    def write_json(self, payload: Dict[str, Any]) -> None:
        """Serialize ``payload`` as one compact JSON line (JSONL)."""
        self.write_line(json.dumps(payload, sort_keys=True, default=str))

    def close(self) -> None:
        with self._lock:
            self._fh.flush()
            if self._owns:
                self._fh.close()


def meta_event() -> Dict[str, Any]:
    """The stream header line (write it first)."""
    return {
        "v": EVENT_SCHEMA_VERSION,
        "ts": time.time(),
        "kind": "meta",
        "name": "stream",
        "schema": EVENT_SCHEMA_NAME,
        "python": platform.python_version(),
        "pid": os.getpid(),
    }


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _check(cond: bool, problems: List[str], message: str) -> None:
    if not cond:
        problems.append(message)


def validate_event(event: Any) -> List[str]:
    """Schema-check one event dict; returns a list of problems (empty = ok)."""
    problems: List[str] = []
    if not isinstance(event, dict):
        return [f"event is {type(event).__name__}, expected object"]
    _check(event.get("v") == EVENT_SCHEMA_VERSION, problems,
           f"v={event.get('v')!r}, expected {EVENT_SCHEMA_VERSION}")
    _check(isinstance(event.get("ts"), _NUMBER), problems, "ts must be a number")
    kind = event.get("kind")
    _check(kind in EVENT_KINDS, problems, f"unknown kind {kind!r}")
    _check(isinstance(event.get("name"), str) and bool(event.get("name")),
           problems, "name must be a non-empty string")
    if "trace" in event:
        _check(isinstance(event["trace"], str) and bool(event["trace"]),
               problems, "trace must be a non-empty string")
    if problems:
        return problems
    if kind == "meta":
        _check(event.get("schema") == EVENT_SCHEMA_NAME, problems,
               f"meta schema={event.get('schema')!r}")
    elif kind == "span":
        _check(isinstance(event.get("id"), int), problems, "span id must be int")
        parent = event.get("parent")
        _check(parent is None or isinstance(parent, int), problems,
               "span parent must be int or null")
        _check(isinstance(event.get("depth"), int) and event["depth"] >= 0,
               problems, "span depth must be int >= 0")
        dur = event.get("dur_s")
        _check(isinstance(dur, _NUMBER) and dur >= 0, problems,
               "span dur_s must be a number >= 0")
        if "start_ts" in event:
            _check(
                isinstance(event["start_ts"], _NUMBER) and event["start_ts"] >= 0,
                problems, "span start_ts must be a number >= 0",
            )
        if "cpu_s" in event:
            _check(isinstance(event["cpu_s"], _NUMBER), problems,
                   "span cpu_s must be a number")
        _check(isinstance(event.get("attrs"), dict), problems,
               "span attrs must be an object")
    elif kind == "event":
        _check(isinstance(event.get("fields"), dict), problems,
               "event fields must be an object")
    elif kind in ("counter", "gauge"):
        _check(isinstance(event.get("value"), _NUMBER), problems,
               f"{kind} value must be a number")
    elif kind == "histogram":
        for field in ("count", "sum"):
            _check(isinstance(event.get(field), _NUMBER), problems,
                   f"histogram {field} must be a number")
        for field in ("min", "max"):
            _check(field in event and (event[field] is None
                                       or isinstance(event[field], _NUMBER)),
                   problems, f"histogram {field} must be a number or null")
        buckets = event.get("buckets")
        ok = isinstance(buckets, list) and all(
            isinstance(b, list)
            and len(b) == 2
            and (b[0] is None or isinstance(b[0], _NUMBER))
            and isinstance(b[1], int)
            for b in buckets
        )
        _check(ok, problems, "histogram buckets must be [bound|null, count] pairs")
    return [f"{kind} {event.get('name')!r}: {p}" for p in problems]


def validate_events(events: Iterable[Any]) -> List[str]:
    """Validate a sequence of event dicts; problems are line-prefixed."""
    problems: List[str] = []
    saw_meta = False
    n = 0
    for n, event in enumerate(events, start=1):
        for problem in validate_event(event):
            problems.append(f"line {n}: {problem}")
        if isinstance(event, dict) and event.get("kind") == "meta":
            saw_meta = True
    if n == 0:
        problems.append("empty event stream")
    elif not saw_meta:
        problems.append("no meta header line in stream")
    return problems


def read_jsonl(path: str, skip_invalid: bool = False) -> List[Dict[str, Any]]:
    """Parse a JSONL file into event dicts.

    Raises ``ValueError`` on a malformed line unless ``skip_invalid`` is
    set, in which case bad lines (e.g. a torn tail left by a crashed
    writer) are dropped -- the run ledger reads in this mode so one
    interrupted append cannot poison the whole history.
    """
    events: List[Dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if skip_invalid:
                    continue
                raise ValueError(f"{path}:{n}: not valid JSON: {exc}") from exc
    return events


def validate_jsonl_file(path: str) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Load and validate a JSONL event file; returns ``(events, problems)``."""
    try:
        events = read_jsonl(path)
    except (OSError, ValueError) as exc:
        return [], [str(exc)]
    return events, validate_events(events)
