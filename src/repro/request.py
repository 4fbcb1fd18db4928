"""The unified, versioned request artifact every entry point parses.

The CLI, batch manifests, the job service and library callers all
describe a solve the same way: a :class:`PartitionRequest` (schema
``repro-partition-request/1``), executed by
:func:`repro.api.run_request`.  It is a *frozen*, schema-versioned
dataclass that

* round-trips losslessly through JSON (:meth:`PartitionRequest.to_json`
  / :meth:`PartitionRequest.from_json`, stable field order, the paper's
  ``T = inf`` baseline spelled ``"inf"`` exactly like batch manifests);
* reproduces the exact solver configuration dict the run ledger and the
  solution cache fingerprint (:meth:`PartitionRequest.config`), so
  ``request.cache_key(mapped)`` equals the ledger's ``run_key`` for the
  run the request describes;
* normalizes the stringly/tri-state knobs into enums:
  :class:`Algorithm`, :class:`CachePolicy` and :class:`MultilevelMode`
  (``multilevel`` also accepts ``true``/``false``/``null``, its
  documented JSON and manifest spelling).

One declaration
---------------
Each field is declared once, in :class:`PartitionRequest`, together
with the verbs that take it, whether it enters
:meth:`~PartitionRequest.config`, its range check and how its
command-line string parses (:func:`_spec`).  Everything else is derived
from that declaration once, at import: ``config()``, ``to_dict()``, the
checks of ``__post_init__``, the per-verb defaults :data:`VERB_PARAMS`
(the fields a batch-manifest job may set) and the fields each verb
takes (:data:`VERB_FIELDS`, which the CLI turns into flags).

Identity vs. execution fields
-----------------------------
``verb``/``circuit``/``scale``/``seed``/``algorithm``/``threshold`` and
the verb tunables determine solver *output* and therefore feed
:meth:`~PartitionRequest.config` and the cache key.  ``cache``,
``jobs`` and ``trace_id`` only say *how* to execute (memoization
policy, worker count, observability correlation); they travel in the
JSON document but never into the fingerprint -- ``jobs=8`` must hit the
entry ``jobs=1`` stored, and a traced request must hit the entry an
untraced one cached.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.netlist.benchmarks import RECORDED_SEED

#: Version stamped into every request document as ``v``.
REQUEST_SCHEMA_VERSION = 1

#: Document identifier written in every request's ``schema`` field.
REQUEST_SCHEMA_NAME = "repro-partition-request/1"

#: Verbs a request may carry (the cacheable solver verbs).
REQUEST_VERBS = ("bipartition", "partition")

#: The seed a circuit is generated and mapped at for run seed 0 (see
#: :func:`mapping_seed`): the recorded experiments' generator seed, and
#: the command line's default ``--seed``.
MAPPING_SEED = RECORDED_SEED


class RequestError(ValueError):
    """A request document or value that cannot be normalized."""


class Algorithm(str, Enum):
    """The bipartitioning engine family (paper section 4).

    ``str``-valued so existing comparisons (``algorithm == "fm"``) and
    JSON serialization keep working; the member value *is* the wire
    spelling.
    """

    FM_FUNCTIONAL = "fm+functional"
    FM_TRADITIONAL = "fm+traditional"
    FM = "fm"

    @classmethod
    def coerce(cls, value: Union["Algorithm", str]) -> "Algorithm":
        """Normalize an algorithm spelling; raises :class:`RequestError`."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value)
            except ValueError:
                pass
        raise RequestError(
            f"algorithm={value!r} is not an algorithm; "
            f"expected one of {[m.value for m in cls]}"
        )


class CachePolicy(str, Enum):
    """Solution-cache interaction of one run.

    ``USE`` consults the store and memoizes misses, ``REFRESH``
    recomputes and overwrites, ``OFF`` bypasses the store entirely.
    """

    USE = "use"
    REFRESH = "refresh"
    OFF = "off"

    @classmethod
    def coerce(cls, value: Union["CachePolicy", str]) -> "CachePolicy":
        """Normalize a cache-policy spelling.

        Raises ``ValueError`` with the historical ``repro.api`` message
        so existing callers keep seeing the same error.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value)
            except ValueError:
                pass
        raise ValueError(
            f"cache={value!r} is not a cache policy; "
            f"expected one of {tuple(m.value for m in cls)}"
        )


class MultilevelMode(str, Enum):
    """The tri-state V-cycle knob, as an explicit enum.

    ``ON`` forces the coarsen-solve-uncoarsen engine, ``OFF`` keeps the
    flat engines, ``AUTO`` (default) enables it once the netlist reaches
    :data:`repro.partition.multilevel.MULTILEVEL_AUTO_MIN_CELLS` cells.
    ``True`` / ``False`` / ``None`` coerce to ``ON`` / ``OFF`` / ``AUTO``:
    that is the JSON and batch-manifest spelling of the knob.
    """

    ON = "on"
    OFF = "off"
    AUTO = "auto"

    @classmethod
    def coerce(
        cls, value: Union["MultilevelMode", str, bool, None]
    ) -> "MultilevelMode":
        """Normalize a multilevel spelling; raises :class:`RequestError`."""
        if isinstance(value, cls):
            return value
        if value is None:
            return cls.AUTO
        if isinstance(value, bool):
            return cls.ON if value else cls.OFF
        if isinstance(value, str):
            try:
                return cls(value)
            except ValueError:
                pass
        raise RequestError(
            f"multilevel={value!r} is not a multilevel mode; "
            f"expected one of {[m.value for m in cls]} or True/False/None"
        )

    @property
    def tri(self) -> Optional[bool]:
        """The legacy tri-state bool the solver flows still consume."""
        if self is MultilevelMode.ON:
            return True
        if self is MultilevelMode.OFF:
            return False
        return None


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RequestError(message)


def parse_threshold(value: Any) -> Union[int, float]:
    """A replication threshold: a number, or ``"inf"``/``"infinity"``
    for the no-replication baseline (strict JSON has no infinity
    literal).  The numeric type is preserved -- an ``int`` threshold
    stays an ``int`` so config fingerprints never move."""
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return float("inf")
        raise RequestError(f"threshold {value!r} is not a number or 'inf'")
    if not _is_number(value):
        raise RequestError(f"threshold {value!r} is not a number or 'inf'")
    return value


def threshold_json(threshold: Union[int, float]) -> Union[int, float, str]:
    """The JSON spelling of a threshold (inverse of :func:`parse_threshold`)."""
    if isinstance(threshold, float) and math.isinf(threshold):
        return "inf"
    return threshold


def _parse_number(text: str) -> Union[int, float]:
    """A number typed as text, read the way JSON reads it: ``1`` is the
    int every other front door sends (cache keys tell ``1`` from
    ``1.0``), ``0.5`` and ``inf`` (the threshold baseline) are floats."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise RequestError(f"{text!r} is not a number") from None


def _read_json(path: str) -> Any:
    """The JSON document at ``path`` (``--delta PATH``)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise RequestError(f"cannot read {path!r}: {exc}") from exc


def mapping_seed(seed: int) -> int:
    """The seed a circuit is generated and mapped at for a run seed:
    ``seed or MAPPING_SEED`` (the historical ``repro.api`` behavior), so
    seed 0 maps the recorded circuits.  Every front door and the paper
    tables' suite loader use this rule."""
    return seed or MAPPING_SEED


# -- range checks: ``check(name, value)`` returns the normalized value ----
_Check = Callable[[str, Any], Any]


def _at_least(
    minimum: Optional[int] = None, integer: bool = True, optional: bool = False
) -> _Check:
    """An int (or, ``integer=False``, a number) ``>= minimum``; ``None``
    too when ``optional``."""
    is_kind = _is_int if integer else _is_number
    rule = "an integer" if integer else "a number"
    if minimum is not None:
        rule += f" >= {minimum}"
    if optional:
        rule += " or null"

    def check(name: str, value: Any) -> Any:
        if value is None and optional:
            return value
        _require(is_kind(value) and (minimum is None or value >= minimum),
                 f"{name}={value!r} must be {rule}")
        return value

    return check


def _text(optional: bool = False) -> _Check:
    """A non-empty string; ``None`` too when ``optional``."""

    def check(name: str, value: Any) -> Any:
        if value is None and optional:
            return value
        _require(isinstance(value, str) and bool(value),
                 f"{name} {value!r} must be a non-empty string"
                 + (" or null" if optional else ""))
        return value

    return check


def _enum(cls: Any) -> _Check:
    """One of ``cls``'s spellings, normalized to the member."""
    return lambda name, value: cls.coerce(value)


def _verb(name: str, value: Any) -> Any:
    _require(value in REQUEST_VERBS, f"{name} {value!r} not in {REQUEST_VERBS}")
    return value


def _threshold(name: str, value: Any) -> Any:
    value = parse_threshold(value)
    _require(value >= 0, f"{name}={value!r} must be >= 0 or 'inf'")
    return value


def _scale(name: str, value: Any) -> float:
    """A size factor in (0, 1], always a ``float``: ``1`` and ``1.0``
    name one circuit, so they must key one solve."""
    _require(_is_number(value) and 0 < value <= 1,
             f"{name}={value!r} must be a number in (0, 1]")
    return float(value)


def _flag(name: str, value: Any) -> Any:
    """``True``, ``False`` or ``None`` (unset)."""
    _require(value is None or isinstance(value, bool),
             f"{name}={value!r} must be true, false or null")
    return value


def _delta(name: str, value: Any) -> Any:
    if value is None:
        return value
    from repro.techmap.delta import NetlistDelta

    if isinstance(value, NetlistDelta):
        return value
    try:
        return NetlistDelta.from_dict(value)
    except ValueError as exc:
        raise RequestError(f"bad delta: {exc}") from exc


_PARTITION = ("partition",)
_BIPARTITION = ("bipartition",)


def _spec(
    default: Any = MISSING,
    *,
    verbs: Tuple[str, ...] = REQUEST_VERBS,
    config: Union[bool, str] = False,
    check: Optional[_Check] = None,
    per_verb: Optional[Dict[str, Any]] = None,
    cli: Any = None,
    flag: Optional[str] = None,
    help: Optional[str] = None,
    dump: Optional[Callable[[Any], Any]] = None,
    omit_none: bool = False,
    compare: bool = True,
) -> Any:
    """One request field and its declaration.

    ``verbs``
        the verbs that take the field (its flag appears on their
        subcommands; a ``config`` field enters only their config);
    ``config``
        ``True`` when the value enters :meth:`PartitionRequest.config`
        and so the cache key; ``"marker"`` for ``multilevel``, which
        enters it only as ``"multilevel": true`` once the V-cycle
        resolves on.  Either way a batch-manifest job may set it;
    ``check``
        the range check / normalizer ``__post_init__`` applies;
    ``per_verb``
        a per-verb default taken when the field is omitted (``None``);
    ``cli``
        how its command-line string parses: a parser, an :class:`Enum`
        (its values are the choices) or ``bool`` (a tri-state
        ``--name/--no-name`` pair); ``None`` keeps it off the CLI;
    ``flag`` / ``help``
        the flag's spelling (default ``--field-name``) and help text;
    ``dump`` / ``omit_none``
        its JSON spelling when that is not the value itself (an enum
        field's is its member's value, in ``config()`` too), and whether
        the document leaves it out while unset (so documents minted
        before the field existed stay byte-identical).
    """
    return field(
        default=default,
        compare=compare,
        metadata={
            "verbs": verbs, "config": config, "check": check,
            "per_verb": per_verb, "cli": cli, "flag": flag, "help": help,
            "dump": dump, "omit_none": omit_none,
        },
    )


def _enum_dump(f: Field) -> Optional[Callable[[Any], Any]]:
    """An enum field's JSON and config spelling: its member's value."""
    return attrgetter("value") if isinstance(f.default, Enum) else None


def _default(f: Field, verb: str) -> Any:
    """The value field ``f`` of a ``verb`` request takes when omitted."""
    per_verb = f.metadata["per_verb"]
    return per_verb[verb] if per_verb is not None else f.default


@dataclass(frozen=True)
class PartitionRequest:
    """One solver invocation as a frozen, serializable artifact.

    Construct directly, from keyword arguments (:func:`build_request`),
    from a JSON document (:meth:`from_json`) or from a batch manifest
    (:func:`repro.batch.manifest.expand_manifest`); every path yields
    the same normalized object, and equal requests are ``==`` and hash
    alike (usable as memo keys).  Omitted fields take their declared
    defaults; an omitted ``threshold`` is 1 for ``partition`` and 0 for
    ``bipartition``.
    """

    verb: str = _spec(config=True, check=_verb)
    circuit: str = _spec(check=_text())
    scale: float = _spec(
        1.0, config=True, check=_scale, cli=float,
        help="circuit size factor (1.0 = the published sizes)",
    )
    seed: int = _spec(
        0, check=_at_least(), cli=int,
        help="run seed (0 generates the recorded circuits)",
    )
    algorithm: Algorithm = _spec(
        Algorithm.FM_FUNCTIONAL, config=True, check=_enum(Algorithm),
        cli=Algorithm, help="bipartitioning engine family",
    )
    threshold: Union[int, float] = _spec(
        None, config=True, check=_threshold,
        per_verb={"bipartition": 0, "partition": 1}, cli=_parse_number,
        dump=threshold_json, help="replication threshold T (a number or 'inf')",
    )
    multilevel: MultilevelMode = _spec(
        MultilevelMode.AUTO, config="marker", check=_enum(MultilevelMode),
        cli=bool, help="coarsen-solve-uncoarsen V-cycle engine (default: on "
        "for netlists of >= 20k cells; --no-multilevel keeps the flat engines)",
    )
    # -- partition tunables (ignored by bipartition) --------------------
    library: str = _spec(
        "XC3000", verbs=_PARTITION, config=True, check=_text(), cli=str,
        help="bundled device library",
    )
    n_solutions: int = _spec(
        2, verbs=_PARTITION, config=True, check=_at_least(1), cli=int,
        flag="--solutions", help="k-way runs whose best solution is kept",
    )
    seeds_per_carve: int = _spec(
        3, verbs=_PARTITION, config=True, check=_at_least(1), cli=int,
        help="bipartitioning seeds tried per carve",
    )
    devices_per_carve: int = _spec(
        3, verbs=_PARTITION, config=True, check=_at_least(1), cli=int,
        help="candidate devices tried per carve",
    )
    # -- bipartition tunables (ignored by partition) --------------------
    runs: int = _spec(
        20, verbs=_BIPARTITION, config=True, check=_at_least(1), cli=int,
        help="multi-start runs",
    )
    balance_tolerance: float = _spec(
        0.02, verbs=_BIPARTITION, config=True,
        check=_at_least(0, integer=False), cli=_parse_number,
        help="allowed deviation from equal halves, as a fraction of the cells",
    )
    max_passes: int = _spec(
        16, verbs=_BIPARTITION, config=True, check=_at_least(0), cli=int,
        help="improvement passes per run",
    )
    max_growth: Optional[float] = _spec(
        None, verbs=_BIPARTITION, config=True,
        check=_at_least(0, integer=False, optional=True), cli=_parse_number,
        help="cap on replicated instances, as a fraction of the cells",
    )
    # -- resilience (part of the cache/ledger identity) -----------------
    deadline: Optional[float] = _spec(
        None, config=True, check=_at_least(0, integer=False, optional=True),
        cli=_parse_number,
        help="overall wall-clock budget in seconds, split over retries and "
        "engine fallbacks; returns the best solution found in time",
    )
    max_retries: Optional[int] = _spec(
        None, config=True, check=_at_least(0, optional=True), cli=int,
        help="extra attempts per engine before degrading (default 2 once "
        "--deadline or --no-fallback is given, else 0)",
    )
    fallback: Optional[bool] = _spec(
        None, config=True, check=_flag, cli=bool,
        help="the fm+functional -> fm+traditional -> fm engine cascade",
    )
    # -- execution-only fields (never fingerprinted) --------------------
    cache: CachePolicy = _spec(
        CachePolicy.OFF, check=_enum(CachePolicy), cli=CachePolicy,
        help="solution cache policy ('use' is required for warm-start repair)",
    )
    jobs: int = _spec(
        1, check=_at_least(), cli=int, help="worker processes for the multi-start/candidate "
        "scans (1 = sequential, 0 = all cores; results are identical per seed)",
    )
    # -- incremental repartitioning (see docs/INCREMENTAL.md) -----------
    #: Optional ECO delta (``repro-netlist-delta/1``) applied to the
    #: mapped netlist *before* anything else.  The delta itself is never
    #: fingerprinted: it enters cache identity only through the
    #: post-delta netlist hash, so an empty delta is a pure cache hit on
    #: the base entry and two different deltas producing the same
    #: netlist share one entry.
    delta: Optional[Any] = _spec(
        None, verbs=_PARTITION, check=_delta, cli=_read_json,
        dump=lambda delta: delta.to_dict(), omit_none=True,
        help="ECO delta document (repro-netlist-delta/1) applied to the "
        "mapped netlist before solving; enables warm-start repair from a "
        "cached ancestor solve",
    )
    #: Warm-start policy: ``None``/``"auto"`` warm-start from the
    #: nearest cached ancestor whenever a delta is present, ``"off"``
    #: forces a cold solve, any other string is an explicit prior cache
    #: key to seed from.  Execution-only for identity purposes: the
    #: warm result is stored as *the* solution for its key, so replays
    #: are bit-identical regardless of how the entry was first produced.
    warm_start: Optional[str] = _spec(
        None, verbs=_PARTITION, check=_text(optional=True), cli=str,
        omit_none=True, help="warm-start policy for delta solves: a cache "
        "key to seed from, 'auto' (nearest cached ancestor) or 'off'",
    )
    #: Observability correlation id (``X-Repro-Trace-Id`` on the wire).
    #: Excluded from equality like ``schema_version``: a traced request
    #: must memoize and deduplicate exactly like its untraced twin.
    trace_id: Optional[str] = _spec(
        None, check=_text(optional=True), omit_none=True, compare=False
    )
    #: Written as the document's ``v``.
    schema_version: int = _spec(REQUEST_SCHEMA_VERSION, compare=False)

    def __post_init__(self) -> None:
        # Frozen dataclass: normalized values go through object.__setattr__.
        for name, check, per_verb in _CHECKS:
            value = getattr(self, name)
            if value is None and per_verb is not None:
                checked = check(name, per_verb[self.verb])
            else:
                checked = check(name, value)
            if checked is not value:
                object.__setattr__(self, name, checked)
        _require(self.delta is None or self.verb in _PARTITION,
                 "delta is only supported for the partition verb")

    # -- identity -------------------------------------------------------
    def config(self, multilevel_active: bool = False) -> Dict[str, Any]:
        """The ledger/cache configuration dict of this request: the
        verb's ``config`` fields, plus the ``"multilevel"`` marker only
        when the V-cycle actually resolved on for the target netlist
        (``multilevel_active``)."""
        config: Dict[str, Any] = {}
        for name, dump in _CONFIG[self.verb]:
            value = getattr(self, name)
            config[name] = value if dump is None else dump(value)
        if multilevel_active:
            config["multilevel"] = True
        return config

    def resolve_multilevel(self, n_cells: int) -> bool:
        """Whether the V-cycle is active for a netlist of ``n_cells``."""
        from repro.partition.multilevel import resolve_multilevel

        return resolve_multilevel(self.multilevel.tri, n_cells)

    def apply_delta(self, mapped: Any) -> tuple:
        """``(post-delta netlist, dirty region)`` for this request.

        No-op for delta-free (and empty-delta) requests: the base
        netlist is returned unchanged with a ``None`` region, which is
        what makes an empty delta a pure cache hit on the base entry.
        Raises :class:`~repro.robust.errors.DeltaError` when the delta
        cannot be applied; ``base``-hash validation is the caller's job
        (:func:`repro.api.run_request` checks it against the live
        netlist fingerprint).
        """
        if self.delta is None or self.delta.empty:
            return mapped, None
        return self.delta.apply(mapped)

    def keyed_netlist(self, mapped: Any) -> tuple:
        """``(post-delta netlist, cache key)`` for the *base* netlist
        ``mapped``: one delta apply and one fingerprint.

        ``mapped`` is the technology-mapped netlist the request resolves
        to (mapping depends on circuit x scale x seed, so it cannot be
        derived from the request alone without rebuilding it).  A carried
        delta is applied first -- identity is always the post-delta
        netlist, never the (delta, base) pair -- so every caller computes
        the same key whether or not it applied the delta itself.
        """
        from repro.cache.store import cache_key as store_key
        from repro.obs import ledger

        mapped, _ = self.apply_delta(mapped)
        active = self.resolve_multilevel(mapped.n_cells)
        key = store_key(ledger.netlist_fingerprint(mapped), self.config(active),
                        self.seed)
        return mapped, key

    def cache_key(self, mapped: Any) -> str:
        """The solution-cache / ledger ``run_key`` of this request for
        the base netlist ``mapped`` (see :meth:`keyed_netlist`)."""
        return self.keyed_netlist(mapped)[1]

    @property
    def mapping_seed(self) -> int:
        """The seed the technology mapping actually uses
        (:func:`mapping_seed` of the request's seed)."""
        return mapping_seed(self.seed)

    @property
    def netlist_id(self) -> tuple:
        """(circuit, scale, mapping seed): the mapped-netlist identity."""
        return (self.circuit, self.scale, self.mapping_seed)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The JSON document form, in stable field order: the schema
        header, then every field in declaration order."""
        doc: Dict[str, Any] = {"schema": REQUEST_SCHEMA_NAME, "v": self.schema_version}
        for name, dump, omit_none in _DOCUMENT:
            value = getattr(self, name)
            if value is None:
                if not omit_none:
                    doc[name] = None
            else:
                doc[name] = value if dump is None else dump(value)
        return doc

    def to_json(self) -> str:
        """One-line JSON with stable field order (wire/ledger format)."""
        return json.dumps(self.to_dict(), separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: Any) -> "PartitionRequest":
        """Rebuild a request from its document form.

        Strict about shape: unknown fields and a wrong ``schema`` are
        errors (a service must reject, not guess), absent optional
        fields take the documented defaults.
        """
        _require(isinstance(doc, dict),
                 f"request is {type(doc).__name__}, expected object")
        schema = doc.get("schema", REQUEST_SCHEMA_NAME)
        _require(schema == REQUEST_SCHEMA_NAME,
                 f"request schema {schema!r}, expected {REQUEST_SCHEMA_NAME!r}")
        version = doc.get("v", REQUEST_SCHEMA_VERSION)
        _require(version == REQUEST_SCHEMA_VERSION,
                 f"request v={version!r}, expected {REQUEST_SCHEMA_VERSION}")
        unknown = sorted(set(doc) - _FIELD_NAMES - {"schema", "v"})
        _require(not unknown, f"unknown request field(s): {unknown}")
        _require("verb" in doc, "request is missing 'verb'")
        _require("circuit" in doc, "request is missing 'circuit'")
        kwargs: Dict[str, Any] = {
            k: v for k, v in doc.items() if k not in ("schema", "v")
        }
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise RequestError(f"bad request document: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "PartitionRequest":
        """Parse a JSON request document; raises :class:`RequestError`."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RequestError(f"request is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    # -- derived views --------------------------------------------------
    def with_trace(self, trace_id: Optional[str]) -> "PartitionRequest":
        """This request carrying ``trace_id`` (self when already equal)."""
        if trace_id == self.trace_id:
            return self
        return replace(self, trace_id=trace_id)


# -- everything below is derived from the declaration, once -------------
_FIELDS: Tuple[Field, ...] = fields(PartitionRequest)
_FIELD_NAMES = frozenset(f.name for f in _FIELDS)
_KEYWORDS = _FIELD_NAMES - {"verb", "circuit"}
_CHECKS = tuple(
    (f.name, f.metadata["check"], f.metadata["per_verb"])
    for f in _FIELDS
    if f.metadata["check"] is not None
)
_DOCUMENT = tuple(
    (f.name, f.metadata["dump"] or _enum_dump(f), f.metadata["omit_none"])
    for f in _FIELDS
    if f.name != "schema_version"
)

#: Per verb: the fields it takes, in declaration order (the CLI makes
#: its flags from those with a ``cli`` parser).
VERB_FIELDS: Dict[str, Tuple[Field, ...]] = {
    verb: tuple(f for f in _FIELDS if verb in f.metadata["verbs"])
    for verb in REQUEST_VERBS
}
_CONFIG = {
    verb: tuple(
        (f.name, _enum_dump(f))
        for f in VERB_FIELDS[verb]
        if f.metadata["config"] is True
    )
    for verb in REQUEST_VERBS
}

#: Per verb: the fields that name its solve (they enter ``config()``)
#: with their defaults -- the fields a batch-manifest job may set.
VERB_PARAMS: Dict[str, Dict[str, Any]] = {
    verb: {
        f.name: _default(f, verb)
        for f in VERB_FIELDS[verb]
        if f.metadata["config"] and f.name != "verb"
    }
    for verb in REQUEST_VERBS
}


def build_request(verb: str, circuit: str, **kwargs: Any) -> PartitionRequest:
    """A request from keyword arguments, e.g. ``build_request("partition",
    "s5378", scale=0.5, threshold=1)``.

    Unknown keywords raise :class:`RequestError` (mirroring ``TypeError``
    semantics); omitted ones take their declared defaults.
    """
    unknown = sorted(set(kwargs) - _KEYWORDS)
    _require(not unknown, f"unknown request field(s): {unknown}")
    return PartitionRequest(verb=verb, circuit=circuit, **kwargs)


__all__ = [
    "Algorithm",
    "CachePolicy",
    "MAPPING_SEED",
    "MultilevelMode",
    "PartitionRequest",
    "REQUEST_SCHEMA_NAME",
    "REQUEST_SCHEMA_VERSION",
    "REQUEST_VERBS",
    "RequestError",
    "VERB_FIELDS",
    "VERB_PARAMS",
    "build_request",
    "mapping_seed",
    "parse_threshold",
    "threshold_json",
]
