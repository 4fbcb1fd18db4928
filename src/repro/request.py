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
  documented JSON and manifest spelling);
* takes every omitted tunable from one per-verb defaults table
  (:data:`PARTITION_PARAMS`, :data:`BIPARTITION_PARAMS`,
  :data:`COMMON_PARAMS`), which batch manifests and the CLI read too.

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
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Any, Dict, Optional, Union

#: Version stamped into every request document as ``v``.
REQUEST_SCHEMA_VERSION = 1

#: Document identifier written in every request's ``schema`` field.
REQUEST_SCHEMA_NAME = "repro-partition-request/1"

#: Verbs a request may carry (the cacheable solver verbs).
REQUEST_VERBS = ("bipartition", "partition")


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


#: Per-verb tunables with their defaults -- the one table the
#: :class:`PartitionRequest` fields, batch manifests and the CLI all
#: read.  ``threshold`` is the only tunable both verbs take with
#: different defaults, so a request that omits it resolves it per verb.
PARTITION_PARAMS: Dict[str, Any] = {
    "threshold": 1,
    "library": "XC3000",
    "n_solutions": 2,
    "seeds_per_carve": 3,
    "devices_per_carve": 3,
}
BIPARTITION_PARAMS: Dict[str, Any] = {
    "runs": 20,
    "threshold": 0,
    "balance_tolerance": 0.02,
    "max_passes": 16,
    "max_growth": None,
}
COMMON_PARAMS: Dict[str, Any] = {
    "scale": 1.0,
    "algorithm": "fm+functional",
    "deadline": None,
    "max_retries": None,
    "fallback": None,
    "multilevel": None,
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RequestError(message)


def mapping_seed(seed: int) -> int:
    """The seed a circuit is generated and mapped at for a run seed:
    ``seed or 1994`` (the historical ``repro.api`` behavior), so seed 0
    maps the recorded circuits.  Every front door and the paper tables'
    suite loader use this rule."""
    return seed or 1994


@dataclass(frozen=True)
class PartitionRequest:
    """One solver invocation as a frozen, serializable artifact.

    Construct directly, from keyword arguments (:func:`build_request`),
    from a JSON document (:meth:`from_json`) or from a batch manifest
    (:func:`repro.batch.manifest.expand_manifest`); every path yields
    the same normalized object, and equal requests are ``==`` and hash
    alike (usable as memo keys).  Omitted fields take their defaults
    from the per-verb tables above; an omitted ``threshold`` is 1 for
    ``partition`` and 0 for ``bipartition``.
    """

    verb: str
    circuit: str
    scale: float = COMMON_PARAMS["scale"]
    seed: int = 0
    algorithm: Algorithm = Algorithm(COMMON_PARAMS["algorithm"])
    #: Omitted (``None``), it takes the verb's table default in
    #: ``__post_init__``, so the attribute is always a number.
    threshold: Union[int, float] = None  # type: ignore[assignment]
    multilevel: MultilevelMode = MultilevelMode.AUTO
    # -- partition tunables (ignored by bipartition) --------------------
    library: str = PARTITION_PARAMS["library"]
    n_solutions: int = PARTITION_PARAMS["n_solutions"]
    seeds_per_carve: int = PARTITION_PARAMS["seeds_per_carve"]
    devices_per_carve: int = PARTITION_PARAMS["devices_per_carve"]
    # -- bipartition tunables (ignored by partition) --------------------
    runs: int = BIPARTITION_PARAMS["runs"]
    balance_tolerance: float = BIPARTITION_PARAMS["balance_tolerance"]
    max_passes: int = BIPARTITION_PARAMS["max_passes"]
    max_growth: Optional[float] = BIPARTITION_PARAMS["max_growth"]
    # -- resilience (part of the cache/ledger identity) -----------------
    deadline: Optional[float] = None
    max_retries: Optional[int] = None
    fallback: Optional[bool] = None
    # -- incremental repartitioning (see docs/INCREMENTAL.md) -----------
    #: Optional ECO delta (``repro-netlist-delta/1``) applied to the
    #: mapped netlist *before* anything else.  The delta itself is never
    #: fingerprinted: it enters cache identity only through the
    #: post-delta netlist hash, so an empty delta is a pure cache hit on
    #: the base entry and two different deltas producing the same
    #: netlist share one entry.
    delta: Optional[Any] = None
    #: Warm-start policy: ``None``/``"auto"`` warm-start from the
    #: nearest cached ancestor whenever a delta is present, ``"off"``
    #: forces a cold solve, any other string is an explicit prior cache
    #: key to seed from.  Execution-only for identity purposes: the
    #: warm result is stored as *the* solution for its key, so replays
    #: are bit-identical regardless of how the entry was first produced.
    warm_start: Optional[str] = None
    # -- execution-only fields (never fingerprinted) --------------------
    cache: CachePolicy = CachePolicy.OFF
    jobs: int = 1
    #: Observability correlation id (``X-Repro-Trace-Id`` on the wire).
    #: Excluded from equality like ``schema_version``: a traced request
    #: must memoize and deduplicate exactly like its untraced twin.
    trace_id: Optional[str] = field(default=None, compare=False)
    schema_version: int = field(default=REQUEST_SCHEMA_VERSION, compare=False)

    def __post_init__(self) -> None:
        _require(self.verb in REQUEST_VERBS,
                 f"verb {self.verb!r} not in {REQUEST_VERBS}")
        _require(isinstance(self.circuit, str) and bool(self.circuit),
                 "circuit must be a non-empty string")
        _require(_is_int(self.seed), f"seed {self.seed!r} is not an int")
        # Normalize enum spellings so direct construction is as forgiving
        # as the shims (frozen dataclass: go through __setattr__ escape).
        object.__setattr__(self, "algorithm", Algorithm.coerce(self.algorithm))
        object.__setattr__(self, "cache", CachePolicy.coerce(self.cache))
        object.__setattr__(
            self, "multilevel", MultilevelMode.coerce(self.multilevel)
        )
        threshold = self.threshold
        if threshold is None:
            verb_params = (
                BIPARTITION_PARAMS if self.verb == "bipartition" else PARTITION_PARAMS
            )
            threshold = verb_params["threshold"]
        object.__setattr__(self, "threshold", parse_threshold(threshold))
        for name in ("runs", "n_solutions", "seeds_per_carve"):
            value = getattr(self, name)
            _require(_is_int(value) and value >= 1,
                     f"{name}={value!r} must be an integer >= 1")
        _require(
            self.max_retries is None
            or (_is_int(self.max_retries) and self.max_retries >= 0),
            f"max_retries={self.max_retries!r} must be an integer >= 0 or null",
        )
        _require(
            self.max_growth is None
            or (_is_number(self.max_growth) and self.max_growth >= 0),
            f"max_growth={self.max_growth!r} must be a number >= 0 or null",
        )
        _require(
            self.trace_id is None
            or (isinstance(self.trace_id, str) and bool(self.trace_id)),
            f"trace_id {self.trace_id!r} must be a non-empty string or null",
        )
        if self.delta is not None:
            from repro.techmap.delta import NetlistDelta

            if not isinstance(self.delta, NetlistDelta):
                try:
                    object.__setattr__(
                        self, "delta", NetlistDelta.from_dict(self.delta)
                    )
                except ValueError as exc:
                    raise RequestError(f"bad delta: {exc}") from exc
            _require(self.verb == "partition",
                     "delta is only supported for the partition verb")
        _require(
            self.warm_start is None
            or (isinstance(self.warm_start, str) and bool(self.warm_start)),
            f"warm_start {self.warm_start!r} must be a non-empty string or null",
        )

    # -- identity -------------------------------------------------------
    def config(self, multilevel_active: bool = False) -> Dict[str, Any]:
        """The ledger/cache configuration dict of this request.

        Byte-compatible with what the pre-request ``repro.api`` verbs
        built inline: same keys, same value types, and the
        ``"multilevel"`` marker present only when the V-cycle actually
        resolved on for the target netlist (``multilevel_active``), so
        every fingerprint, golden record and cache entry minted before
        this refactor stays valid.
        """
        common = {
            "verb": self.verb,
            "algorithm": self.algorithm.value,
            "threshold": self.threshold,
            "scale": self.scale,
            "deadline": self.deadline,
            "max_retries": self.max_retries,
            "fallback": self.fallback,
        }
        if self.verb == "bipartition":
            config = {
                "verb": common["verb"],
                "algorithm": common["algorithm"],
                "runs": self.runs,
                "threshold": common["threshold"],
                "balance_tolerance": self.balance_tolerance,
                "max_passes": self.max_passes,
                "max_growth": self.max_growth,
                "scale": common["scale"],
                "deadline": common["deadline"],
                "max_retries": common["max_retries"],
                "fallback": common["fallback"],
            }
        else:
            config = {
                "verb": common["verb"],
                "algorithm": common["algorithm"],
                "threshold": common["threshold"],
                "library": self.library,
                "n_solutions": self.n_solutions,
                "seeds_per_carve": self.seeds_per_carve,
                "devices_per_carve": self.devices_per_carve,
                "scale": common["scale"],
                "deadline": common["deadline"],
                "max_retries": common["max_retries"],
                "fallback": common["fallback"],
            }
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
        return (self.circuit, float(self.scale), self.mapping_seed)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The JSON document form, in stable field order."""
        doc: Dict[str, Any] = {
            "schema": REQUEST_SCHEMA_NAME,
            "v": self.schema_version,
            "verb": self.verb,
            "circuit": self.circuit,
            "scale": self.scale,
            "seed": self.seed,
            "algorithm": self.algorithm.value,
            "threshold": threshold_json(self.threshold),
            "multilevel": self.multilevel.value,
            "library": self.library,
            "n_solutions": self.n_solutions,
            "seeds_per_carve": self.seeds_per_carve,
            "devices_per_carve": self.devices_per_carve,
            "runs": self.runs,
            "balance_tolerance": self.balance_tolerance,
            "max_passes": self.max_passes,
            "max_growth": self.max_growth,
            "deadline": self.deadline,
            "max_retries": self.max_retries,
            "fallback": self.fallback,
            "cache": self.cache.value,
            "jobs": self.jobs,
        }
        # Only when set: delta-free documents stay byte-identical to
        # every document minted before incremental requests existed.
        if self.delta is not None:
            doc["delta"] = self.delta.to_dict()
        if self.warm_start is not None:
            doc["warm_start"] = self.warm_start
        if self.trace_id is not None:
            # Only when set: untraced documents stay byte-identical to
            # every document minted before trace propagation existed.
            doc["trace_id"] = self.trace_id
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
        known = {f.name for f in fields(cls)} | {"schema", "v"}
        unknown = sorted(set(doc) - known)
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


def build_request(verb: str, circuit: str, **kwargs: Any) -> PartitionRequest:
    """A request from keyword arguments, e.g. ``build_request("partition",
    "s5378", scale=0.5, threshold=1)``.

    Unknown keywords raise :class:`RequestError` (mirroring ``TypeError``
    semantics); omitted ones take the per-verb defaults.
    """
    allowed = {f.name for f in fields(PartitionRequest)} - {"verb", "circuit"}
    unknown = sorted(set(kwargs) - allowed)
    _require(not unknown, f"unknown request field(s): {unknown}")
    return PartitionRequest(verb=verb, circuit=circuit, **kwargs)


__all__ = [
    "Algorithm",
    "BIPARTITION_PARAMS",
    "COMMON_PARAMS",
    "CachePolicy",
    "MultilevelMode",
    "PARTITION_PARAMS",
    "PartitionRequest",
    "REQUEST_SCHEMA_NAME",
    "REQUEST_SCHEMA_VERSION",
    "REQUEST_VERBS",
    "RequestError",
    "build_request",
    "mapping_seed",
    "parse_threshold",
    "threshold_json",
]
