"""Config-driven scenario suite: seeded YAML stream scenarios.

The paper's evaluation rests on eight fixed benchmark traces, but its
own Section 5.6.1 says profiler accuracy is governed by stream
*properties*: distinct tuples per interval, candidates over threshold,
and inter-interval variation.  A **scenario** pins those properties
under direct control: a YAML config names a base tuple population
(either one of the calibrated benchmark models or an explicit
:class:`~repro.workloads.generators.StreamModel`) and composes it with
injection knobs that actively try to break the profiler:

* **aliasing** -- a cluster of distinct tuples engineered to collide in
  the paper's hash (:mod:`repro.core.hashing`), each
  individually sub-threshold but collectively pounding one counter.
  This is the worst case for the single-hash architecture; the
  multi-hash tables use independent functions, so the cluster scatters
  everywhere else (the Section 6.2 argument, made adversarial).
* **heavy_tail** -- a Zipf-weighted tuple population, the
  heavy-hitter-stream shape of the Estan-Varghese lineage.
* **bursts** -- rare-event bursts: a never-before-seen tuple suddenly
  repeating for a run of events (fraud/anomaly style), destabilizing
  short intervals.
* **phase_drift** (on the stream model) -- the working set's rotation
  period drifts geometrically, so a fixed profiling interval length
  slides across the stream's natural phases.

Scenarios are deterministic per ``(config, seed)``: the same config and
seed produce byte-identical event streams, whether emitted as JSONL
(:func:`write_jsonl`), materialized into the shared trace store
(:meth:`~repro.workloads.trace_store.TraceStore.get_scenario`), or fed
live to a :class:`~repro.profiling.session.ProfilingSession` or the
profile service -- all three consume the same
:class:`ScenarioStream.chunk` path.

Preset configs ship with the package (``scenario_configs/``); see
``docs/SCENARIOS.md`` for the schema and knob semantics.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import (Any, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from ..core.hashing import HashFunctionFamily
from ..core.tuples import EventKind
from .benchmarks import benchmark_model
from .generators import HotBand, StreamModel, TupleStreamGenerator, _mix64

#: PC-space bases for the injected populations, disjoint from the
#: generator's hot/recurring/fresh bases.
ALIAS_PC_BASE = 0x7_0000_0000
HEAVY_PC_BASE = 0x8_0000_0000
BURST_PC_BASE = 0x9_0000_0000

#: Where the shipped preset configs live.
PRESET_DIR = os.path.join(os.path.dirname(__file__), "scenario_configs")

#: Combined injection rate ceiling: some of the base stream must
#: survive, or the scenario no longer exercises the population model.
MAX_INJECT_RATE = 0.9


def _require_yaml():
    try:
        import yaml
    except ImportError as error:  # pragma: no cover - dep is declared
        raise RuntimeError(
            "scenario configs are YAML; install pyyaml") from error
    return yaml


def _check_keys(data: Mapping[str, Any], allowed: Sequence[str],
                context: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(
            f"unknown {context} keys: {', '.join(sorted(unknown))}; "
            f"allowed: {', '.join(allowed)}")


def _mix_seed(seed: int, salt: int) -> int:
    """Derive an independent sub-seed (splitmix64 finalizer)."""
    mixed = (seed + 0x9E3779B97F4A7C15 * (salt + 1)) & (2 ** 64 - 1)
    mixed ^= mixed >> 30
    mixed = (mixed * 0xBF58476D1CE4E5B9) & (2 ** 64 - 1)
    mixed ^= mixed >> 27
    mixed = (mixed * 0x94D049BB133111EB) & (2 ** 64 - 1)
    return mixed ^ (mixed >> 31)


def _mix_scalar(value: int) -> int:
    return int(_mix64(np.array([value], dtype=np.uint64))[0])


# ----------------------------------------------------------------------
# Config schema
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AliasingSpec:
    """Adversarial hash-aliasing injection.

    ``rate`` of the stream is replaced by uniform draws from a cluster
    of ``cluster`` distinct tuples engineered (offline, deterministic)
    to share one table index under hash function ``ordinal`` of the
    ``(index_bits, hash_seed)`` family -- i.e. the exact function a
    single-hash profiler with ``2**index_bits`` counters and that seed
    would use.
    """

    rate: float = 0.0
    cluster: int = 16
    index_bits: int = 11
    hash_seed: int = 0x5EED
    ordinal: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"aliasing rate must be in [0, 1), got "
                             f"{self.rate}")
        if self.cluster < 1:
            raise ValueError(f"aliasing cluster must be >= 1, got "
                             f"{self.cluster}")
        if not 1 <= self.index_bits <= 24:
            raise ValueError(f"aliasing index_bits must be in [1, 24], "
                             f"got {self.index_bits}")
        if self.ordinal < 0:
            raise ValueError(f"aliasing ordinal must be >= 0, got "
                             f"{self.ordinal}")

    def to_dict(self) -> Dict[str, Any]:
        return {"rate": self.rate, "cluster": self.cluster,
                "index_bits": self.index_bits,
                "hash_seed": self.hash_seed, "ordinal": self.ordinal}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AliasingSpec":
        _check_keys(data, ["rate", "cluster", "index_bits", "hash_seed",
                           "ordinal"], "inject.aliasing")
        return cls(**{key: value for key, value in data.items()})


@dataclass(frozen=True)
class HeavyTailSpec:
    """Zipf-weighted tuple population claiming ``rate`` of the stream."""

    rate: float = 0.0
    pool: int = 256
    alpha: float = 1.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ValueError(f"heavy_tail rate must be in [0, 1), got "
                             f"{self.rate}")
        if self.pool < 1:
            raise ValueError(f"heavy_tail pool must be >= 1, got "
                             f"{self.pool}")
        if self.alpha <= 0.0:
            raise ValueError(f"heavy_tail alpha must be positive, got "
                             f"{self.alpha}")

    def to_dict(self) -> Dict[str, Any]:
        return {"rate": self.rate, "pool": self.pool, "alpha": self.alpha}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HeavyTailSpec":
        _check_keys(data, ["rate", "pool", "alpha"], "inject.heavy_tail")
        return cls(**{key: value for key, value in data.items()})


@dataclass(frozen=True)
class BurstSpec:
    """Rare-event bursts: every ~``every`` events (exponential gaps), a
    fresh tuple identity repeats for ``length`` consecutive events.
    ``every == 0`` disables bursts."""

    every: int = 0
    length: int = 256

    def __post_init__(self) -> None:
        if self.every < 0:
            raise ValueError(f"bursts every must be >= 0, got "
                             f"{self.every}")
        if self.length < 1:
            raise ValueError(f"bursts length must be >= 1, got "
                             f"{self.length}")

    def to_dict(self) -> Dict[str, Any]:
        return {"every": self.every, "length": self.length}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BurstSpec":
        _check_keys(data, ["every", "length"], "inject.bursts")
        return cls(**{key: value for key, value in data.items()})


#: StreamSpec fields forwarded verbatim to :class:`StreamModel`.
_MODEL_FIELDS = ("recurring_mass", "recurring_pool", "num_phases",
                 "phase_length", "phase_overlap", "phase_drift",
                 "burstiness", "fresh_pc_count")

#: Explicit-model defaults for omitted StreamSpec fields.
_MODEL_DEFAULTS = {
    "recurring_mass": 0.3,
    "recurring_pool": 2048,
    "num_phases": 1,
    "phase_length": 1_000_000,
    "phase_overlap": 0.5,
    "phase_drift": 1.0,
    "burstiness": 0.0,
    "fresh_pc_count": 32,
}

_DEFAULT_BANDS = ({"count": 8, "top_share": 0.03, "bottom_share": 0.011},)


@dataclass(frozen=True)
class StreamSpec:
    """The base tuple population of a scenario.

    Either names a calibrated ``benchmark`` model (in which case only
    ``phase_drift`` may additionally be set -- it is grafted onto the
    calibrated model) or describes an explicit
    :class:`~repro.workloads.generators.StreamModel` via ``bands`` and
    the ``_MODEL_FIELDS``; omitted fields take :data:`_MODEL_DEFAULTS`.
    """

    benchmark: Optional[str] = None
    bands: Optional[Tuple[Mapping[str, Any], ...]] = None
    recurring_mass: Optional[float] = None
    recurring_pool: Optional[int] = None
    num_phases: Optional[int] = None
    phase_length: Optional[int] = None
    phase_overlap: Optional[float] = None
    phase_drift: Optional[float] = None
    burstiness: Optional[float] = None
    fresh_pc_count: Optional[int] = None

    def __post_init__(self) -> None:
        if self.bands is not None:
            object.__setattr__(self, "bands", tuple(
                dict(band) for band in self.bands))
        if self.benchmark is not None:
            fixed = [name for name in ("bands",) + _MODEL_FIELDS
                     if name != "phase_drift"
                     and getattr(self, name) is not None]
            if fixed:
                raise ValueError(
                    f"stream.benchmark={self.benchmark!r} uses the "
                    f"calibrated model; only phase_drift may be "
                    f"overridden, not: {', '.join(fixed)}")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if self.benchmark is not None:
            data["benchmark"] = self.benchmark
        if self.bands is not None:
            data["bands"] = [dict(band) for band in self.bands]
        for name in _MODEL_FIELDS:
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StreamSpec":
        _check_keys(data, ["benchmark", "bands"] + list(_MODEL_FIELDS),
                    "stream")
        kwargs: Dict[str, Any] = dict(data)
        if "bands" in kwargs and kwargs["bands"] is not None:
            kwargs["bands"] = tuple(dict(band) for band in kwargs["bands"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ProfilePoint:
    """The scenario's default profiling operating point."""

    interval_length: int = 10_000
    threshold: float = 0.01
    intervals: int = 8

    def __post_init__(self) -> None:
        # IntervalSpec validates length/threshold consistency.
        self.spec  # noqa: B018 - construction is the validation
        if self.intervals < 1:
            raise ValueError(f"profile intervals must be >= 1, got "
                             f"{self.intervals}")

    @property
    def spec(self):
        from ..core.config import IntervalSpec

        return IntervalSpec(self.interval_length, self.threshold)

    def to_dict(self) -> Dict[str, Any]:
        return {"interval_length": self.interval_length,
                "threshold": self.threshold,
                "intervals": self.intervals}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProfilePoint":
        _check_keys(data, ["interval_length", "threshold", "intervals"],
                    "profile")
        return cls(**{key: value for key, value in data.items()})


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully-specified, seeded stream scenario."""

    name: str
    description: str = ""
    kind: EventKind = EventKind.VALUE
    seed: int = 0
    stream: StreamSpec = field(default_factory=StreamSpec)
    aliasing: AliasingSpec = field(default_factory=AliasingSpec)
    heavy_tail: HeavyTailSpec = field(default_factory=HeavyTailSpec)
    bursts: BurstSpec = field(default_factory=BurstSpec)
    profile: ProfilePoint = field(default_factory=ProfilePoint)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        total = self.aliasing.rate + self.heavy_tail.rate
        if total > MAX_INJECT_RATE:
            raise ValueError(
                f"combined injection rate {total:.3f} exceeds "
                f"{MAX_INJECT_RATE} of the stream")
        # Building the model validates the stream spec eagerly, so a
        # bad config fails at load time, not first generation.
        build_stream_model(self.stream, self.kind, self.name, self.seed)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return replace(self, seed=seed)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "kind": self.kind.value,
            "seed": self.seed,
            "stream": self.stream.to_dict(),
            "inject": {"aliasing": self.aliasing.to_dict(),
                       "heavy_tail": self.heavy_tail.to_dict(),
                       "bursts": self.bursts.to_dict()},
            "profile": self.profile.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioConfig":
        _check_keys(data, ["name", "description", "kind", "seed",
                           "stream", "inject", "profile"], "scenario")
        if "name" not in data:
            raise ValueError("scenario config must carry a name")
        inject = data.get("inject", {})
        _check_keys(inject, ["aliasing", "heavy_tail", "bursts"],
                    "inject")
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            kind=EventKind(data.get("kind", EventKind.VALUE.value)),
            seed=int(data.get("seed", 0)),
            stream=StreamSpec.from_dict(data.get("stream", {})),
            aliasing=AliasingSpec.from_dict(inject.get("aliasing", {})),
            heavy_tail=HeavyTailSpec.from_dict(
                inject.get("heavy_tail", {})),
            bursts=BurstSpec.from_dict(inject.get("bursts", {})),
            profile=ProfilePoint.from_dict(data.get("profile", {})),
        )

    def canonical_json(self) -> str:
        """Stable serialized form -- the scenario's identity."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self) -> str:
        """SHA-256 of the canonical config (seed included): the trace
        store and result cache key component."""
        return hashlib.sha256(
            self.canonical_json().encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# YAML load / dump and the preset catalog
# ----------------------------------------------------------------------


def dump_scenario(config: ScenarioConfig) -> str:
    """Canonical YAML form; ``load_scenario_text`` inverts it exactly."""
    yaml = _require_yaml()
    return yaml.safe_dump(config.to_dict(), sort_keys=True,
                          default_flow_style=False)


def load_scenario_text(text: str) -> ScenarioConfig:
    """Parse one YAML document into a validated :class:`ScenarioConfig`."""
    yaml = _require_yaml()
    data = yaml.safe_load(text)
    if not isinstance(data, Mapping):
        raise ValueError("scenario YAML must be a mapping at top level")
    return ScenarioConfig.from_dict(data)


def list_presets() -> List[str]:
    """Names of the shipped preset configs."""
    if not os.path.isdir(PRESET_DIR):
        return []
    return sorted(os.path.splitext(entry)[0]
                  for entry in os.listdir(PRESET_DIR)
                  if entry.endswith(".yaml"))


def preset_path(name: str) -> str:
    path = os.path.join(PRESET_DIR, f"{name}.yaml")
    if not os.path.exists(path):
        raise ValueError(f"unknown scenario preset {name!r}; shipped "
                         f"presets: {', '.join(list_presets())}")
    return path


def resolve_scenario_path(ref: str) -> str:
    """*ref* is a YAML path or a shipped preset name."""
    if os.path.exists(ref):
        return ref
    if os.path.sep not in ref and not ref.endswith(".yaml"):
        return preset_path(ref)
    raise FileNotFoundError(f"no scenario config at {ref}")


def load_scenario(ref: str,
                  seed: Optional[int] = None) -> ScenarioConfig:
    """Load a scenario from a path or preset name, optionally reseeded."""
    with open(resolve_scenario_path(ref), "r", encoding="utf-8") as handle:
        config = load_scenario_text(handle.read())
    return config if seed is None else config.with_seed(seed)


# ----------------------------------------------------------------------
# Model composition
# ----------------------------------------------------------------------


def build_stream_model(spec: StreamSpec, kind: EventKind, name: str,
                       seed: int = 0) -> StreamModel:
    """The base :class:`StreamModel` a scenario generates from."""
    if spec.benchmark is not None:
        model = benchmark_model(spec.benchmark, kind)
        overrides: Dict[str, Any] = {"name": name, "seed": seed}
        if spec.phase_drift is not None:
            overrides["phase_drift"] = spec.phase_drift
        return replace(model, **overrides)
    band_specs = spec.bands if spec.bands is not None else _DEFAULT_BANDS
    bands = []
    for band in band_specs:
        _check_keys(band, ["count", "top_share", "bottom_share"],
                    "stream.bands entry")
        bands.append(HotBand(count=int(band["count"]),
                             top_share=float(band["top_share"]),
                             bottom_share=float(band["bottom_share"])))
    kwargs = {field_name: (getattr(spec, field_name)
                           if getattr(spec, field_name) is not None
                           else _MODEL_DEFAULTS[field_name])
              for field_name in _MODEL_FIELDS}
    return StreamModel(name=name, kind=kind, bands=tuple(bands),
                       seed=seed, **kwargs)


@lru_cache(maxsize=64)
def alias_cluster(spec: AliasingSpec) -> Tuple[np.ndarray, np.ndarray]:
    """``cluster`` distinct tuples sharing one fold-table index.

    The search is deterministic: candidate tuples are enumerated from a
    fixed sequence (four alias PCs, splitmix64 values) and kept when
    the target hash function maps them to the index of candidate 0.
    Expected scan length is ``cluster * 2**index_bits`` candidates;
    each batch is hashed by ``TupleHashFunction.index_array``, one
    gather per byte position the fields use.
    """
    function = HashFunctionFamily(spec.index_bits,
                                  spec.hash_seed)[spec.ordinal]
    batch = 1 << 14
    limit = max(batch, spec.cluster * function.table_size * 64)
    found_pcs: List[np.ndarray] = []
    found_values: List[np.ndarray] = []
    found = 0
    target = None
    ordinal = 0
    while found < spec.cluster:
        if ordinal >= limit:  # pragma: no cover - statistical safety net
            raise RuntimeError(
                f"alias search exhausted {limit} candidates for "
                f"{spec.cluster} collisions at {spec.index_bits} bits")
        ordinals = np.arange(ordinal, ordinal + batch, dtype=np.uint64)
        pcs = (np.uint64(ALIAS_PC_BASE)
               + np.uint64(8) * (ordinals % np.uint64(4)))
        values = _mix64(ordinals + np.uint64(1 << 36))
        indices = function.index_array(pcs, values)
        if target is None:
            target = int(indices[0])
        mask = indices == target
        found_pcs.append(pcs[mask])
        found_values.append(values[mask])
        found += int(mask.sum())
        ordinal += batch
    pcs = np.concatenate(found_pcs)[:spec.cluster].copy()
    values = np.concatenate(found_values)[:spec.cluster].copy()
    pcs.setflags(write=False)
    values.setflags(write=False)
    return pcs, values


# ----------------------------------------------------------------------
# The stream
# ----------------------------------------------------------------------


class ScenarioStream:
    """Deterministic chunked event source for one scenario.

    Wraps the base :class:`TupleStreamGenerator` and overlays the
    injection knobs chunk-wise.  Exposes the same ``chunk(count)``
    protocol as the generator, so sessions, the trace store, the JSONL
    emitter and the profile service client all consume scenarios
    through one path.  Like the base generator, the exact event
    sequence depends on the pattern of ``chunk`` sizes; replay paths
    therefore standardize on the profiling session's chunk pattern
    (see :func:`session_chunks`).
    """

    def __init__(self, config: ScenarioConfig,
                 seed: Optional[int] = None) -> None:
        self.config = config if seed is None else config.with_seed(seed)
        self.seed = self.config.seed
        model = build_stream_model(self.config.stream, self.config.kind,
                                   self.config.name, self.seed)
        self.model = model
        self._base = TupleStreamGenerator(model, seed=self.seed)
        if self.config.aliasing.rate > 0.0:
            self._alias_pcs, self._alias_values = alias_cluster(
                self.config.aliasing)
        heavy = self.config.heavy_tail
        if heavy.rate > 0.0:
            ranks = np.arange(1, heavy.pool + 1, dtype=np.float64)
            weights = ranks ** -heavy.alpha
            self._heavy_weights = weights / weights.sum()
            pc_modulus = max(1, heavy.pool // 4)
            identities = np.arange(heavy.pool, dtype=np.uint64)
            self._heavy_pcs = (np.uint64(HEAVY_PC_BASE) + np.uint64(8)
                               * (identities % np.uint64(pc_modulus)))
            self._heavy_values = _mix64(identities + np.uint64(1 << 37))
        self.reset()

    @property
    def kind(self) -> EventKind:
        return self.config.kind

    def reset(self) -> None:
        """Rewind to the start of the stream."""
        self._base.reset()
        self._rng = np.random.default_rng(_mix_seed(self.seed, 0xA11A5))
        self._burst_rng = np.random.default_rng(
            _mix_seed(self.seed, 0xB0057))
        self._position = 0
        self._burst_remaining = 0
        self._burst_pc = 0
        self._burst_value = 0
        self._burst_counter = 0
        bursts = self.config.bursts
        self._next_burst = (self._draw_gap() if bursts.every else None)

    def _draw_gap(self) -> int:
        return max(1, int(self._burst_rng.exponential(
            self.config.bursts.every)))

    def chunk(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Generate the next *count* events as ``(pcs, values)``."""
        pcs, values = self._base.chunk(count)
        alias_rate = self.config.aliasing.rate
        heavy_rate = self.config.heavy_tail.rate
        if alias_rate or heavy_rate:
            u = self._rng.random(count)
            if alias_rate:
                mask = u < alias_rate
                picks = int(mask.sum())
                if picks:
                    members = self._rng.integers(len(self._alias_pcs),
                                                 size=picks)
                    pcs[mask] = self._alias_pcs[members]
                    values[mask] = self._alias_values[members]
            if heavy_rate:
                mask = (u >= alias_rate) & (u < alias_rate + heavy_rate)
                picks = int(mask.sum())
                if picks:
                    members = self._rng.choice(
                        len(self._heavy_weights), size=picks,
                        p=self._heavy_weights)
                    pcs[mask] = self._heavy_pcs[members]
                    values[mask] = self._heavy_values[members]
        if self.config.bursts.every:
            self._overlay_bursts(pcs, values)
        self._position += count
        return pcs, values

    def _overlay_bursts(self, pcs: np.ndarray,
                        values: np.ndarray) -> None:
        """Overwrite burst windows with their burst tuple, carrying
        partially-consumed bursts across chunk boundaries."""
        count = len(pcs)
        offset = 0
        while offset < count:
            if self._burst_remaining:
                take = min(self._burst_remaining, count - offset)
                pcs[offset:offset + take] = self._burst_pc
                values[offset:offset + take] = self._burst_value
                self._burst_remaining -= take
                offset += take
                continue
            start = self._next_burst - self._position
            if start >= count:
                break
            offset = max(offset, start)
            self._burst_counter += 1
            ident = self._burst_counter
            self._burst_pc = int(BURST_PC_BASE + 8 * (ident % 64))
            self._burst_value = _mix_scalar(ident + (1 << 38))
            self._burst_remaining = self.config.bursts.length
            self._next_burst += (self.config.bursts.length
                                 + self._draw_gap())

    def events(self, count: int,
               chunk_size: int = 1 << 16) -> Iterator[Tuple[int, int]]:
        """Yield the next *count* events as Python ``(pc, value)``."""
        remaining = count
        while remaining > 0:
            size = min(remaining, chunk_size)
            pcs, values = self.chunk(size)
            yield from zip(pcs.tolist(), values.tolist())
            remaining -= size


# ----------------------------------------------------------------------
# Emission
# ----------------------------------------------------------------------


def session_chunks(stream, interval_length: int, num_intervals: int,
                   chunk_events: Optional[int] = None
                   ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Pieces in the exact pattern :class:`ProfilingSession` reads.

    Both the trace store and the JSONL emitter generate through this
    single pattern, so a materialized/emitted scenario replays
    bit-identically to feeding the live stream to a session.
    """
    if chunk_events is None:
        from ..profiling.session import CHUNK_EVENTS

        chunk_events = CHUNK_EVENTS
    for _ in range(num_intervals):
        pending = 0
        while pending < interval_length:
            take = min(chunk_events, interval_length - pending)
            yield stream.chunk(take)
            pending += take


def jsonl_lines(config: ScenarioConfig,
                num_intervals: Optional[int] = None) -> Iterator[str]:
    """The scenario's JSONL emission: one meta line, then one compact
    ``{"pc": ..., "value": ...}`` object per event."""
    intervals = (config.profile.intervals if num_intervals is None
                 else num_intervals)
    length = config.profile.interval_length
    meta = {"scenario": config.name, "kind": config.kind.value,
            "seed": config.seed, "interval_length": length,
            "intervals": intervals, "events": intervals * length,
            "config_sha256": config.fingerprint()}
    yield json.dumps(meta, sort_keys=True, separators=(",", ":"))
    stream = ScenarioStream(config)
    for pcs, values in session_chunks(stream, length, intervals):
        for pc, value in zip(pcs.tolist(), values.tolist()):
            yield f'{{"pc":{pc},"value":{value}}}'


def write_jsonl(config: ScenarioConfig, path: str,
                num_intervals: Optional[int] = None) -> int:
    """Atomically write the scenario's JSONL stream; returns the event
    count.  Uses the same atomic-write helper as the bench JSON
    writers, so a crashed emission never leaves a torn file."""
    from ..ioutil import atomic_write_text

    lines = list(jsonl_lines(config, num_intervals))
    atomic_write_text(path, "\n".join(lines) + "\n")
    return len(lines) - 1
