"""Profiler configuration objects.

Two parameters drive the whole interval-based design (Section 5.1):

* the **profile interval length** -- the number of profiling events per
  interval, and
* the **candidate threshold** -- the fraction of the interval length an
  event must reach to be promoted into the accumulator table.

Together they bound the accumulator table: at most
``floor(1 / threshold)`` distinct tuples can each account for at least
``threshold`` of an interval, so an accumulator of that many entries can
never overflow with true candidates (Section 5.1).  The paper's two
standard operating points are exposed as :data:`SHORT_INTERVAL`
(10,000 events at 1 %) and :data:`LONG_INTERVAL` (1,000,000 events at
0.1 %).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping

#: Hash-table counter width used throughout the paper's evaluation:
#: "2K entries of 3 byte counters" (Section 7).
DEFAULT_COUNTER_BITS = 24

#: Total number of hash-table counters in the paper's evaluation.
DEFAULT_TOTAL_ENTRIES = 2048

#: Valid :attr:`ProfilerConfig.backend` values.  ``vectorized`` is the
#: compiled per-event loop (:mod:`repro.core.kernels`), ``scalar`` the
#: Python reference; ``auto`` defers to the ``REPRO_BACKEND``
#: environment variable and otherwise takes the compiled loop when it
#: can be built, else the scalar classes.
BACKENDS = ("auto", "scalar", "vectorized")

#: Environment variable consulted by ``backend="auto"``; lets CI run
#: the whole suite under either backend without touching configs.
BACKEND_ENV = "REPRO_BACKEND"


@dataclass(frozen=True)
class IntervalSpec:
    """A profiling operating point: interval length plus threshold.

    Attributes
    ----------
    length:
        Number of profiling events per interval.
    threshold:
        Candidate threshold as a fraction of the interval length
        (``0.01`` means an event is a candidate when it accounts for at
        least 1 % of the interval).
    """

    length: int
    threshold: float

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"interval length must be positive, "
                             f"got {self.length}")
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], "
                             f"got {self.threshold}")
        if self.threshold * self.length < 1.0:
            raise ValueError(
                f"threshold {self.threshold} is below one event per "
                f"interval of length {self.length}")

    @property
    def threshold_count(self) -> int:
        """Occurrences needed within one interval to become a candidate."""
        return max(1, math.ceil(self.threshold * self.length))

    @property
    def max_candidates(self) -> int:
        """Worst-case number of candidates in one interval.

        At most ``floor(length / threshold_count)`` tuples can each occur
        ``threshold_count`` times within ``length`` events.
        """
        return self.length // self.threshold_count

    def scaled(self, factor: float) -> "IntervalSpec":
        """Return a spec with the interval length scaled by *factor*.

        The threshold fraction is preserved, so the candidate structure
        (how many tuples cross, relative counts) is unchanged; only the
        absolute counts shrink.  Used by the fast test configurations.
        """
        return IntervalSpec(max(1, int(self.length * factor)),
                            self.threshold)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe) for manifests and wire protocols."""
        return {"length": self.length, "threshold": self.threshold}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IntervalSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        unknown = set(data) - {"length", "threshold"}
        if unknown:
            raise ValueError(f"unknown IntervalSpec keys: "
                             f"{', '.join(sorted(unknown))}")
        return cls(length=int(data["length"]),
                   threshold=float(data["threshold"]))


#: 10,000-event intervals with a 1 % candidate threshold -- the paper's
#: "responsiveness" configuration (100 occurrences to become a candidate,
#: at most 100 candidates, 100-entry accumulator).
SHORT_INTERVAL = IntervalSpec(length=10_000, threshold=0.01)

#: 1,000,000-event intervals with a 0.1 % candidate threshold -- the
#: paper's "severe pressure" configuration (1,000 occurrences, up to
#: 1,000 candidates, 1,000-entry accumulator).
LONG_INTERVAL = IntervalSpec(length=1_000_000, threshold=0.001)


@dataclass(frozen=True)
class ProfilerConfig:
    """Full configuration of a hardware profiler instance.

    The paper's configuration shorthand maps onto flags as follows:

    * ``P0``/``P1`` -- :attr:`retaining` off/on (Section 5.4.1),
    * ``R0``/``R1`` -- :attr:`resetting` off/on (Sections 5.4.2, 6.1),
    * ``C0``/``C1`` -- :attr:`conservative_update` off/on (Section 6.1,
      multi-hash only),
    * the number of hash tables ``n`` -- :attr:`num_tables` (1 for the
      single-hash architecture of Section 5).

    ``total_entries`` counters are split evenly over the tables, exactly
    as in the paper's design-space study ("a multi-hash profiler with n
    hash-tables will have 2K/n entries in each hash-table").
    """

    interval: IntervalSpec = SHORT_INTERVAL
    total_entries: int = DEFAULT_TOTAL_ENTRIES
    num_tables: int = 1
    counter_bits: int = DEFAULT_COUNTER_BITS
    retaining: bool = True
    resetting: bool = False
    conservative_update: bool = False
    shielding: bool = True
    accumulator_entries: int | None = None
    hash_seed: int = 0x5EED
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {', '.join(BACKENDS)}, "
                f"got {self.backend!r}")
        if self.num_tables < 1:
            raise ValueError(f"num_tables must be >= 1, "
                             f"got {self.num_tables}")
        if self.total_entries < self.num_tables:
            raise ValueError(
                f"total_entries ({self.total_entries}) must cover at "
                f"least one counter per table ({self.num_tables})")
        if self.counter_bits < 1:
            raise ValueError(f"counter_bits must be positive, "
                             f"got {self.counter_bits}")
        per_table = self.total_entries // self.num_tables
        if per_table & (per_table - 1):
            raise ValueError(
                f"entries per table must be a power of two for the "
                f"xor-fold index, got {per_table} "
                f"({self.total_entries} over {self.num_tables} tables)")

    @property
    def entries_per_table(self) -> int:
        """Counters in each of the :attr:`num_tables` hash tables."""
        return self.total_entries // self.num_tables

    @property
    def index_bits(self) -> int:
        """Index width addressing one hash table."""
        return self.entries_per_table.bit_length() - 1

    @property
    def accumulator_capacity(self) -> int:
        """Accumulator entries; defaults to the worst-case candidate count."""
        if self.accumulator_entries is not None:
            return self.accumulator_entries
        return self.interval.max_candidates

    @property
    def requested_backend(self) -> str:
        """The backend asked for: ``scalar`` or ``vectorized`` when this
        config or :data:`BACKEND_ENV` names one, else ``auto``.

        An ``auto`` profiler is built on the compiled loop when it can
        be built and on the scalar classes otherwise; ask the profiler
        (:attr:`~repro.core.base.HardwareProfiler.backend`) which one
        it got.  Deterministic per process, so a session's profilers
        all resolve the same way.
        """
        if self.backend != "auto":
            return self.backend
        value = os.environ.get(BACKEND_ENV) or "auto"
        if value not in BACKENDS:
            raise ValueError(
                f"{BACKEND_ENV} must be one of {', '.join(BACKENDS)}, "
                f"got {value!r}")
        return value

    def with_backend(self, backend: str) -> "ProfilerConfig":
        """Copy of this config pinned to a backend."""
        return replace(self, backend=backend)

    @property
    def label(self) -> str:
        """The paper's shorthand, e.g. ``MH4-C1-R0-P1`` or ``SH-R1-P1``."""
        prefix = "SH" if self.num_tables == 1 else f"MH{self.num_tables}"
        parts = [prefix]
        if self.num_tables > 1:
            parts.append(f"C{int(self.conservative_update)}")
        parts.append(f"R{int(self.resetting)}")
        parts.append(f"P{int(self.retaining)}")
        return "-".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe) suitable for experiment manifests
        and the service wire protocol.  Round-trips exactly through
        :meth:`from_dict`."""
        data: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            data[spec_field.name] = (value.to_dict()
                                     if isinstance(value, IntervalSpec)
                                     else value)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ProfilerConfig":
        """Inverse of :meth:`to_dict`.

        Missing keys fall back to the dataclass defaults; unknown keys
        are rejected so version skew between a client and server fails
        loudly instead of silently dropping a flag.
        """
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ProfilerConfig keys: "
                             f"{', '.join(sorted(unknown))}")
        kwargs: Dict[str, Any] = dict(data)
        if "interval" in kwargs:
            interval = kwargs["interval"]
            if isinstance(interval, Mapping):
                interval = IntervalSpec.from_dict(interval)
            kwargs["interval"] = interval
        return cls(**kwargs)

    def with_tables(self, num_tables: int) -> "ProfilerConfig":
        """Copy of this config with a different hash-table count."""
        return replace(self, num_tables=num_tables)

    def with_interval(self, interval: IntervalSpec) -> "ProfilerConfig":
        """Copy of this config at a different operating point."""
        return replace(self, interval=interval)


def best_single_hash(interval: IntervalSpec = SHORT_INTERVAL,
                     total_entries: int = DEFAULT_TOTAL_ENTRIES,
                     **overrides) -> ProfilerConfig:
    """The paper's "best single hash" (BSH): P1, R1 (Section 5.6.2)."""
    return ProfilerConfig(interval=interval, total_entries=total_entries,
                          num_tables=1, retaining=True, resetting=True,
                          **overrides)


def best_multi_hash(interval: IntervalSpec = SHORT_INTERVAL,
                    num_tables: int = 4,
                    total_entries: int = DEFAULT_TOTAL_ENTRIES,
                    **overrides) -> ProfilerConfig:
    """The paper's best multi-hash configuration: C1, R0, retaining, 4
    tables (Section 6.4)."""
    return ProfilerConfig(interval=interval, total_entries=total_entries,
                          num_tables=num_tables, retaining=True,
                          resetting=False, conservative_update=True,
                          **overrides)
