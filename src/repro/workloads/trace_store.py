"""Shared on-disk store of materialized benchmark streams.

Every experiment replays the same deterministic per-benchmark streams,
and the suite used to regenerate them from scratch for each experiment
(and, with the parallel fabric, would regenerate them in every worker
process).  The store materializes each stream **once** per
``(benchmark, kind, interval length, seed)`` as plain ``.npy`` files
under a cache directory and replays it memory-mapped, so workers share
pages instead of each paying generation and a private copy.

Chunk-pattern fidelity
----------------------

Stream generation is *not* chunk-pattern independent: the generator
fills the hot/recurring/fresh populations per chunk, so the order in
which random variates are consumed -- and therefore the exact event
sequence -- depends on the sizes of the ``chunk()`` calls.  The
profiling session reads a source in pieces of
``min(CHUNK_EVENTS, interval_length - pending)``.  The store
materializes traces with **exactly that pattern**, which makes replay
through :class:`~repro.profiling.session.ProfilingSession`
bit-identical to feeding the live generator -- the property the
fabric's parity guarantee rests on.  The pattern is per-interval, which
is why the interval length is part of the key, and why a trace
materialized for ``n`` intervals is a valid prefix-exact substitute for
any run of ``<= n`` intervals at the same interval length.

Files are written atomically (temp file + ``os.replace``), so
concurrent workers racing to materialize the same stream both succeed
and agree on content.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.tuples import EventKind
from .benchmarks import benchmark_generator, benchmark_targets
from .traces import Trace

#: Environment variable naming the cache root (traces live in a
#: ``traces/`` subdirectory of it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> str:
    """The cache root: ``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    configured = os.environ.get(CACHE_DIR_ENV)
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _session_chunk_events() -> int:
    # Imported lazily: profiling.session imports repro.workloads
    # modules, so a top-level import here would be circular.
    from ..profiling.session import CHUNK_EVENTS

    return CHUNK_EVENTS


@dataclass(frozen=True)
class TraceKey:
    """Identity of one materialized stream."""

    benchmark: str
    kind: EventKind
    interval_length: int
    seed: int

    @property
    def stem(self) -> str:
        return (f"{self.benchmark}-{self.kind.value}"
                f"-L{self.interval_length}-S{self.seed}")


@dataclass(frozen=True)
class ScenarioKey:
    """Identity of one materialized scenario stream.

    Keyed on the **full scenario fingerprint** -- the SHA-256 of the
    canonical config, which includes the seed -- plus the chunk
    pattern (interval length and session chunk size).  Benchmark
    streams key on ``(name, kind, length, seed)`` alone; a scenario
    wrapping the same base model produces a *different* event stream,
    so sharing those keys would let scenario streams alias cached
    benchmark streams.  The ``scenario-`` stem prefix and the config
    hash make the two namespaces disjoint.
    """

    fingerprint: str
    kind: EventKind
    interval_length: int
    chunk_events: int

    @property
    def stem(self) -> str:
        return (f"scenario-{self.fingerprint[:20]}-{self.kind.value}"
                f"-L{self.interval_length}-C{self.chunk_events}")


class TraceStore:
    """Materialize-once, replay-memory-mapped benchmark streams.

    Parameters
    ----------
    directory:
        Where trace files live; created on first write.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def _paths(self, key: TraceKey) -> tuple:
        stem = os.path.join(self.directory, key.stem)
        return f"{stem}.pcs.npy", f"{stem}.values.npy"

    def resolve_seed(self, benchmark: str, kind: EventKind,
                     seed: Optional[int]) -> int:
        """The effective generator seed (targets carry a default)."""
        if seed is not None:
            return seed
        return benchmark_targets(benchmark, kind).seed

    def stored_intervals(self, key: TraceKey) -> int:
        """Whole intervals available in the stored trace (0 if absent)."""
        pcs_path, values_path = self._paths(key)
        if not (os.path.exists(pcs_path) and os.path.exists(values_path)):
            return 0
        try:
            pcs = np.load(pcs_path, mmap_mode="r")
        except (ValueError, OSError):
            return 0
        return pcs.shape[0] // key.interval_length

    def get(self, benchmark: str, kind: EventKind, interval_length: int,
            num_intervals: int, seed: Optional[int] = None) -> Trace:
        """A memory-mapped trace of at least *num_intervals* intervals.

        Materializes (or extends, by regenerating -- the stream is a
        deterministic prefix) the stored file when it is missing or too
        short.
        """
        key = TraceKey(benchmark=benchmark, kind=kind,
                       interval_length=interval_length,
                       seed=self.resolve_seed(benchmark, kind, seed))
        if self.stored_intervals(key) < num_intervals:
            self._materialize(key, num_intervals)
        trace = self._load(key)
        needed = interval_length * num_intervals
        if len(trace) > needed:
            trace = trace.slice(0, needed)
        return trace

    def get_scenario(self, config, num_intervals: Optional[int] = None,
                     chunk_events: Optional[int] = None) -> Trace:
        """A memory-mapped trace of a scenario stream.

        *config* is a :class:`~repro.workloads.scenarios.ScenarioConfig`;
        the stored file is keyed on its full fingerprint (config
        SHA-256, seed included) plus the chunk pattern, so distinct
        scenarios -- and scenarios vs. plain benchmarks -- never share
        a cache entry.  Defaults to the scenario's own profile point.
        """
        from .scenarios import ScenarioStream, session_chunks

        if num_intervals is None:
            num_intervals = config.profile.intervals
        if chunk_events is None:
            chunk_events = _session_chunk_events()
        interval_length = config.profile.interval_length
        key = ScenarioKey(fingerprint=config.fingerprint(),
                          kind=config.kind,
                          interval_length=interval_length,
                          chunk_events=chunk_events)
        if self.stored_intervals(key) < num_intervals:
            stream = ScenarioStream(config)
            self._store_pieces(key, session_chunks(
                stream, interval_length, num_intervals, chunk_events))
        trace = self._load(key, source=f"scenario:{config.name}")
        needed = interval_length * num_intervals
        if len(trace) > needed:
            trace = trace.slice(0, needed)
        return trace

    def _load(self, key, source: Optional[str] = None) -> Trace:
        pcs_path, values_path = self._paths(key)
        if source is None:
            source = f"benchmark:{key.benchmark}"
        return Trace(pcs=np.load(pcs_path, mmap_mode="r"),
                     values=np.load(values_path, mmap_mode="r"),
                     kind=key.kind,
                     source=source)

    def _materialize(self, key: TraceKey, num_intervals: int) -> None:
        """Generate and atomically store *num_intervals* intervals."""
        chunk_events = _session_chunk_events()
        generator = benchmark_generator(key.benchmark, key.kind, key.seed)
        pieces = []
        for _ in range(num_intervals):
            pending = 0
            while pending < key.interval_length:
                take = min(chunk_events, key.interval_length - pending)
                pieces.append(generator.chunk(take))
                pending += take
        self._store_pieces(key, pieces)

    def _store_pieces(self, key, pieces) -> None:
        pieces = list(pieces)
        pcs = np.concatenate([piece_pcs for piece_pcs, _ in pieces])
        values = np.concatenate([piece_values for _, piece_values in pieces])
        os.makedirs(self.directory, exist_ok=True)
        pcs_path, values_path = self._paths(key)
        # values first: readers gate on the pcs file, so a reader that
        # sees new pcs is guaranteed to see at-least-as-new values.
        self._atomic_save(values_path, values)
        self._atomic_save(pcs_path, pcs)

    def _atomic_save(self, path: str, array: np.ndarray) -> None:
        handle, temp_path = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp.npy")
        try:
            with os.fdopen(handle, "wb") as sink:
                np.lib.format.write_array(sink, array)
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
