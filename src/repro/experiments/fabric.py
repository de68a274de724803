"""Parallel experiment fabric: process fan-out plus result caching.

The evaluation suite is a large sweep: every figure replays the same
per-benchmark event streams through many profiler configurations.  The
fabric decomposes that work into independent **cells** -- one
``(benchmark, configuration set, operating point)`` unit each -- and

* schedules cells across a ``ProcessPoolExecutor`` (``--jobs N`` /
  ``REPRO_JOBS``),
* replays benchmark streams from the shared
  :class:`~repro.workloads.trace_store.TraceStore`, memory-mapped, so
  no stream is generated twice across experiments or processes, and
* memoizes finished cells in a **content-addressed result cache**
  keyed by a stable fingerprint of everything that determines a cell's
  output, so re-running the suite re-executes only cells whose inputs
  changed.

Parity guarantee
----------------

Results are **bit-identical** to the serial in-process path at any job
count (``tests/test_fabric.py``):

* streams are deterministic per seed and the trace store materializes
  them with the exact chunk pattern the profiling session uses, so a
  replayed trace equals the live generator event-for-event;
* cells are independent (each owns its profilers and stream cursor)
  and results are reassembled in submission order, so scheduling order
  cannot leak into reports;
* cell results travel as JSON-safe dicts (`ErrorSummary.to_dict`)
  whether they come from a worker, the cache, or an in-process run --
  one serialization path, and JSON round-trips floats exactly.

Experiments reach the fabric two ways: :func:`repro.experiments.sweeps.
sweep` routes its per-benchmark cells through :meth:`ExperimentFabric.
run_sweep` (JSON-cached), and experiments with bespoke per-benchmark
loops use :func:`fabric_map` (pickle-cached by function name +
payload).  Both are parallel and memoized.

With no active fabric everything falls back to the plain serial path,
so library users and existing tests see unchanged behaviour.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import __version__
from ..core.config import ProfilerConfig
from ..core.tuples import EventKind
from ..metrics.error import ErrorSummary

#: Environment variable giving the default worker-process count.
JOBS_ENV = "REPRO_JOBS"

#: Bumped whenever cell execution or serialization changes in a way
#: that invalidates previously cached results.
CACHE_SCHEMA = 1


#: Fewest pending cells worth paying process-pool dispatch for; below
#: this the fabric runs them in-process even when ``jobs > 1``.
MIN_POOL_CELLS = 3


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS``, else every available core."""
    configured = os.environ.get(JOBS_ENV)
    if configured:
        jobs = int(configured)
        if jobs < 1:
            raise ValueError(f"{JOBS_ENV} must be >= 1, got {jobs}")
        return jobs
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work.

    ``configs`` must already be pinned to concrete backends (no
    ``auto``) so worker processes cannot re-resolve them differently
    and the fingerprint names the backend that actually ran.
    """

    benchmark: str
    configs: Tuple[Tuple[str, ProfilerConfig], ...]
    num_intervals: int
    kind: EventKind
    seed: int

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(label for label, _ in self.configs)

    @property
    def interval_length(self) -> int:
        return self.configs[0][1].interval.length

    def manifest(self) -> Dict[str, object]:
        """Everything that determines this cell's output, JSON-safe."""
        return {
            "schema": CACHE_SCHEMA,
            "code": __version__,
            "benchmark": self.benchmark,
            "kind": self.kind.value,
            "seed": self.seed,
            "num_intervals": self.num_intervals,
            "configs": [[label, config.to_dict()]
                        for label, config in self.configs],
        }

    def fingerprint(self) -> str:
        """Stable content address of the cell."""
        payload = json.dumps(self.manifest(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def execute_sweep_cell(cell: SweepCell,
                       trace_directory: Optional[str]
                       ) -> Dict[str, Dict[str, object]]:
    """Run one cell to completion; the worker-side entry point.

    Returns ``{label: ErrorSummary.to_dict()}`` -- plain data, so the
    parent reassembles results identically whether a cell ran here, in
    another process, or came from the cache.
    """
    from ..profiling.session import ProfilingSession
    from ..workloads.benchmarks import benchmark_generator
    from ..workloads.trace_store import TraceStore

    if trace_directory is not None:
        source = TraceStore(trace_directory).get(
            cell.benchmark, cell.kind, cell.interval_length,
            cell.num_intervals, cell.seed)
    else:
        source = benchmark_generator(cell.benchmark, cell.kind, cell.seed)
    session = ProfilingSession([config for _, config in cell.configs])
    outcome = session.run(source, max_intervals=cell.num_intervals)
    return {label: result.summary.to_dict()
            for label, result in zip(cell.labels,
                                     outcome.results.values())}


def _timed_cell(cell: SweepCell, trace_directory: Optional[str]
                ) -> Tuple[Dict[str, Dict], float]:
    """Cell execution plus its own wall-clock, measured in the worker."""
    started = time.perf_counter()
    summaries = execute_sweep_cell(cell, trace_directory)
    return summaries, time.perf_counter() - started


class ResultCache:
    """Content-addressed store of finished sweep cells.

    Layout: ``<directory>/<fp[:2]>/<fp>.json`` holding the cell's
    manifest (for inspection) and its per-label summaries.  Writes are
    atomic, so concurrent suite runs can share a cache directory.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, fingerprint[:2],
                            f"{fingerprint}.json")

    def load(self, cell: SweepCell) -> Optional[Dict[str, Dict]]:
        path = self._path(cell.fingerprint())
        try:
            with open(path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
        except (OSError, ValueError):
            return None
        summaries = stored.get("summaries")
        if (not isinstance(summaries, dict)
                or set(summaries) != set(cell.labels)):
            return None
        return summaries

    def store(self, cell: SweepCell,
              summaries: Dict[str, Dict]) -> None:
        path = self._path(cell.fingerprint())
        payload = {"manifest": cell.manifest(), "summaries": summaries}
        self._atomic_write(path, json.dumps(payload, indent=1) + "\n")

    # -- mapped cells (arbitrary picklable outputs) --------------------

    def _mapped_path(self, fingerprint: str) -> str:
        return os.path.join(self.directory, "mapped", fingerprint[:2],
                            f"{fingerprint}.pkl")

    def load_mapped(self, fingerprint: str) -> Tuple[bool, object]:
        """``(found, value)`` -- the flag disambiguates a cached
        ``None`` from a miss."""
        try:
            with open(self._mapped_path(fingerprint), "rb") as handle:
                return True, pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            return False, None

    def store_mapped(self, fingerprint: str, value: object) -> None:
        self._atomic_write(self._mapped_path(fingerprint),
                           pickle.dumps(value, protocol=4))

    def _atomic_write(self, path: str, data) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        binary = isinstance(data, bytes)
        handle, temp_path = tempfile.mkstemp(dir=directory,
                                             suffix=".tmp")
        try:
            with os.fdopen(handle, "wb" if binary else "w",
                           **({} if binary
                              else {"encoding": "utf-8"})) as sink:
                sink.write(data)
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise


@dataclass
class FabricStats:
    """What a fabric did, for the runner's wall-clock summary."""

    sweep_cells: int = 0
    executed: int = 0
    cache_hits: int = 0
    mapped_cells: int = 0
    mapped_hits: int = 0
    cell_seconds: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {"sweep_cells": self.sweep_cells,
                "executed": self.executed,
                "cache_hits": self.cache_hits,
                "mapped_cells": self.mapped_cells,
                "mapped_hits": self.mapped_hits,
                "cell_seconds": round(self.cell_seconds, 3)}


class ExperimentFabric:
    """Cell scheduler: process pool + trace store + result cache.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` means :func:`default_jobs`.  With
        ``jobs=1`` cells run in-process (still through both caches).
    cache_dir:
        Root for ``traces/`` and ``results/``; ``None`` means
        :func:`~repro.workloads.trace_store.default_cache_dir`.
    use_result_cache:
        ``False`` (the ``--no-cache`` flag) disables reading *and*
        writing cell results; the trace store stays active (it is pure
        materialization, not memoization).
    refresh:
        ``True`` (the ``--refresh`` flag) ignores cached results but
        rewrites them from the fresh runs.
    progress:
        Optional callable receiving one human-readable line per
        finished cell.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None,
                 use_result_cache: bool = True,
                 refresh: bool = False,
                 progress: Optional[Callable[[str], None]] = None) -> None:
        from ..workloads.trace_store import TraceStore, default_cache_dir

        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs if jobs is not None else default_jobs()
        self.cache_dir = cache_dir or default_cache_dir()
        self.trace_store = TraceStore(os.path.join(self.cache_dir,
                                                   "traces"))
        self.result_cache = (ResultCache(os.path.join(self.cache_dir,
                                                      "results"))
                             if use_result_cache else None)
        self.refresh = refresh
        self.progress = progress
        #: Display context (the running experiment's name), set by the
        #: runner; purely cosmetic.
        self.context = ""
        self.stats = FabricStats()
        self._executor: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ExperimentFabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    def _report(self, line: str) -> None:
        if self.progress is not None:
            prefix = f"[{self.context}] " if self.context else ""
            self.progress(f"{prefix}{line}")

    # ------------------------------------------------------------------
    # Sweep cells (parallel + cached)
    # ------------------------------------------------------------------

    def run_sweep(self, benchmarks: Sequence[str],
                  configs: Sequence[Tuple[str, ProfilerConfig]],
                  num_intervals: int,
                  kind: EventKind
                  ) -> Dict[str, Dict[str, ErrorSummary]]:
        """Run every benchmark's cell; returns ``sweep()``'s shape."""
        pinned = tuple(
            (label, config.with_backend(config.requested_backend))
            for label, config in configs)
        cells = [SweepCell(benchmark=benchmark, configs=pinned,
                           num_intervals=num_intervals, kind=kind,
                           seed=self.trace_store.resolve_seed(
                               benchmark, kind, None))
                 for benchmark in benchmarks]
        self.stats.sweep_cells += len(cells)

        outputs: List[Optional[Dict[str, Dict]]] = [None] * len(cells)
        pending: List[int] = []
        for position, cell in enumerate(cells):
            cached = (self.result_cache.load(cell)
                      if self.result_cache is not None and not self.refresh
                      else None)
            if cached is not None:
                outputs[position] = cached
                self.stats.cache_hits += 1
                self._report(f"{cell.benchmark}: cached "
                             f"({len(cell.configs)} configs x "
                             f"{cell.num_intervals} intervals)")
            else:
                pending.append(position)

        if pending:
            # Materialize each needed stream once, up front, in the
            # parent: workers then only memory-map existing files, and
            # concurrent workers never race to generate the same trace.
            seen = set()
            for position in pending:
                cell = cells[position]
                key = (cell.benchmark, cell.kind, cell.interval_length,
                       cell.seed)
                if key not in seen:
                    seen.add(key)
                    self.trace_store.get(cell.benchmark, cell.kind,
                                         cell.interval_length,
                                         cell.num_intervals, cell.seed)
            self._execute_cells(cells, pending, outputs)

        return {cell.benchmark: {label: ErrorSummary.from_dict(summary)
                                 for label, summary
                                 in outputs[position].items()}
                for position, cell in enumerate(cells)}

    def _run_in_process(self, pending_count: int) -> bool:
        """True when a process pool cannot pay for itself.

        Worker fan-out only wins with real parallel hardware and
        enough pending cells to amortize spin-up; on a single-core box
        (CI runners, small containers) or for a near-empty batch the
        pool adds fork and pickling latency for zero overlap, so those
        runs stay in-process (still through both caches, still
        bit-identical).
        """
        return (self.jobs == 1
                or pending_count < MIN_POOL_CELLS
                or (os.cpu_count() or 1) <= 1)

    def _execute_cells(self, cells: List[SweepCell],
                       pending: List[int],
                       outputs: List[Optional[Dict]]) -> None:
        if self._run_in_process(len(pending)):
            for position in pending:
                summaries, seconds = _timed_cell(
                    cells[position], self.trace_store.directory)
                self._finish_cell(cells[position], summaries, seconds)
                outputs[position] = summaries
            return
        executor = self._ensure_executor()
        futures = {executor.submit(_timed_cell, cells[position],
                                   self.trace_store.directory): position
                   for position in pending}
        waiting = set(futures)
        while waiting:
            done, waiting = wait(waiting, return_when=FIRST_COMPLETED)
            for future in done:
                position = futures[future]
                summaries, seconds = future.result()
                self._finish_cell(cells[position], summaries, seconds)
                outputs[position] = summaries

    def _finish_cell(self, cell: SweepCell, summaries: Dict,
                     seconds: float) -> None:
        self.stats.executed += 1
        self.stats.cell_seconds += seconds
        if self.result_cache is not None:
            self.result_cache.store(cell, summaries)
        self._report(f"{cell.benchmark}: ran in {seconds:.1f}s "
                     f"({len(cell.configs)} configs x "
                     f"{cell.num_intervals} x "
                     f"{cell.interval_length:,}-event intervals)")

    # ------------------------------------------------------------------
    # Generic cells (parallel, uncached)
    # ------------------------------------------------------------------

    def map(self, function: Callable, payloads: Sequence) -> List:
        """Order-preserving parallel map over picklable payloads.

        Used by experiments whose per-benchmark loop bodies are not
        config sweeps; *function* must be a module-level callable.
        Results are memoized by a fingerprint of the function's
        qualified name plus the pickled payload (pickle round-trips
        values exactly, so cached results are bit-identical); a payload
        that does not pickle deterministically only costs a cache miss,
        never a wrong result.
        """
        payloads = list(payloads)
        self.stats.mapped_cells += len(payloads)
        results: List = [None] * len(payloads)
        fingerprints: List[Optional[str]] = [None] * len(payloads)
        pending: List[int] = []
        for position, payload in enumerate(payloads):
            fingerprint = (self._mapped_fingerprint(function, payload)
                           if self.result_cache is not None else None)
            fingerprints[position] = fingerprint
            if fingerprint is not None and not self.refresh:
                found, value = self.result_cache.load_mapped(fingerprint)
                if found:
                    results[position] = value
                    self.stats.mapped_hits += 1
                    continue
            pending.append(position)

        if pending:
            if self._run_in_process(len(pending)):
                fresh = [function(payloads[position])
                         for position in pending]
            else:
                executor = self._ensure_executor()
                fresh = list(executor.map(
                    function, [payloads[position]
                               for position in pending]))
            for position, value in zip(pending, fresh):
                results[position] = value
                if fingerprints[position] is not None:
                    self.result_cache.store_mapped(fingerprints[position],
                                                   value)
        return results

    @staticmethod
    def _mapped_fingerprint(function: Callable,
                            payload: object) -> Optional[str]:
        try:
            blob = pickle.dumps(
                (CACHE_SCHEMA, __version__, function.__module__,
                 function.__qualname__, payload), protocol=4)
        except Exception:
            return None  # unpicklable payload: run it, skip the cache
        return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# Ambient fabric
# ----------------------------------------------------------------------

_ACTIVE: Optional[ExperimentFabric] = None


def current_fabric() -> Optional[ExperimentFabric]:
    """The fabric experiments should route cells through, if any."""
    return _ACTIVE


@contextlib.contextmanager
def activate(fabric: ExperimentFabric):
    """Make *fabric* ambient for the duration of the block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = fabric
    try:
        yield fabric
    finally:
        _ACTIVE = previous


def fabric_map(function: Callable, payloads: Sequence) -> List:
    """Parallel map through the ambient fabric, else a serial loop."""
    fabric = current_fabric()
    if fabric is None:
        return [function(payload) for payload in payloads]
    return fabric.map(function, payloads)
