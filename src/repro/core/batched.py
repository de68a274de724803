"""Issue and count the compiled loop's kernel calls.

A session's feeder hands the ``(profiler, pcs, values)`` requests of
its compiled-loop profilers for each interval-bounded piece to
:meth:`BatchedKernelRunner.dispatch`.  The profile service's shard
worker folds a tick through :func:`~repro.profiling.session.feed_many`:
it feeds its streams in turn, one compiled-loop call
(:mod:`repro.core.kernels`) per interval-bounded piece of each stream,
all issued by one runner.  :attr:`BatchedKernelRunner.dispatches`
counts those calls, and the service worker reports them as
``kernel_dispatches``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .base import HardwareProfiler

#: One request: a profiler plus its pending chunk.
BatchRequest = Tuple[HardwareProfiler, np.ndarray, np.ndarray]


class BatchedKernelRunner:
    """Issue a piece's kernel calls and count them."""

    def __init__(self) -> None:
        #: Kernel calls issued, cumulative.
        self.dispatches = 0

    def dispatch(self, requests: Sequence[BatchRequest]) -> None:
        """Feed every request's chunk to its profiler, in order; empty
        chunks are skipped."""
        for profiler, pcs, values in requests:
            if len(pcs):
                profiler.observe_array_chunk(pcs, values)
                self.dispatches += 1
