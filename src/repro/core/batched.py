"""The kernel calls of one round of pieces, issued and counted.

Code holding pieces for several profilers at once -- a session's
feeder, or the profile service's shard worker folding many streams
through :func:`~repro.profiling.session.feed_many` -- collects each
round's ``(profiler, pcs, values)`` requests for the compiled-loop
profilers and hands them to :meth:`BatchedKernelRunner.dispatch`.
Each non-empty request is one call into the compiled loop
(:mod:`repro.core.kernels`); :attr:`BatchedKernelRunner.dispatches`
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
    """Issue a round's kernel calls and count them."""

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
