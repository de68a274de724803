"""Load generation for the profile service.

Named workload profiles (:mod:`repro.loadgen.profiles`) plus the
harness that drives them against an embedded
:class:`~repro.service.server.ProfileServer` and measures events/sec,
requests/sec, latency percentiles, and failure rates
(:mod:`repro.loadgen.harness`).  ``repro-profile loadgen`` and
``make bench-service`` are the front ends; the report lands in
``benchmarks/results/BENCH_service.json``.
"""

from .harness import profile_digest, run_profile
from .profiles import (HEADLINE_STREAMS, PROFILES, LoadProfile,
                       get_profile, list_profiles)

__all__ = [
    "HEADLINE_STREAMS",
    "LoadProfile",
    "PROFILES",
    "get_profile",
    "list_profiles",
    "profile_digest",
    "run_profile",
]
