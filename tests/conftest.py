"""Shared fixtures: small deterministic configs and streams.

Tests use scaled-down interval specs (hundreds to thousands of events)
so the suite stays fast; the mechanisms under test are identical at
every scale.
"""

from __future__ import annotations

import random

import pytest

from repro.core import kernels
from repro.core.config import IntervalSpec, ProfilerConfig


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden regression fixtures under tests/golden/ "
             "from the current implementation instead of comparing")


@pytest.fixture(scope="session")
def compiled_kernel():
    """Skip tests that build the compiled loop explicitly when it cannot
    be built here (no C compiler); ``auto`` tests run on scalar then."""
    if kernels.library() is None:
        pytest.skip(f"the compiled kernel cannot be built: "
                    f"{kernels.build_error()}")


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run should regenerate golden fixtures."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def tiny_spec() -> IntervalSpec:
    """1,000-event intervals at 1 % (threshold: 10 occurrences)."""
    return IntervalSpec(length=1_000, threshold=0.01)


@pytest.fixture
def tiny_config(tiny_spec) -> ProfilerConfig:
    """Single-hash config with a 256-counter table."""
    return ProfilerConfig(interval=tiny_spec, total_entries=256,
                          num_tables=1)


@pytest.fixture
def tiny_multi_config(tiny_spec) -> ProfilerConfig:
    """4-table conservative-update config, 256 counters total."""
    return ProfilerConfig(interval=tiny_spec, total_entries=256,
                          num_tables=4, conservative_update=True)


def hot_noise_stream(num_events: int, hot, hot_mass: float = 0.6,
                     seed: int = 0):
    """A simple hot-set + unique-noise stream for profiler tests.

    *hot* is a list of tuples drawn uniformly with total probability
    *hot_mass*; the rest of the stream is never-repeating noise tuples.
    """
    rng = random.Random(seed)
    fresh = 0
    for _ in range(num_events):
        if rng.random() < hot_mass:
            yield hot[rng.randrange(len(hot))]
        else:
            fresh += 1
            yield (0x9000_0000 + fresh, fresh)


@pytest.fixture
def hot_tuples():
    """Ten distinct hot tuples."""
    return [(0x1000 + 8 * i, 1000 + i) for i in range(10)]
