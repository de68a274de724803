"""Scenario suite: adversarial stream scenarios across all backends.

Runs every selected scenario (``REPRO_SCENARIOS``: preset names or YAML
paths, default the shipped ``stress_test`` and ``adversarial`` presets)
through the paper's best single-hash and best multi-hash profilers on
**both** event-processing backends -- the scalar reference and the
compiled per-event loop.  Each (scenario, backend) pair is one fabric
cell; the parent asserts the two backends produced
**bit-identical** per-interval profiles (a
SHA-256 over every candidate list) before reporting accuracy, so the
scenario suite doubles as a cross-backend parity harness over streams
deliberately nastier than the calibrated benchmarks.

Expected shape: the ``adversarial`` preset's engineered fold-table
collisions inflate single-hash error well past multi-hash error (the
Section 6.2 aliasing argument); ``stress_test``'s phase drift and
bursts raise error for both relative to the calm paper streams.

Set ``REPRO_SCENARIOS_OUT`` to also write the raw report data as JSON
(the CI smoke job diffs serial vs parallel bytes).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

from ..ioutil import atomic_write_json
from ..metrics.reports import format_table
from .base import ExperimentReport, ExperimentScale, experiment
from .fabric import current_fabric, fabric_map

#: Every backend, every scenario: parity is the point.
SCENARIO_BACKENDS = ("scalar", "vectorized")

#: The scored profilers, in report order.
PROFILER_LABELS = ("best_single_hash", "best_multi_hash")


def selected_scenarios() -> List[str]:
    """Scenario refs to run: ``REPRO_SCENARIOS`` or the presets."""
    configured = os.environ.get("REPRO_SCENARIOS")
    if configured:
        return [ref.strip() for ref in configured.split(",")
                if ref.strip()]
    from ..workloads.scenarios import list_presets

    return list_presets()


def _profile_digest(results) -> str:
    """SHA-256 over every per-interval candidate profile, in order."""
    digest = hashlib.sha256()
    for label, result in zip(PROFILER_LABELS, results):
        for profile in result.profiles:
            candidates = sorted(
                (int(pc), int(value), int(count))
                for (pc, value), count in profile.candidates.items())
            digest.update(json.dumps(
                [label, profile.index, candidates],
                separators=(",", ":")).encode("utf-8"))
    return digest.hexdigest()


def _scenario_cell(payload: Tuple[str, str, int, Optional[str]]) -> Dict:
    """One (scenario, backend) run; the worker-side entry point."""
    config_json, backend, num_intervals, trace_directory = payload
    from ..core.config import best_multi_hash, best_single_hash
    from ..profiling.session import ProfilingSession
    from ..workloads.scenarios import ScenarioConfig, ScenarioStream

    scenario = ScenarioConfig.from_dict(json.loads(config_json))
    spec = scenario.profile.spec
    configs = [best_single_hash(spec).with_backend(backend),
               best_multi_hash(spec).with_backend(backend)]
    if trace_directory is not None:
        from ..workloads.trace_store import TraceStore

        source = TraceStore(trace_directory).get_scenario(
            scenario, num_intervals)
    else:
        source = ScenarioStream(scenario)
    session = ProfilingSession(configs, keep_profiles=True)
    outcome = session.run(source, max_intervals=num_intervals)
    results = list(outcome.results.values())
    return {
        "digest": _profile_digest(results),
        "summaries": {label: result.summary.to_dict()
                      for label, result in zip(PROFILER_LABELS, results)},
    }


@experiment("scenarios")
def run(scale: ExperimentScale = None) -> ExperimentReport:
    """Every scenario through every backend, with parity asserted."""
    from ..workloads.scenarios import load_scenario

    scale = scale or ExperimentScale.from_env()
    report = ExperimentReport(
        experiment="scenarios",
        title="adversarial scenario suite, all backends bit-identical",
        data={},
    )
    fabric = current_fabric()
    trace_directory = (fabric.trace_store.directory
                       if fabric is not None else None)

    scenarios = [load_scenario(ref) for ref in selected_scenarios()]
    plans = []
    payloads = []
    for scenario in scenarios:
        num_intervals = min(scenario.profile.intervals,
                            scale.short_intervals)
        for backend in SCENARIO_BACKENDS:
            plans.append((scenario, backend, num_intervals))
            payloads.append((scenario.canonical_json(), backend,
                             num_intervals, trace_directory))
    cells = fabric_map(_scenario_cell, payloads)

    rows = []
    for scenario in scenarios:
        outcomes = {backend: cell
                    for (plan_scenario, backend, _), cell
                    in zip(plans, cells)
                    if plan_scenario is scenario}
        digests = {backend: cell["digest"]
                   for backend, cell in outcomes.items()}
        if len(set(digests.values())) != 1:
            raise RuntimeError(
                f"scenario {scenario.name!r}: backends disagree on the "
                f"per-interval profiles: {digests}")
        num_intervals = min(scenario.profile.intervals,
                            scale.short_intervals)
        reference = outcomes[SCENARIO_BACKENDS[0]]["summaries"]
        errors = {label: _net_error(reference[label])
                  for label in PROFILER_LABELS}
        rows.append([
            scenario.name,
            f"{scenario.profile.interval_length:,}",
            f"{100 * scenario.profile.threshold:g}%",
            str(num_intervals),
            f"{errors['best_single_hash']:.3f}",
            f"{errors['best_multi_hash']:.3f}",
            digests[SCENARIO_BACKENDS[0]][:12],
        ])
        report.data[scenario.name] = {
            "fingerprint": scenario.fingerprint(),
            "interval_length": scenario.profile.interval_length,
            "threshold": scenario.profile.threshold,
            "intervals": num_intervals,
            "profile_digest": digests[SCENARIO_BACKENDS[0]],
            "backends": {backend: cell["summaries"]
                         for backend, cell in outcomes.items()},
        }
    report.add_table(
        f"net error % per scenario ({' = '.join(SCENARIO_BACKENDS)})",
        format_table(["scenario", "interval", "thresh", "n",
                      "SH-R1-P1", "MH4-C1-R0-P1", "digest"], rows))

    out_path = os.environ.get("REPRO_SCENARIOS_OUT")
    if out_path:
        atomic_write_json(out_path, report.data)
    return report


def _net_error(summary_dict: Dict) -> float:
    from ..metrics.error import ErrorSummary

    return ErrorSummary.from_dict(summary_dict).percent()
