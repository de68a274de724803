"""Property/metamorphic harness over the scenario space.

The paper's accuracy claims are stated as *tendencies* (Section 5.6.1:
error tracks distinct tuples per interval; Section 6.2: independent
hash functions break up collision clusters).  The scenario suite makes
them testable invariants:

* same config + seed => byte-identical streams, JSONL, and profiles;
* both backends bit-identical on every shipped preset;
* error degrades monotonically with the fresh-tuple rate (candidate
  set held constant, pinned seeds, averaged across seeds);
* error improves monotonically with interval length (near-threshold
  tuples concentrate away from the threshold as intervals grow);
* engineered hash aliasing hurts the single-hash profiler strictly
  more than the multi-hash profiler;
* trace-store replay is bit-identical to live generation, and scenario
  cache keys can never alias benchmark streams.

Golden fixtures for the shipped presets (first 256 events + final
profile summaries) live in ``tests/golden/``; regenerate with
``pytest tests/test_scenarios.py --update-golden``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import best_multi_hash, best_single_hash
from repro.core.hashing import HashFunctionFamily
from repro.profiling.session import ProfilingSession
from repro.workloads.scenarios import (ProfilePoint, ScenarioConfig,
                                       ScenarioStream, StreamSpec,
                                       alias_cluster, jsonl_lines,
                                       list_presets, load_scenario,
                                       session_chunks)
from repro.workloads.trace_store import ScenarioKey, TraceKey, TraceStore

GOLDEN_DIR = Path(__file__).parent / "golden"

PRESETS = list_presets()


def collect_stream(config, num_intervals=2):
    """The exact bytes a profiling session would read."""
    stream = ScenarioStream(config)
    pieces = list(session_chunks(stream,
                                 config.profile.interval_length,
                                 num_intervals))
    return (np.concatenate([pcs for pcs, _ in pieces]),
            np.concatenate([values for _, values in pieces]))


def profile_scenario(config, profiler_config, num_intervals=None):
    if num_intervals is None:
        num_intervals = config.profile.intervals
    session = ProfilingSession(profiler_config, keep_profiles=True)
    return session.run(ScenarioStream(config),
                       max_intervals=num_intervals).single()


def test_presets_ship():
    assert PRESETS == ["adversarial", "heavy_hitters", "stress_test"]


class TestDeterminism:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_stream_bytes_identical(self, preset):
        config = load_scenario(preset, seed=42)
        first_pcs, first_values = collect_stream(config)
        second_pcs, second_values = collect_stream(config)
        assert first_pcs.tobytes() == second_pcs.tobytes()
        assert first_values.tobytes() == second_values.tobytes()

    @pytest.mark.parametrize("preset", PRESETS)
    def test_jsonl_byte_identical(self, preset):
        config = load_scenario(preset, seed=42)
        first = "\n".join(jsonl_lines(config, num_intervals=1))
        second = "\n".join(jsonl_lines(config, num_intervals=1))
        assert first == second

    def test_seed_changes_the_stream(self):
        base = load_scenario("stress_test", seed=1)
        other = load_scenario("stress_test", seed=2)
        _, base_values = collect_stream(base, num_intervals=1)
        _, other_values = collect_stream(other, num_intervals=1)
        assert not np.array_equal(base_values, other_values)
        assert base.fingerprint() != other.fingerprint()

    def test_reset_rewinds_exactly(self):
        config = load_scenario("adversarial")
        stream = ScenarioStream(config)
        first = stream.chunk(4096)
        stream.reset()
        second = stream.chunk(4096)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()

    @pytest.mark.parametrize("preset", PRESETS)
    def test_profiles_identical_across_runs(self, preset):
        config = load_scenario(preset, seed=42)
        spec = config.profile.spec
        runs = [profile_scenario(config, best_single_hash(spec),
                                 num_intervals=2)
                for _ in range(2)]
        assert ([p.candidates for p in runs[0].profiles]
                == [p.candidates for p in runs[1].profiles])


class TestBackendParity:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_all_backends_bit_identical(self, preset, compiled_kernel):
        config = load_scenario(preset)
        spec = config.profile.spec
        for factory in (best_single_hash, best_multi_hash):
            base = factory(spec, total_entries=512)
            session = ProfilingSession(
                [base.with_backend("scalar"),
                 base.with_backend("vectorized")],
                keep_profiles=True)
            outcome = session.run(ScenarioStream(config),
                                  max_intervals=3)
            results = list(outcome.results.values())
            reference = [p.candidates for p in results[0].profiles]
            for result in results[1:]:
                assert [p.candidates for p in result.profiles] \
                    == reference
                assert result.summary.to_dict() \
                    == results[0].summary.to_dict()


class TestTraceStore:
    def test_replay_matches_live_generation(self, tmp_path):
        config = load_scenario("adversarial", seed=11)
        store = TraceStore(str(tmp_path))
        trace = store.get_scenario(config, num_intervals=2)
        live_pcs, live_values = collect_stream(config, num_intervals=2)
        assert np.asarray(trace.pcs).tobytes() == live_pcs.tobytes()
        assert np.asarray(trace.values).tobytes() == live_values.tobytes()

    def test_replay_profiles_bit_identical(self, tmp_path):
        config = load_scenario("stress_test", seed=11)
        spec = config.profile.spec
        store = TraceStore(str(tmp_path))
        trace = store.get_scenario(config, num_intervals=2)
        session = ProfilingSession(best_single_hash(spec),
                                   keep_profiles=True)
        replayed = session.run(trace, max_intervals=2).single()
        live = profile_scenario(config, best_single_hash(spec),
                                num_intervals=2)
        assert ([p.candidates for p in replayed.profiles]
                == [p.candidates for p in live.profiles])

    def test_rematerialization_is_byte_identical(self, tmp_path):
        config = load_scenario("adversarial", seed=11)
        stems = []
        for leg in ("a", "b"):
            store = TraceStore(str(tmp_path / leg))
            store.get_scenario(config, num_intervals=1)
            files = sorted((tmp_path / leg).iterdir())
            stems.append({f.name: f.read_bytes() for f in files})
        assert stems[0] == stems[1]

    def test_scenario_key_includes_fingerprint_and_chunk_pattern(self):
        config = load_scenario("adversarial", seed=11)
        key = ScenarioKey(config.fingerprint(), config.kind,
                          config.profile.interval_length, 1 << 16)
        assert config.fingerprint()[:20] in key.stem
        assert key.stem.startswith("scenario-")
        reseeded = config.with_seed(12)
        other = ScenarioKey(reseeded.fingerprint(), reseeded.kind,
                            reseeded.profile.interval_length, 1 << 16)
        assert other.stem != key.stem
        repatterned = ScenarioKey(config.fingerprint(), config.kind,
                                  config.profile.interval_length, 1 << 10)
        assert repatterned.stem != key.stem

    def test_scenario_stems_disjoint_from_benchmark_stems(self):
        bench = TraceKey("gcc", load_scenario("adversarial").kind,
                         8_000, 7)
        assert not bench.stem.startswith("scenario-")


class TestAccuracyInvariants:
    """Paper-predicted tendencies, pinned to deterministic seeds."""

    SEEDS = range(5)

    @staticmethod
    def _fresh_rate_config(recurring_mass, seed):
        # A fixed hot candidate set and a small above-threshold
        # recurring pool keep the true profile constant; shrinking
        # recurring_mass routes the remainder into fresh tuples.
        return ScenarioConfig(
            name="fresh-sweep", seed=seed,
            stream=StreamSpec(
                bands=({"count": 6, "top_share": 0.04,
                        "bottom_share": 0.02},),
                recurring_mass=recurring_mass, recurring_pool=16),
            profile=ProfilePoint(interval_length=2_000, threshold=0.01,
                                 intervals=10))

    def test_error_degrades_with_fresh_tuple_rate(self):
        means = []
        for recurring_mass in (0.7, 0.5, 0.3):  # fresh rate rises
            errors = []
            for seed in self.SEEDS:
                config = self._fresh_rate_config(recurring_mass, seed)
                result = profile_scenario(
                    config,
                    best_single_hash(config.profile.spec,
                                     total_entries=256))
                errors.append(result.summary.percent())
            means.append(sum(errors) / len(errors))
        assert means[0] < means[1] < means[2], means

    @staticmethod
    def _interval_length_config(interval_length, seed):
        # The warm 30-tuple band sits just under the 1% threshold;
        # counter pollution pushes it over at short intervals, and the
        # noise concentrates away as intervals grow.
        return ScenarioConfig(
            name="interval-sweep", seed=seed,
            stream=StreamSpec(
                bands=({"count": 6, "top_share": 0.05,
                        "bottom_share": 0.03},
                       {"count": 30, "top_share": 0.006,
                        "bottom_share": 0.005}),
                recurring_mass=0.3, recurring_pool=65_536),
            profile=ProfilePoint(interval_length=interval_length,
                                 threshold=0.01, intervals=10))

    def test_error_improves_with_interval_length(self):
        lengths = (500, 1_000, 4_000)
        by_length = []
        for interval_length in lengths:
            errors = []
            for seed in self.SEEDS:
                config = self._interval_length_config(interval_length,
                                                      seed)
                result = profile_scenario(
                    config,
                    best_single_hash(config.profile.spec,
                                     total_entries=256))
                errors.append(result.summary.percent())
            by_length.append(errors)
        means = [sum(errors) / len(errors) for errors in by_length]
        assert means[0] > means[1] > means[2], means
        # And the endpoints are ordered for every individual seed.
        for shortest, longest in zip(by_length[0], by_length[-1]):
            assert shortest > longest

    def test_adversarial_aliasing_hurts_single_hash_strictly_more(self):
        config = load_scenario("adversarial")
        spec = config.profile.spec
        single = profile_scenario(config, best_single_hash(spec))
        multi = profile_scenario(config, best_multi_hash(spec))
        single_error = single.summary.percent()
        multi_error = multi.summary.percent()
        assert multi_error < single_error
        # The cluster is engineered sub-threshold per member; its
        # shared counter makes the single-hash error substantial.
        assert single_error > 1.0

    def test_alias_cluster_collides_single_scatters_multi(self):
        spec = load_scenario("adversarial").aliasing
        pcs, values = alias_cluster(spec)
        assert len(set(zip(pcs.tolist(), values.tolist()))) \
            == spec.cluster
        single = HashFunctionFamily(spec.index_bits,
                                    spec.hash_seed)[spec.ordinal]
        assert len(set(single.index_array(pcs, values).tolist())) == 1
        # best_multi_hash: 4 tables of 512 entries -> 9 index bits,
        # independently seeded; the cluster must scatter in every one.
        for ordinal in range(4):
            table = HashFunctionFamily(9, spec.hash_seed)[ordinal]
            distinct = len(set(table.index_array(pcs, values).tolist()))
            assert distinct > spec.cluster // 2


class TestSessionIntegration:
    def test_scenario_stream_requires_max_intervals(self):
        config = load_scenario("adversarial")
        session = ProfilingSession(best_single_hash(config.profile.spec))
        with pytest.raises(ValueError, match="max_intervals"):
            session.run(ScenarioStream(config))

    def test_scenario_experiment_asserts_parity_and_invariant(
            self, compiled_kernel):
        from repro.experiments.base import ExperimentScale
        from repro.experiments.scenarios import run

        report = run(ExperimentScale().tiny())
        assert set(report.data) == set(PRESETS)
        for name, entry in report.data.items():
            digests = {json.dumps(entry["backends"][backend],
                                  sort_keys=True)
                       for backend in entry["backends"]}
            assert len(digests) == 1, f"{name}: backends disagree"
        adversarial = report.data["adversarial"]["backends"]["scalar"]
        from repro.metrics.error import ErrorSummary

        single = ErrorSummary.from_dict(
            adversarial["best_single_hash"]).percent()
        multi = ErrorSummary.from_dict(
            adversarial["best_multi_hash"]).percent()
        assert multi < single


@pytest.mark.parametrize("preset", PRESETS)
def test_golden_scenarios(preset, update_golden):
    """First 256 events + final profile summaries, pinned."""
    config = load_scenario(preset)
    pcs, values = collect_stream(config, num_intervals=2)
    spec = config.profile.spec
    snapshot = {
        "fingerprint": config.fingerprint(),
        "events": [[int(pc), int(value)]
                   for pc, value in zip(pcs[:256], values[:256])],
        "profiles": {},
    }
    for label, factory in (("best_single_hash", best_single_hash),
                           ("best_multi_hash", best_multi_hash)):
        result = profile_scenario(config, factory(spec),
                                  num_intervals=2)
        final = result.profiles[-1]
        snapshot["profiles"][label] = {
            "error_series": [round(point, 12)
                             for point in result.summary.series()],
            "final_interval": {
                "index": final.index,
                "candidates": sorted(
                    [int(pc), int(value), int(count)]
                    for (pc, value), count in final.candidates.items()),
            },
        }

    path = GOLDEN_DIR / f"scenario_{preset}.json"
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2) + "\n",
                        encoding="utf-8")
        pytest.skip(f"rewrote {path.name}")
    assert path.exists(), (
        f"missing fixture {path}; generate it with "
        f"pytest tests/test_scenarios.py --update-golden")
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert snapshot == expected
