"""Tests for the calibrated benchmark models (repro.workloads.benchmarks)."""

import pytest

from repro.core.config import SHORT_INTERVAL
from repro.core.tuples import EventKind
from repro.workloads import benchmarks
from repro.workloads.benchmarks import (BENCHMARK_NAMES, EDGE_TARGETS,
                                        VALUE_TARGETS, all_models,
                                        benchmark_generator,
                                        benchmark_model, benchmark_stream,
                                        benchmark_targets,
                                        clear_model_memo)
from repro.workloads.solver import build_model, expected_distinct
from repro.workloads.trace_store import TraceStore


class TestRegistry:
    def test_eight_benchmarks_each_kind(self):
        assert len(BENCHMARK_NAMES) == 8
        assert set(VALUE_TARGETS) == set(BENCHMARK_NAMES)
        assert set(EDGE_TARGETS) == set(BENCHMARK_NAMES)

    def test_unknown_benchmark_lists_known(self):
        with pytest.raises(ValueError, match="burg"):
            benchmark_targets("quake")

    def test_all_models_build(self):
        assert len(all_models(EventKind.VALUE)) == 8
        assert len(all_models(EventKind.EDGE)) == 8

    def test_stream_length_exact(self):
        stream = benchmark_stream("li", SHORT_INTERVAL, num_intervals=2)
        assert sum(1 for _ in stream) == 20_000

    def test_generators_independent(self):
        a = benchmark_generator("li")
        b = benchmark_generator("li")
        a.chunk(100)
        # b is unaffected by a's progress.
        assert b._position == 0


class TestPaperCharacterization:
    """Figure 4/5 orderings encoded as invariants of the models."""

    def test_gcc_go_have_most_distinct_tuples(self):
        distinct = {name: expected_distinct(benchmark_model(name), 10_000)
                    for name in BENCHMARK_NAMES}
        ordered = sorted(distinct, key=distinct.get, reverse=True)
        assert set(ordered[:2]) == {"gcc", "go"}
        assert set(ordered[-2:]) == {"li", "m88ksim"}

    def test_distinct_grows_roughly_with_interval_length(self):
        for name in BENCHMARK_NAMES:
            model = benchmark_model(name)
            d10 = expected_distinct(model, 10_000)
            d1m = expected_distinct(model, 1_000_000)
            assert d1m > 5 * d10

    def test_candidate_counts_small_vs_distinct(self):
        for name in BENCHMARK_NAMES:
            model = benchmark_model(name)
            candidates = model.candidates_at(0.001)
            distinct = expected_distinct(model, 10_000)
            assert candidates < 0.2 * distinct

    def test_candidates_match_targets_exactly(self):
        for name in BENCHMARK_NAMES:
            solved = benchmark_targets(name)
            model = benchmark_model(name)
            assert model.candidates_at(0.01) == solved.candidates_1pct
            assert model.candidates_at(0.001) == solved.candidates_01pct

    def test_edge_streams_have_fewer_distinct_tuples(self):
        """Section 6.4.2: 'The edge profiler will see fewer distinct
        tuples than value profiling.'"""
        for name in BENCHMARK_NAMES:
            value = expected_distinct(
                benchmark_model(name, EventKind.VALUE), 10_000)
            edge = expected_distinct(
                benchmark_model(name, EventKind.EDGE), 10_000)
            assert edge < value

    def test_edge_population_nearly_static(self):
        for name in BENCHMARK_NAMES:
            model = benchmark_model(name, EventKind.EDGE)
            assert model.fresh_mass < 0.05

    def test_temporal_character(self):
        # deltablue: coarse phases; m88ksim/vortex: bursty, long phases.
        deltablue = benchmark_targets("deltablue")
        assert deltablue.phase_length >= 1_000_000
        assert deltablue.phase_overlap <= 0.3
        for name in ("m88ksim", "vortex"):
            assert benchmark_targets(name).burstiness >= 0.5
            assert benchmark_targets(name).phase_length >= 5_000_000


class TestSolvedOnce:
    """The calibration solve runs once per ``(name, kind)`` and process."""

    def test_resolve_seed_reads_the_targets_without_solving(
            self, tmp_path, monkeypatch):
        pairs = [(name, kind) for name in BENCHMARK_NAMES
                 for kind in (EventKind.VALUE, EventKind.EDGE)]
        seeds = {pair: benchmark_model(*pair).seed for pair in pairs}

        def no_solve(targets, kind=EventKind.VALUE):
            raise AssertionError(f"solved {targets.name} to read its seed")

        clear_model_memo()
        monkeypatch.setattr(benchmarks, "build_model", no_solve)
        store = TraceStore(str(tmp_path))
        assert {pair: store.resolve_seed(*pair, None)
                for pair in pairs} == seeds
        assert store.resolve_seed("gcc", EventKind.VALUE, 7) == 7

    def test_default_and_explicit_kind_share_one_model(self):
        model = benchmark_model("gcc")
        assert benchmark_model("gcc", EventKind.VALUE) is model
        assert benchmark_model("gcc", kind=EventKind.VALUE) is model
        assert benchmark_model(name="gcc") is model
        assert benchmark_model("gcc", EventKind.EDGE) is not model

    def test_second_call_runs_no_solve(self, monkeypatch):
        solved = []

        def counting_build_model(targets, kind=EventKind.VALUE):
            solved.append((targets.name, kind))
            return build_model(targets, kind=kind)

        clear_model_memo()
        monkeypatch.setattr(benchmarks, "build_model", counting_build_model)
        benchmark_model("li")
        benchmark_model("li", EventKind.VALUE)
        benchmark_model("li", kind=EventKind.VALUE)
        benchmark_generator("li").chunk(100)
        assert solved == [("li", EventKind.VALUE)]
        benchmark_model("li", EventKind.EDGE)
        benchmark_model("li", EventKind.EDGE)
        assert solved == [("li", EventKind.VALUE), ("li", EventKind.EDGE)]
