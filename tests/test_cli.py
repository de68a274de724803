"""Tests for the repro-profile CLI (repro.cli)."""

import json
import re

import pytest

from repro.cli import build_parser, config_from_args, main


class TestParsing:
    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        config = config_from_args(args)
        assert config.num_tables == 4
        assert config.conservative_update
        assert config.interval.length == 10_000

    def test_profiler_flags(self):
        args = build_parser().parse_args([
            "stream", "--tables", "1", "--entries", "512",
            "--interval", "5000", "--threshold", "0.02",
            "--resetting", "--no-retaining"])
        config = config_from_args(args)
        assert config.num_tables == 1
        assert not config.conservative_update  # meaningless at 1 table
        assert config.resetting
        assert not config.retaining
        assert config.interval.threshold == 0.02

    def test_c0_flag(self):
        args = build_parser().parse_args(
            ["stream", "--no-conservative-update"])
        assert not config_from_args(args).conservative_update

    def test_unknown_benchmark_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--benchmark", "quake"])


class TestCommands:
    def test_stream_prints_candidates_and_error(self, capsys):
        code = main(["stream", "--benchmark", "li", "--intervals", "2",
                     "--top", "3", "--entries", "512"])
        out = capsys.readouterr().out
        assert code == 0
        assert "net error" in out
        assert "interval 0" in out

    def test_record_then_trace_roundtrip(self, tmp_path, capsys):
        path = str(tmp_path / "li.npz")
        assert main(["record", "--benchmark", "li", "--events", "12000",
                     "-o", path]) == 0
        assert main(["trace", path, "--interval", "6000",
                     "--entries", "512"]) == 0
        out = capsys.readouterr().out
        assert "12000 events" in out

    def test_record_program(self, tmp_path, capsys):
        path = str(tmp_path / "prog.npz")
        assert main(["record", "--program", "value", "--kind", "value",
                     "-o", path]) == 0
        assert "program:value" in capsys.readouterr().out

    def test_trace_too_short_fails_cleanly(self, tmp_path, capsys):
        path = str(tmp_path / "short.npz")
        main(["record", "--benchmark", "li", "--events", "100",
              "-o", path])
        assert main(["trace", path, "--interval", "10000"]) == 1

    def test_missing_trace_is_an_error(self, tmp_path):
        assert main(["trace", str(tmp_path / "none.npz")]) == 2

    def test_invalid_config_is_an_error(self, capsys):
        # 2048 counters over 3 tables is not a power-of-two split.
        assert main(["stream", "--tables", "3"]) == 2
        assert "error:" in capsys.readouterr().err


class TestRecordTraceStreamRoundTrip:
    """record -> trace replay must reproduce the live stream exactly.

    A synthetic stream's content depends on how its RNG draws are
    batched, so the recording uses ``--chunk`` to match the live
    session's per-interval chunking; with that pinned, the replayed
    trace and the live stream are the same events and every error
    number agrees to the printed digit.
    """

    #: A deliberately stressed configuration (one tiny table, no
    #: retaining) so the compared summaries are far from 0 % and the
    #: comparison has teeth.
    FLAGS = ["--tables", "1", "--entries", "64", "--no-retaining",
             "--interval", "6000"]

    @staticmethod
    def _net_error_line(out: str) -> str:
        match = re.search(r"net error: [\d.]+%.*", out)
        assert match, f"no net-error line in output:\n{out}"
        return match.group(0)

    def test_trace_replay_matches_live_stream(self, tmp_path, capsys):
        path = str(tmp_path / "gcc.npz")
        assert main(["record", "--benchmark", "gcc", "--seed", "9",
                     "--events", "12000", "--chunk", "6000",
                     "-o", path]) == 0
        capsys.readouterr()

        assert main(["stream", "--benchmark", "gcc", "--seed", "9",
                     "--intervals", "2"] + self.FLAGS) == 0
        live = capsys.readouterr().out

        assert main(["trace", path] + self.FLAGS) == 0
        replay = capsys.readouterr().out

        assert self._net_error_line(live) == self._net_error_line(replay)
        # Per-interval candidate tables agree as well, not just the net.
        live_intervals = re.findall(r"interval \d+: .*", live)
        replay_intervals = re.findall(r"interval \d+: .*", replay)
        assert live_intervals == replay_intervals

    def test_unmatched_chunking_documents_the_flag(self, tmp_path,
                                                   capsys):
        # Without --chunk the recording draws in different batches and
        # is a *different* (equally valid) stream -- the reason the
        # flag exists.  It must still replay cleanly.
        path = str(tmp_path / "gcc-default.npz")
        assert main(["record", "--benchmark", "gcc", "--seed", "9",
                     "--events", "12000", "-o", path]) == 0
        assert main(["trace", path] + self.FLAGS) == 0
        out = capsys.readouterr().out
        assert "net error" in out


class TestServiceCommands:
    def test_push_and_snapshot_against_live_server(self, capsys):
        from repro.service import ProfileServer

        with ProfileServer(num_workers=2) as server:
            port = str(server.port)
            assert main(["push", "--port", port, "--stream", "cli-s1",
                         "--benchmark", "li", "--events", "8000",
                         "--interval", "2000", "--entries", "256",
                         "--batch", "1000", "--keep-open",
                         "--top", "3"]) == 0
            pushed = capsys.readouterr().out
            assert "opened stream cli-s1" in pushed
            assert "4 intervals complete" in pushed
            assert "net error" in pushed

            assert main(["snapshot", "--port", port,
                         "--stream", "cli-s1"]) == 0
            assert "cli-s1" in capsys.readouterr().out

            assert main(["snapshot", "--port", port, "--stats"]) == 0
            stats = capsys.readouterr().out
            assert '"streams_open": 1' in stats

    def test_push_close_prints_final_snapshot(self, capsys):
        from repro.service import ProfileServer

        with ProfileServer(num_workers=1) as server:
            assert main(["push", "--port", str(server.port),
                         "--stream", "cli-s2", "--benchmark", "li",
                         "--events", "5000", "--interval", "2000",
                         "--entries", "256"]) == 0
            out = capsys.readouterr().out
            assert "final" in out
            assert "flushed partial interval" in out

    def test_snapshot_unknown_stream_is_an_error(self, capsys):
        from repro.service import ProfileServer

        with ProfileServer(num_workers=1) as server:
            assert main(["snapshot", "--port", str(server.port),
                         "--stream", "ghost"]) == 2
            assert "unknown-stream" in capsys.readouterr().err

    def test_connection_refused_is_an_error(self, capsys):
        # Nothing listens on port 1; the CLI must fail cleanly with a
        # diagnostic, not a traceback.
        assert main(["snapshot", "--port", "1", "--stream", "x"]) == 2
        assert "error" in capsys.readouterr().err

    def test_snapshot_requires_stream_or_stats(self, capsys):
        assert main(["snapshot", "--port", "7071"]) == 2
        assert "--stream" in capsys.readouterr().err


class TestBench:
    @pytest.mark.slow
    def test_bench_quick_writes_report(self, tmp_path, capsys,
                                       compiled_kernel):
        path = tmp_path / "BENCH_kernels.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "-o", str(path)]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        report = json.loads(path.read_text())
        assert report["quick"]
        assert len(report["workloads"]) == 4
        for workload in report["workloads"]:
            rows = workload["rows"]
            assert set(rows) == {"scalar", "scalar-chunked",
                                 "vectorized"}
            for row in rows.values():
                assert row["events_per_second"] > 0
        assert set(report["speedups"]) == set(report["chunked_speedups"])
        assert [row["point"] for row in report["truth"]] == ["long",
                                                             "short"]
        for row in report["truth"]:
            assert set(row["rows"]) == {"numpy", "compiled"}
            assert all(path["ms_per_interval"] > 0
                       for path in row["rows"].values())
            assert 0 < row["candidates_per_interval"] < row[
                "distinct_per_interval"]
        assert report["sessions"]
        for session in report["sessions"]:
            assert set(session["rows"]) == {"scalar-chunked", "vectorized"}
            assert session["events"] == (session["sessions"]
                                         * session["events_per_session"])
        # Every session row times the same work, whatever its sessions.
        assert len({session["events"]
                    for session in report["sessions"]}) == 1
        # Even at smoke scale the kernels clear the per-event reference
        # by a wide margin.
        assert all(value > 2.0 for value in report["speedups"].values())
