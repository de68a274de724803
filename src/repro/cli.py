"""``repro-profile``: profile streams and traces from the command line.

Subcommands::

    repro-profile stream --benchmark gcc --intervals 10
        Profile a calibrated benchmark stream and print per-interval
        candidates and the error summary.

    repro-profile trace mytrace.npz --tables 4
        Replay a recorded trace (``repro.workloads.traces`` format)
        through a profiler configuration.

    repro-profile record --benchmark gcc --events 200000 -o gcc.npz
        Record a benchmark stream (or a synthetic simulator program
        with ``--program``) to a trace file for later replay.

    repro-profile serve --port 7071 --workers 4
        Run the multi-tenant streaming profile server
        (:mod:`repro.service`) until interrupted.

    repro-profile push --port 7071 --stream gcc-0 --benchmark gcc \
            --events 100000
        Open a stream on a running server, push a benchmark stream (or
        a recorded trace with ``--trace``) in batches, and print the
        final snapshot.

    repro-profile snapshot --port 7071 --stream gcc-0
        Query a live snapshot of an open stream; ``--stats`` prints
        server and worker statistics instead.

    repro-profile loadgen --profile steady --profile bursty
        Drive named workload profiles (steady, bursty, fan_in, mixed,
        scenario_*) against an embedded server and write
        throughput/latency rows to
        ``benchmarks/results/BENCH_service.json``.

    repro-profile scenario generate --config stress_test --seed 42
        Emit a scenario's JSONL event stream (``-o`` to a file,
        ``--store`` to materialize it in the shared trace store);
        ``scenario validate`` checks a config, ``scenario list``
        prints the shipped presets.

The profiler configuration flags mirror
:class:`~repro.core.config.ProfilerConfig`: ``--tables``, ``--entries``,
``--interval``, ``--threshold``, ``--no-conservative-update``,
``--resetting``, ``--no-retaining``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.config import BACKENDS, IntervalSpec, ProfilerConfig
from .core.tuples import EventKind
from .ioutil import atomic_write_json
from .metrics.reports import format_table
from .profiling.session import ProfilingSession
from .workloads.benchmarks import BENCHMARK_NAMES, benchmark_generator
from .workloads.traces import load_trace, record, save_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-profile",
        description="Run the HPCA 2003 multi-hash hardware profiler on "
                    "streams, traces, or simulated programs")
    commands = parser.add_subparsers(dest="command", required=True)

    stream = commands.add_parser(
        "stream", help="profile a calibrated benchmark stream")
    _add_workload_flags(stream)
    _add_profiler_flags(stream)
    stream.add_argument("--intervals", type=int, default=10,
                        help="profile intervals to run (default 10)")
    stream.add_argument("--top", type=int, default=10,
                        help="candidates to print per interval")

    trace = commands.add_parser(
        "trace", help="replay a recorded .npz trace")
    trace.add_argument("path", help="trace file (see 'record')")
    _add_profiler_flags(trace)
    trace.add_argument("--top", type=int, default=10,
                       help="candidates to print per interval")

    recorder = commands.add_parser(
        "record", help="record a stream to a replayable trace")
    _add_workload_flags(recorder)
    recorder.add_argument("--events", type=int, default=100_000,
                          help="events to record (default 100000)")
    recorder.add_argument("--program",
                          choices=["value", "dispatch", "mixed"],
                          help="record a synthetic simulator program "
                               "instead of a benchmark stream")
    recorder.add_argument("-o", "--output", required=True,
                          help="output .npz path")
    recorder.add_argument("--chunk", type=int, default=None,
                          help="generation chunk size; a synthetic "
                               "stream's content depends on its draw "
                               "batching, so match this to a live "
                               "session's per-interval chunking to "
                               "record the identical stream")

    serve = commands.add_parser(
        "serve", help="run the streaming profile server")
    serve.add_argument("--host", default="127.0.0.1",
                       help="listen address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7071,
                       help="listen port, 0 for ephemeral "
                            "(default 7071)")
    serve.add_argument("--workers", type=int, default=2,
                       help="shard worker processes (default 2)")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="in-flight requests per worker before "
                            "busy shedding (default 64)")
    serve.add_argument("--snapshot-intervals", type=int, default=64,
                       help="recent per-interval profiles kept per "
                            "stream (default 64)")

    push = commands.add_parser(
        "push", help="stream events into a running server")
    _add_service_flags(push)
    push.add_argument("--stream", required=True,
                      help="stream id to open and push")
    _add_workload_flags(push)
    _add_profiler_flags(push)
    push.add_argument("--trace", default=None,
                      help="push a recorded .npz trace instead of a "
                           "benchmark stream")
    push.add_argument("--scenario", default=None,
                      help="push a scenario stream (YAML path or "
                           "preset name) instead of a benchmark "
                           "stream")
    push.add_argument("--events", type=int, default=100_000,
                      help="events to push from a benchmark stream "
                           "(default 100000; ignored with --trace)")
    push.add_argument("--batch", type=int, default=8192,
                      help="events per pushed batch (default 8192)")
    push.add_argument("--keep-open", action="store_true",
                      help="leave the stream open (poll it later with "
                           "'snapshot') instead of closing it")
    push.add_argument("--top", type=int, default=10,
                      help="candidates to print from the last interval")

    bench = commands.add_parser(
        "bench", help="measure backend throughput (BENCH_kernels.json)")
    bench.add_argument("--benchmark", default="gcc",
                       choices=list(BENCHMARK_NAMES),
                       help="calibrated workload (default gcc)")
    bench.add_argument("--seed", type=int, default=7,
                       help="stream seed (default 7)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="timed repeats per chunked or truth row, "
                            "best taken (default 3; the per-event row "
                            "runs once)")
    bench.add_argument("--quick", action="store_true",
                       help="tiny operating points for CI smoke runs")
    bench.add_argument("-o", "--output",
                       default="benchmarks/results/BENCH_kernels.json",
                       help="result file (default "
                            "benchmarks/results/BENCH_kernels.json)")

    scenario = commands.add_parser(
        "scenario", help="generate, validate, or list stream scenarios")
    scenario_commands = scenario.add_subparsers(dest="scenario_command",
                                                required=True)
    generate = scenario_commands.add_parser(
        "generate", help="emit a scenario's JSONL event stream")
    _add_scenario_flags(generate)
    generate.add_argument("--intervals", type=int, default=None,
                          help="intervals to emit (default: the "
                               "config's profile point)")
    generate.add_argument("-o", "--output", default=None,
                          help="JSONL output path (default stdout)")
    generate.add_argument("--store", action="store_true",
                          help="materialize the stream into the shared "
                               "trace store instead of emitting JSONL")
    validate = scenario_commands.add_parser(
        "validate", help="check a scenario config and print its "
                         "fingerprint")
    _add_scenario_flags(validate)
    scenario_commands.add_parser(
        "list", help="list the shipped preset scenarios")

    loadgen = commands.add_parser(
        "loadgen", help="drive load profiles against the profile "
                        "service (BENCH_service.json)")
    loadgen.add_argument("--profile", action="append", default=None,
                         dest="profiles", metavar="NAME",
                         help="profile to run (repeatable; default: "
                              "all shipped profiles; see --list)")
    loadgen.add_argument("--list", action="store_true",
                         help="list the shipped load profiles and exit")
    loadgen.add_argument("--workers", type=int, default=2,
                         help="shard worker processes (default 2)")
    loadgen.add_argument("--max-pending", type=int, default=64,
                         help="in-flight requests per worker before "
                              "busy shedding (default 64)")
    loadgen.add_argument("--streams", type=int, default=None,
                         help="cap concurrent streams per profile")
    loadgen.add_argument("--events", type=int, default=None,
                         help="cap events per stream")
    loadgen.add_argument("--quick", action="store_true",
                         help="tiny operating points for CI smoke runs "
                              "(32 streams, 1024 events/stream)")
    loadgen.add_argument("-o", "--output",
                         default="benchmarks/results/BENCH_service.json",
                         help="result file (default benchmarks/results/"
                              "BENCH_service.json); '-' to skip "
                              "writing")

    snapshot = commands.add_parser(
        "snapshot", help="query a live stream snapshot or server stats")
    _add_service_flags(snapshot)
    snapshot.add_argument("--stream", default=None,
                          help="stream id to snapshot")
    snapshot.add_argument("--stats", action="store_true",
                          help="print server/worker statistics instead")
    snapshot.add_argument("--top", type=int, default=10,
                          help="candidates to print from the last "
                               "interval")
    return parser


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True,
                        help="scenario YAML path or preset name (see "
                             "'scenario list')")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's seed")


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="server address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7071,
                        help="server port (default 7071)")


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--benchmark", default="gcc",
                        choices=list(BENCHMARK_NAMES),
                        help="calibrated workload (default gcc)")
    parser.add_argument("--kind", default="value",
                        choices=["value", "edge"],
                        help="profiling event kind (default value)")
    parser.add_argument("--seed", type=int, default=None,
                        help="stream seed override")


def _add_profiler_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tables", type=int, default=4,
                        help="hash tables (default 4)")
    parser.add_argument("--entries", type=int, default=2048,
                        help="total counters (default 2048)")
    parser.add_argument("--interval", type=int, default=10_000,
                        help="interval length in events (default 10000)")
    parser.add_argument("--threshold", type=float, default=0.01,
                        help="candidate threshold fraction (default "
                             "0.01 = 1%%)")
    parser.add_argument("--no-conservative-update", action="store_true",
                        help="disable conservative update (C0)")
    parser.add_argument("--resetting", action="store_true",
                        help="enable immediate counter reset (R1)")
    parser.add_argument("--no-retaining", action="store_true",
                        help="disable accumulator retaining (P0)")
    parser.add_argument("--backend", default="auto",
                        choices=list(BACKENDS),
                        help="event-processing backend: the compiled "
                             "per-event loop ('vectorized'), the Python "
                             "reference ('scalar'), or 'auto' (the "
                             "default: REPRO_BACKEND, else the compiled "
                             "loop when it can be built)")


def config_from_args(args: argparse.Namespace) -> ProfilerConfig:
    return ProfilerConfig(
        interval=IntervalSpec(args.interval, args.threshold),
        total_entries=args.entries,
        num_tables=args.tables,
        conservative_update=(args.tables > 1
                             and not args.no_conservative_update),
        resetting=args.resetting,
        retaining=not args.no_retaining,
        backend=getattr(args, "backend", "auto"),
    )


def _print_result(result, config: ProfilerConfig, top: int) -> None:
    print(f"profiler {config.label}: {config.num_tables} x "
          f"{config.entries_per_table} counters, accumulator "
          f"{config.accumulator_capacity}, interval "
          f"{config.interval.length:,} @ "
          f"{100 * config.interval.threshold:g}%")
    summary = result.summary
    profiles = result.single().profiles
    for profile in profiles:
        ranked = sorted(profile.candidates.items(),
                        key=lambda item: -item[1])[:top]
        rows = [[f"{pc:#x}", f"{value:#x}", count]
                for (pc, value), count in ranked]
        print(f"\ninterval {profile.index}: "
              f"{len(profile.candidates)} candidates, error "
              f"{100 * summary.intervals[profile.index].total:.3f}%")
        print(format_table(["pc", "value", "count"], rows))
    breakdown = summary.breakdown_percent()
    print(f"\nnet error: {summary.percent():.3f}%  ("
          + ", ".join(f"{key}={value:.3f}"
                      for key, value in breakdown.items()) + ")")


def _run_stream(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    generator = benchmark_generator(args.benchmark,
                                    EventKind(args.kind), seed=args.seed)
    session = ProfilingSession(config, keep_profiles=True)
    result = session.run(generator, max_intervals=args.intervals)
    _print_result(result, config, args.top)
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    config = config_from_args(args)
    trace = load_trace(args.path)
    print(f"loaded {args.path}: {len(trace)} events "
          f"({trace.kind.value}; source {trace.source or 'unknown'})")
    session = ProfilingSession(config, keep_profiles=True)
    result = session.run(trace)
    if not result.summary.num_intervals:
        print("trace shorter than one interval; nothing to profile",
              file=sys.stderr)
        return 1
    _print_result(result, config, args.top)
    return 0


def _run_record(args: argparse.Namespace) -> int:
    kind = EventKind(args.kind)
    if args.program:
        from .profiling.atom import trace_events
        from .simulator.synth import (dispatch_program, mixed_program,
                                      value_locality_program)

        factories = {"value": value_locality_program,
                     "dispatch": dispatch_program,
                     "mixed": mixed_program}
        trace = trace_events(factories[args.program](), kind)
        source = f"program:{args.program}"
    else:
        generator = benchmark_generator(args.benchmark, kind,
                                        seed=args.seed)
        events = (generator.events(args.events) if args.chunk is None
                  else generator.events(args.events,
                                        chunk_size=args.chunk))
        trace = record(events, kind=kind,
                       source=f"benchmark:{args.benchmark}")
        source = trace.source
    save_trace(trace, args.output)
    print(f"recorded {len(trace)} {kind.value} events from {source} "
          f"to {args.output}")
    return 0


def _print_snapshot(snapshot: dict, top: int) -> None:
    summary = snapshot["summary"]
    state = "final" if snapshot.get("final") else "live"
    print(f"stream {snapshot['stream']} ({snapshot['profiler']}, "
          f"{state}): {snapshot['events']:,} events, "
          f"{snapshot['intervals_completed']} intervals complete, "
          f"{snapshot['pending_events']} pending"
          + (", flushed partial interval"
             if snapshot.get("flushed_partial") else ""))
    if snapshot["intervals"]:
        last = snapshot["intervals"][-1]
        rows = [[f"{pc:#x}", f"{value:#x}", count]
                for pc, value, count in last["candidates"][:top]]
        print(f"\ninterval {last['index']}: "
              f"{len(last['candidates'])} candidates, error "
              f"{last['error_percent']:.3f}%")
        print(format_table(["pc", "value", "count"], rows))
    breakdown = summary["breakdown_percent"]
    print(f"\nnet error over {summary['num_intervals']} intervals: "
          f"{summary['net_error_percent']:.3f}%  ("
          + ", ".join(f"{key}={value:.3f}"
                      for key, value in breakdown.items()) + ")")


def _run_serve(args: argparse.Namespace) -> int:
    from .service import ProfileServer

    server = ProfileServer(host=args.host, port=args.port,
                           num_workers=args.workers,
                           max_pending=args.max_pending,
                           snapshot_intervals=args.snapshot_intervals)
    server.start()
    print(f"profile server listening on {server.host}:{server.port} "
          f"({args.workers} workers; ctrl-c to drain and stop)",
          flush=True)
    try:
        import time

        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        # A repeated ctrl-c (terminals signal the whole process group)
        # must not abort the drain midway.
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)
        server.stop()
        print("drained and stopped")
    return 0


def _run_push(args: argparse.Namespace) -> int:
    from .service import ProfileClient, ServiceError

    config = config_from_args(args)
    try:
        return _push_with(ProfileClient, args, config)
    except ServiceError as error:
        print(f"error: server refused ({error.code}): {error}",
              file=sys.stderr)
        return 2


def _push_with(client_type, args: argparse.Namespace, config) -> int:
    with client_type(host=args.host, port=args.port) as client:
        opened = client.open_stream(args.stream, config)
        print(f"opened stream {args.stream} on shard "
              f"{opened['shard']} ({opened['profiler']})")
        if args.trace:
            trace = load_trace(args.trace)
            client.push_trace(args.stream, trace,
                              batch_events=args.batch)
            print(f"pushed {len(trace)} events from {args.trace}")
        elif args.scenario:
            from .workloads.scenarios import ScenarioStream, load_scenario

            scenario = load_scenario(args.scenario, seed=args.seed)
            client.push_generator(args.stream, ScenarioStream(scenario),
                                  args.events, batch_events=args.batch)
            print(f"pushed {args.events} events from "
                  f"scenario:{scenario.name}")
        else:
            generator = benchmark_generator(args.benchmark,
                                            EventKind(args.kind),
                                            seed=args.seed)
            client.push_generator(args.stream, generator, args.events,
                                  batch_events=args.batch)
            print(f"pushed {args.events} events from "
                  f"benchmark:{args.benchmark}")
        if args.keep_open:
            snapshot = client.snapshot(args.stream)
        else:
            snapshot = client.close_stream(args.stream)
        _print_snapshot(snapshot, args.top)
    return 0


#: Benchmark operating points: the paper's fig07/fig12 scale (three
#: 200K-event intervals at 0.1 %) plus a short-interval point (thirty
#: 10K-event intervals at 1 %) that stresses interval turnover.
_BENCH_POINTS = [("long", 200_000, 0.001, 3), ("short", 10_000, 0.01, 30)]
_BENCH_QUICK_POINTS = [("long", 20_000, 0.001, 2), ("short", 4_000, 0.01, 5)]


def _bench_feed_scalar(profiler, pcs, values, spec):
    """Per-event reference loop: ``observe()`` on every tuple."""
    length = spec.length
    observe = profiler.observe
    for position, event in enumerate(zip(pcs.tolist(), values.tolist()),
                                     start=1):
        observe(event)
        if position % length == 0:
            profiler.end_interval()


def _bench_feed_chunked(profiler, pcs, values, spec):
    """The scalar production path: ``observe_chunk`` over event lists
    with pre-hashed index lists, exactly as ``SessionFeeder`` feeds a
    scalar profiler."""
    from .profiling.session import CHUNK_EVENTS, ProfilingSession

    functions = ProfilingSession._hash_functions(profiler)
    length = spec.length
    position = 0
    while position < len(pcs):
        take = min(CHUNK_EVENTS, length - position % length,
                   len(pcs) - position)
        piece_pcs = pcs[position:position + take]
        piece_values = values[position:position + take]
        events = list(zip(piece_pcs.tolist(), piece_values.tolist()))
        index_lists = [function.index_array(piece_pcs, piece_values).tolist()
                       for function in functions]
        profiler.observe_chunk(events, index_lists)
        position += take
        if position % length == 0:
            profiler.end_interval()


def _bench_feed_vectorized(profiler, pcs, values, spec):
    """The compiled loop: ``observe_array_chunk`` on uint64 arrays."""
    from .profiling.session import CHUNK_EVENTS

    length = spec.length
    position = 0
    while position < len(pcs):
        take = min(CHUNK_EVENTS, length - position % length,
                   len(pcs) - position)
        profiler.observe_array_chunk(pcs[position:position + take],
                                     values[position:position + take])
        position += take
        if position % length == 0:
            profiler.end_interval()


def _bench_truth(pcs, values, spec, repeats, time_module):
    """Time the interval truth step on each path.

    *pcs* and *values* are cut into intervals of *spec* and each
    interval into ``CHUNK_EVENTS``-event pieces, as the session cuts a
    generated stream; an interval's truth is its pair count plus its
    candidates, exactly what ``_interval_truth`` builds.  Returns the
    row of the ``truth`` table: ms per interval on the NumPy sort and
    on the compiled pair table, each the best of *repeats*.
    """
    from .core.kernels import HashedPairCounts, SortedPairCounts
    from .profiling.session import CHUNK_EVENTS, _IntervalTruth

    length = spec.length
    intervals = [[(pcs[lo:min(lo + CHUNK_EVENTS, start + length)],
                   values[lo:min(lo + CHUNK_EVENTS, start + length)])
                  for lo in range(start, start + length, CHUNK_EVENTS)]
                 for start in range(0, len(pcs), length)]
    threshold = spec.threshold_count
    rows = {}
    for path, count in (("numpy", SortedPairCounts),
                        ("compiled", HashedPairCounts)):
        best = None
        for _ in range(repeats):
            started = time_module.perf_counter()
            for pieces in intervals:
                _IntervalTruth(count(pieces), threshold)
            elapsed = time_module.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        rows[path] = {"ms_per_interval": 1e3 * best / len(intervals)}
    counts = [SortedPairCounts(pieces) for pieces in intervals]
    return {
        "interval_length": length,
        "threshold": spec.threshold,
        "intervals": len(intervals),
        "piece_events": CHUNK_EVENTS,
        "distinct_per_interval": sum(c.distinct for c in counts)
        / len(counts),
        "candidates_per_interval": sum(len(c.at_least(threshold)[0])
                                       for c in counts) / len(counts),
        "rows": rows,
        "speedup": (rows["numpy"]["ms_per_interval"]
                    / rows["compiled"]["ms_per_interval"]),
    }


#: Multi-session operating point: concurrent sessions advance in
#: lockstep ticks of a small per-session chunk -- the latency-bound
#: streaming regime of the profile service, where the fixed cost of
#: each call counts.  Every row serves the same total of events, split
#: evenly over its sessions, so that the rows time equal work.
_BENCH_SESSION_COUNTS = [1, 8, 64]
_BENCH_QUICK_SESSION_COUNTS = [1, 8]
_BENCH_SESSION_EVENTS = 64 * 20_000
_BENCH_QUICK_SESSION_EVENTS = 8 * 2_000
_BENCH_SESSION_SPEC = (10_000, 0.01)
_BENCH_QUICK_SESSION_SPEC = (2_000, 0.01)
_BENCH_SESSION_TICK = 100


def _bench_feed_sessions(config, backend, streams, spec, time_module):
    """Time one backend serving ``len(streams)`` concurrent sessions.

    Every tick advances each session by ``_BENCH_SESSION_TICK`` events,
    one ``observe_chunk`` (``scalar-chunked``) or
    ``observe_array_chunk`` (``vectorized``) call per session per tick.
    Returns ``(seconds, ticks, kernel_dispatches)``.
    """
    from .profiling.session import ProfilingSession

    resolved = config.with_backend(
        "scalar" if backend == "scalar-chunked" else "vectorized")
    profilers = [_bench_profiler(resolved) for _ in streams]
    tick = _BENCH_SESSION_TICK
    length = spec.length
    total = len(streams[0][0])
    if backend == "scalar-chunked":
        functions = [ProfilingSession._hash_functions(profiler)
                     for profiler in profilers]
    ticks = 0
    offset = 0
    started = time_module.perf_counter()
    while offset < total:
        take = min(tick, length - offset % length, total - offset)
        stop = offset + take
        ticks += 1
        if backend == "vectorized":
            for profiler, (pcs, values) in zip(profilers, streams):
                profiler.observe_array_chunk(pcs[offset:stop],
                                             values[offset:stop])
        else:
            for profiler, (pcs, values), funcs in zip(profilers, streams,
                                                      functions):
                piece_pcs = pcs[offset:stop]
                piece_values = values[offset:stop]
                events = list(zip(piece_pcs.tolist(),
                                  piece_values.tolist()))
                index_lists = [
                    f.index_array(piece_pcs, piece_values).tolist()
                    for f in funcs]
                profiler.observe_chunk(events, index_lists)
        if stop % length == 0:
            for profiler in profilers:
                profiler.end_interval()
        offset = stop
    elapsed = time_module.perf_counter() - started
    return elapsed, ticks, len(streams) * ticks


def _run_bench(args: argparse.Namespace) -> int:
    """Measure profiler event throughput per backend and architecture.

    Covers the paper's two headline architectures -- the fig07 best
    single-hash (SH-R1-P1) and the fig12 best multi-hash (MH4-C1-P1)
    -- at two operating points, with three rows each:

    * ``scalar``: the per-event ``observe()`` reference loop the
      kernels are parity-tested against (run once -- it is slow),
    * ``scalar-chunked``: the scalar production path (``observe_chunk``
      with vectorized pre-hashing, as ``SessionFeeder`` drives it),
    * ``vectorized``: the compiled per-event loop.

    Every row consumes the identical pre-generated stream, split at
    interval boundaries; only profiler work is timed.  The headline
    speedup is vectorized vs the per-event reference; the
    chunked-baseline speedup is reported alongside so the comparison
    against the tuned scalar path stays honest.  A second table times
    the interval truth step at the same operating points, on the NumPy
    sort and on the compiled pair table.  A third serves 1, 8 and 64
    concurrent sessions in 100-event ticks, where each call's fixed
    cost counts; every row serves the same total of events.
    """
    import json
    import os
    import time

    from .core.config import best_multi_hash, best_single_hash

    feeders = [("scalar", _bench_feed_scalar),
               ("scalar-chunked", _bench_feed_chunked),
               ("vectorized", _bench_feed_vectorized)]
    points = _BENCH_QUICK_POINTS if args.quick else _BENCH_POINTS
    workloads = []
    speedups = {}
    chunked_speedups = {}
    for figure, factory in (("fig07", best_single_hash),
                            ("fig12", best_multi_hash)):
        for point, length, threshold, intervals in points:
            spec = IntervalSpec(length, threshold)
            config = factory(spec)
            pcs, values = benchmark_generator(
                args.benchmark, seed=args.seed).chunk(length * intervals)
            rows = {}
            for backend, feed in feeders:
                resolved = config.with_backend(
                    "vectorized" if backend == "vectorized" else "scalar")
                repeats = 1 if backend == "scalar" else max(1, args.repeats)
                elapsed = min(
                    _timed(_bench_profiler(resolved), feed, pcs, values,
                           spec, time)
                    for _ in range(repeats))
                rows[backend] = {
                    "seconds": elapsed,
                    "events_per_second": len(pcs) / elapsed,
                }
                print(f"{figure} {config.label:>14} {point:>5} "
                      f"{backend:>14}: "
                      f"{len(pcs) / elapsed:>12,.0f} events/s  "
                      f"({elapsed:.3f}s)")
            vec = rows["vectorized"]["events_per_second"]
            speedup = vec / rows["scalar"]["events_per_second"]
            chunked = vec / rows["scalar-chunked"]["events_per_second"]
            key = f"{config.label}:{point}"
            speedups[key] = speedup
            chunked_speedups[key] = chunked
            print(f"{figure} {config.label:>14} {point:>5}    speedup: "
                  f"{speedup:.1f}x vs scalar, {chunked:.2f}x vs chunked")
            workloads.append({
                "figure": figure,
                "architecture": config.label,
                "point": point,
                "interval_length": length,
                "threshold": threshold,
                "events": len(pcs),
                "rows": rows,
                "speedup_vs_scalar": speedup,
                "speedup_vs_chunked": chunked,
            })

    # -- the interval truth step ----------------------------------------
    truth = []
    for point, length, threshold, intervals in points:
        pcs, values = benchmark_generator(
            args.benchmark, seed=args.seed).chunk(length * intervals)
        row = _bench_truth(pcs, values, IntervalSpec(length, threshold),
                           max(1, args.repeats), time)
        for path, timing in row["rows"].items():
            print(f"truth {point:>5} {path:>8}: "
                  f"{timing['ms_per_interval']:>8.2f} ms/interval")
        print(f"truth {point:>5}  speedup: {row['speedup']:.1f}x "
              f"compiled vs numpy")
        truth.append({"point": point, **row})

    # -- concurrent sessions in small ticks ----------------------------
    session_counts = (_BENCH_QUICK_SESSION_COUNTS if args.quick
                      else _BENCH_SESSION_COUNTS)
    session_spec = IntervalSpec(*(_BENCH_QUICK_SESSION_SPEC if args.quick
                                  else _BENCH_SESSION_SPEC))
    total_events = (_BENCH_QUICK_SESSION_EVENTS if args.quick
                    else _BENCH_SESSION_EVENTS)
    sessions_out = []
    session_speedups = {}
    for figure, factory in (("fig07", best_single_hash),
                            ("fig12", best_multi_hash)):
        config = factory(session_spec)
        for count in session_counts:
            per_session = total_events // count
            streams = [
                benchmark_generator(args.benchmark,
                                    seed=args.seed + position
                                    ).chunk(per_session)
                for position in range(count)]
            rows = {}
            for backend in ("scalar-chunked", "vectorized"):
                repeats = (1 if backend == "scalar-chunked"
                           else max(1, args.repeats))
                best = min(
                    (_bench_feed_sessions(config, backend, streams,
                                          session_spec, time)
                     for _ in range(repeats)),
                    key=lambda result: result[0])
                elapsed, ticks, dispatches = best
                rows[backend] = {
                    "seconds": elapsed,
                    "events_per_second": total_events / elapsed,
                    "ticks": ticks,
                    "kernel_dispatches": dispatches,
                    "dispatches_per_tick": dispatches / ticks,
                }
                print(f"{figure} {config.label:>14} sessions={count:<3} "
                      f"{backend:>14}: "
                      f"{total_events / elapsed:>12,.0f} events/s  "
                      f"({elapsed:.3f}s)")
            speedup = (rows["vectorized"]["events_per_second"]
                       / rows["scalar-chunked"]["events_per_second"])
            key = f"{config.label}@{count}"
            session_speedups[key] = speedup
            print(f"{figure} {config.label:>14} sessions={count:<3} "
                  f"   speedup: {speedup:.2f}x vs scalar-chunked")
            sessions_out.append({
                "figure": figure,
                "architecture": config.label,
                "sessions": count,
                "interval_length": session_spec.length,
                "threshold": session_spec.threshold,
                "events_per_session": per_session,
                "tick_events": _BENCH_SESSION_TICK,
                "events": total_events,
                "rows": rows,
                "speedup_vs_scalar_chunked": speedup,
            })

    report = {
        "benchmark": args.benchmark,
        "seed": args.seed,
        "quick": bool(args.quick),
        "workloads": workloads,
        "speedups": speedups,
        "chunked_speedups": chunked_speedups,
        "truth": truth,
        "sessions": sessions_out,
        "session_speedups": session_speedups,
    }
    atomic_write_json(args.output, report)
    print(f"wrote {args.output}")
    return 0


def _run_scenario(args: argparse.Namespace) -> int:
    from .workloads import scenarios

    if args.scenario_command == "list":
        presets = scenarios.list_presets()
        if not presets:
            print("no shipped presets found", file=sys.stderr)
            return 1
        for name in presets:
            config = scenarios.load_scenario(name)
            description = " ".join(config.description.split())
            print(f"{name}: {description or '(no description)'}")
        return 0
    config = scenarios.load_scenario(args.config, seed=args.seed)
    if args.scenario_command == "validate":
        profile = config.profile
        print(f"{config.name}: ok")
        print(f"  kind {config.kind.value}, seed {config.seed}")
        print(f"  profile: interval {profile.interval_length:,} @ "
              f"{100 * profile.threshold:g}%, "
              f"{profile.intervals} intervals")
        print(f"  fingerprint {config.fingerprint()}")
        return 0
    if args.store:
        import os

        from .workloads.trace_store import TraceStore, default_cache_dir

        store = TraceStore(os.path.join(default_cache_dir(), "traces"))
        trace = store.get_scenario(config, num_intervals=args.intervals)
        print(f"materialized {len(trace)} events for "
              f"scenario:{config.name} (fingerprint "
              f"{config.fingerprint()[:20]}) under {store.directory}")
        return 0
    if args.output:
        events = scenarios.write_jsonl(config, args.output,
                                       num_intervals=args.intervals)
        print(f"wrote {events} events to {args.output}")
        return 0
    for line in scenarios.jsonl_lines(config, num_intervals=args.intervals):
        print(line)
    return 0


def _bench_profiler(config):
    """Build a profiler with its hash pipeline pre-warmed.

    The scalar path's vectorized pre-hashing builds its folded lookup
    tables lazily on first use; that one-time setup cost belongs to
    profiler construction, not to the timed throughput loop.
    """
    import numpy as np

    from .core.multi_hash import build_profiler
    from .profiling.session import ProfilingSession

    profiler = build_profiler(config)
    probe = np.zeros(8, dtype=np.uint64)
    for function in ProfilingSession._hash_functions(profiler) or []:
        function.index_array(probe, probe)
    return profiler


def _timed(profiler, feed, pcs, values, spec, time) -> float:
    started = time.perf_counter()
    feed(profiler, pcs, values, spec)
    return time.perf_counter() - started


#: Smoke-run caps applied by ``loadgen --quick``.
_LOADGEN_QUICK_STREAMS = 32
_LOADGEN_QUICK_EVENTS = 1024


def _run_loadgen(args: argparse.Namespace) -> int:
    """Run named load profiles; write ``BENCH_service.json``."""
    import os

    from .loadgen import PROFILES, get_profile, list_profiles, run_profile

    if args.list:
        for name in list_profiles():
            profile = PROFILES[name]
            print(f"{name}: {profile.streams} streams x "
                  f"{profile.events_per_stream:,} events, "
                  f"{profile.connections} connections -- "
                  f"{profile.description}")
        return 0
    names = args.profiles or list_profiles()
    profiles = [get_profile(name) for name in names]
    streams_cap = args.streams
    events_cap = args.events
    if args.quick:
        streams_cap = min(streams_cap or _LOADGEN_QUICK_STREAMS,
                          _LOADGEN_QUICK_STREAMS)
        events_cap = min(events_cap or _LOADGEN_QUICK_EVENTS,
                         _LOADGEN_QUICK_EVENTS)
    if streams_cap or events_cap:
        profiles = [
            profile.scaled(streams_cap or profile.streams,
                           events_cap or profile.events_per_stream)
            for profile in profiles]

    report = {
        "quick": bool(args.quick),
        "cpu_count": os.cpu_count(),
        "workers": args.workers,
        "max_pending": args.max_pending,
        "profiles": {profile.name: {
            "streams": profile.streams,
            "events_per_stream": profile.events_per_stream,
            "batch_events": profile.batch_events,
            "coalesce": profile.coalesce,
            "connections": profile.connections,
            "source": profile.source,
            "scenario": profile.scenario or None,
            "description": profile.description,
        } for profile in profiles},
    }
    rows = []
    for profile in profiles:
        row = run_profile(profile, num_workers=args.workers,
                          max_pending=args.max_pending)
        print(f"{row['profile']:>24} "
              f"{row['events_per_second']:>12,.0f} events/s  "
              f"{row['requests_per_second']:>8,.0f} req/s  "
              f"snapshot p50/p99 "
              f"{row['snapshot_latency']['p50_ms']:.1f}/"
              f"{row['snapshot_latency']['p99_ms']:.1f} ms  "
              f"failures {row['failures']}")
        rows.append(row)
    report["rows"] = rows
    if args.output != "-":
        atomic_write_json(args.output, report)
        print(f"wrote {args.output}")
    return 0


def _run_snapshot(args: argparse.Namespace) -> int:
    import json

    from .service import ProfileClient, ServiceError

    if not args.stats and not args.stream:
        print("error: name a --stream or ask for --stats",
              file=sys.stderr)
        return 2
    try:
        with ProfileClient(host=args.host, port=args.port) as client:
            if args.stats:
                print(json.dumps(client.server_stats(), indent=2))
            else:
                _print_snapshot(client.snapshot(args.stream), args.top)
    except ServiceError as error:
        print(f"error: server refused ({error.code}): {error}",
              file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"stream": _run_stream, "trace": _run_trace,
                "record": _run_record, "serve": _run_serve,
                "push": _run_push, "snapshot": _run_snapshot,
                "bench": _run_bench, "scenario": _run_scenario,
                "loadgen": _run_loadgen}
    try:
        return handlers[args.command](args)
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ConnectionError as error:
        print(f"error: cannot reach the profile server: {error}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
