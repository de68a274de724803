"""Spans around the calls into each layer, and the per-layer metrics.

The traced run wraps the program's functions at the layer boundaries
from the benchmark's own code (nothing in ``src/`` is instrumented).
Each wrapper records a span ``(sid, parent, name, start_ns, end_ns,
amount)`` in memory; the parent comes from a context variable, so
spans nest per thread and per asyncio task.  ``amount`` is the work
the call carried (events, ops, bytes or a frame type).  Spans are
written out when the run ends: the benchmark keeps its own in memory,
and the launched server and each forked worker write a JSON file.

A span's self time is its duration minus the part of it that its
child spans cover.  A span's layer is its name up to the first dot;
``bench`` spans (the benchmark's own request loop) and ``wait`` spans
(a request parked on a worker) belong to no layer.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Layers in report order; ``queue`` has no spans of its own (see
#: :func:`layer_metrics`).
LAYERS = ("client", "server", "queue", "worker", "session", "kernels",
          "hashing", "batched")

#: Largest share of the mean push round trip by which the client,
#: server and worker spans may over-cover it (``queue.hop_us`` below
#: ``-HOP_TOLERANCE`` x round trip fails the trace check).
HOP_TOLERANCE = 0.05

#: Largest share of a single-threaded traced run's wall time that may
#: lie outside every layer's self time: the benchmark's own loop
#: between the calls plus the ``bench.push`` wrapper around them.
UNACCOUNTED_TOLERANCE = 0.02

#: ``T_BATCH`` frame type, the ``amount`` of a push's dispatch span.
_T_BATCH = 0x02

Span = Tuple[int, int, str, int, int, int]

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=-1)


class Tracer:
    """In-memory span and counter store of one process."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)

    def begin(self) -> Tuple[int, int, Any]:
        sid = next(self._ids)
        parent = _current.get()
        return sid, parent, _current.set(sid)

    def end(self, opened, name: str, start: int, amount: int) -> None:
        sid, parent, token = opened
        _current.reset(token)
        self.spans.append((sid, parent, name, start,
                           time.perf_counter_ns(), amount))

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "counts": dict(self.counts)}, handle)


def traced(tracer: Tracer, name: str, func: Callable,
           amount: Optional[Callable[[tuple, Any], int]] = None
           ) -> Callable:
    """*func* wrapped in a span; ``amount(args, result)`` sizes it."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        opened = tracer.begin()
        start = time.perf_counter_ns()
        result = None
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            tracer.end(opened, name, start,
                       amount(args, result) if amount else 0)
    return wrapper


def traced_async(tracer: Tracer, name: str, func: Callable,
                 amount: Callable[[tuple], int]) -> Callable:
    """Coroutine-function version of :func:`traced`."""
    @functools.wraps(func)
    async def wrapper(*args, **kwargs):
        opened = tracer.begin()
        start = time.perf_counter_ns()
        try:
            return await func(*args, **kwargs)
        finally:
            tracer.end(opened, name, start, amount(args))
    return wrapper


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner: Any, attr: str, name: str,
             amount: Optional[Callable[[tuple, Any], int]] = None) -> None:
        self.replace(owner, attr,
                     traced(tracer, name, getattr(owner, attr), amount))

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []


def _first_len(args, _result=None) -> int:
    return len(args[1])


def _result_len(_args, result) -> int:
    return len(result) if result is not None else 0


def install_profiler(tracer: Tracer, patches: Patches) -> None:
    """Wrap the session, kernel, hashing and batched layers."""
    from repro.core import base, batched, hashing, kernels
    from repro.profiling import session
    from repro.service import worker

    patches.wrap(tracer, session.SessionFeeder, "feed", "session.feed",
                 _first_len)
    feed_many = traced(
        tracer, "session.feed_many", session.feed_many,
        lambda args, _r: sum(len(item[1]) for item in args[0]))
    patches.replace(session, "feed_many", feed_many)
    patches.replace(worker, "feed_many", feed_many)
    patches.wrap(tracer, session, "_interval_truth", "session.truth")
    patches.wrap(tracer, session, "interval_error", "session.score")
    patches.wrap(tracer, base.HardwareProfiler, "end_interval",
                 "session.end_interval")
    patches.wrap(tracer, kernels.VectorizedSingleHashProfiler,
                 "observe_array_chunk", "kernels.sh", _first_len)
    patches.wrap(tracer, kernels.VectorizedMultiHashProfiler,
                 "observe_array_chunk", "kernels.mh4", _first_len)
    patches.wrap(tracer, hashing.TupleHashFunction, "index_array",
                 "hashing.index", _first_len)
    patches.wrap(tracer, hashing.TupleHashFunction, "_build_fold_tables",
                 "hashing.build")
    patches.wrap(tracer, batched.BatchedKernelRunner, "dispatch",
                 "batched.dispatch", _first_len)


def install_client(tracer: Tracer, patches: Patches) -> None:
    """Wrap the client side of the wire protocol."""
    from repro.service import protocol

    patches.wrap(tracer, protocol, "encode_batch_chunks",
                 "client.encode_batch", _result_len)
    patches.wrap(tracer, protocol, "encode_json", "client.encode_json",
                 _result_len)
    patches.wrap(tracer, protocol, "decode_json", "client.decode",
                 lambda args, _r: len(args[0]))


def install_server(tracer: Tracer, patches: Patches,
                   span_dir: str) -> None:
    """Wrap the server, its queue hand-off and the worker.

    Must run before ``ProfileServer.start()``: the forked workers
    inherit the wrappers, start with an empty span store and write it
    to *span_dir* during their shutdown drain.
    """
    from repro.service import protocol, server, worker

    install_profiler(tracer, patches)
    patches.replace(server.ProfileServer, "_dispatch", traced_async(
        tracer, "server.dispatch", server.ProfileServer._dispatch,
        lambda args: args[1]))
    patches.wrap(tracer, protocol, "parse_batch_header", "server.parse")
    patches.wrap(tracer, protocol, "decode_json", "server.parse")
    reply = server.ProfileServer.__dict__["_reply_frame"].__func__
    patches.replace(server.ProfileServer, "_reply_frame",
                    staticmethod(traced(tracer, "server.reply", reply)))

    submit = server._WorkerHandle.submit

    def traced_submit(handle, loop, message):
        # The request waits from here until the worker's reply resolves
        # its future: a ``wait`` span, closed by the future's callback.
        opened = tracer.begin()
        start = time.perf_counter_ns()
        try:
            future = submit(handle, loop, message)
        except server.WorkerBusy:
            tracer.end(opened, "wait.busy", start, 0)
            raise
        _current.reset(opened[2])
        future.add_done_callback(lambda _f: tracer.spans.append(
            (opened[0], opened[1], "wait.worker", start,
             time.perf_counter_ns(), 0)))
        return future

    patches.replace(server._WorkerHandle, "submit", traced_submit)

    flush = server._WorkerHandle._flush_pending

    def counted_flush(handle):
        if handle._pending:
            tracer.counts["server.puts"] += 1
            tracer.counts["server.put_ops"] += len(handle._pending)
        flush(handle)

    patches.replace(server._WorkerHandle, "_flush_pending", counted_flush)

    main = server.worker_main

    def traced_worker_main(*args, **kwargs):
        tracer.reset()
        main(*args, **kwargs)

    patches.replace(server, "worker_main", traced_worker_main)
    patches.wrap(tracer, worker._Worker, "batch_many", "worker.fold",
                 _first_len)
    patches.wrap(tracer, worker, "snapshot_dict", "worker.snapshot")
    drain = worker._Worker.drain

    def dumping_drain(state):
        reply = drain(state)
        tracer.dump(os.path.join(span_dir, f"spans-{os.getpid()}.json"))
        return reply

    patches.replace(worker._Worker, "drain", dumping_drain)


def load_span_files(span_dir: str) -> Tuple[Dict[int, List[Span]],
                                            Dict[str, int]]:
    """Spans per process and summed counters from *span_dir*."""
    spans: Dict[int, List[Span]] = {}
    counts: Dict[str, int] = defaultdict(int)
    for name in sorted(os.listdir(span_dir)):
        if not name.startswith("spans-"):
            continue
        with open(os.path.join(span_dir, name)) as handle:
            data = json.load(handle)
        spans[data["pid"]] = [tuple(span) for span in data["spans"]]
        for key, value in data["counts"].items():
            counts[key] += value
    return spans, dict(counts)


# -- self-time arithmetic ------------------------------------------------

def covered(start: int, end: int,
            intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[start, end)`` covered by the union of *intervals*."""
    clipped = sorted((max(start, lo), min(end, hi))
                     for lo, hi in intervals)
    total = 0
    reach = start
    for lo, hi in clipped:
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time (ns) of every span of one process, by span id."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for _sid, parent, _name, start, end, _amount in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return {sid: (end - start) - covered(start, end, children[sid])
            for sid, _parent, _name, start, end, _amount in spans}


def roots(spans: Sequence[Span]) -> Dict[int, int]:
    """Root span id of every span of one process."""
    parent_of = {span[0]: span[1] for span in spans}
    root_of: Dict[int, int] = {}
    for sid in parent_of:
        chain = [sid]
        while parent_of.get(chain[-1], -1) in parent_of:
            chain.append(parent_of[chain[-1]])
        for member in chain:
            root_of[member] = chain[-1]
    return root_of


def layer_of(name: str) -> Optional[str]:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else None


def check_accounted(spans: Sequence[Span], window: Tuple[int, int]
                    ) -> Tuple[float, List[str]]:
    """Share of a single-threaded traced run's wall time that no
    layer's self time covers, and the failed check if it exceeds
    ``UNACCOUNTED_TOLERANCE``.

    In one thread the self times of a span tree add up to its root's
    duration, so this share is the time outside every span (the loop
    between calls) plus the self time of spans of no layer (the
    ``bench.push`` wrapper).  It grows when work moves out of the
    wrapped calls or the tracing itself gets slower.
    """
    lo, hi = window
    own = self_times(spans)
    layers = sum(own[span[0]] for span in spans
                 if lo <= span[3] <= hi and layer_of(span[2]))
    share = (hi - lo - layers) / (hi - lo)
    if share > UNACCOUNTED_TOLERANCE:
        return share, [f"{share:.2%} of the traced wall time lies outside "
                       f"every layer (tolerance "
                       f"{UNACCOUNTED_TOLERANCE:.0%})"]
    return share, []


# -- per-layer metrics ---------------------------------------------------

def _mean(total: float, count: int) -> float:
    return total / count if count else 0.0


def layer_metrics(processes: Dict[int, List[Span]], counts: Dict[str, int],
                  window: Tuple[int, int], busy_rejections: int
                  ) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one traced run, and its failed checks.

    *processes* maps pid to spans; *window* is the traced phase in
    ``perf_counter_ns`` time, the denominator of every share.  Table
    builds are counted over the whole run, since warming them is
    set-up; everything else only over spans that start in the window.
    """
    lo, hi = window
    wall = hi - lo
    layer_self: Dict[str, int] = defaultdict(int)
    by_name: Dict[str, List[Tuple[int, int, int]]] = defaultdict(list)
    builds: List[int] = []
    push_rtt: List[int] = []
    pushed_events = 0
    client_push_self = 0
    snapshot_reply_bytes: List[int] = []
    server_push_self = 0
    push_dispatches = 0
    failures: List[str] = []

    for spans in processes.values():
        own = self_times(spans)
        root_of = roots(spans)
        names = {span[0]: span[2] for span in spans}
        amounts = {span[0]: span[5] for span in spans}
        for sid, _parent, name, start, end, amount in spans:
            if name == "hashing.build":
                builds.append(end - start)
            if not lo <= start <= hi:
                continue
            by_name[name].append((end - start, own[sid], amount))
            layer = layer_of(name)
            if layer:
                layer_self[layer] += own[sid]
            root = root_of[sid]
            if name == "bench.push":
                push_rtt.append(end - start)
                pushed_events += amount
            elif layer == "client" and names[root] == "bench.push":
                client_push_self += own[sid]
            if name == "client.decode" and names[root] == "bench.snapshot":
                snapshot_reply_bytes.append(amount)
            if layer == "server" and amounts.get(root) == _T_BATCH \
                    and names[root] == "server.dispatch":
                server_push_self += own[sid]
                if name == "server.dispatch":
                    push_dispatches += 1

    def durations(name: str) -> List[int]:
        return [row[0] for row in by_name[name]]

    def selfs(name: str) -> List[int]:
        return [row[1] for row in by_name[name]]

    def amounts_of(name: str) -> List[int]:
        return [row[2] for row in by_name[name]]

    metrics: Dict[str, float] = {}
    encodes = by_name["client.encode_batch"] + by_name["client.encode_json"]
    metrics["client.encode_us"] = _mean(sum(r[0] for r in encodes),
                                        len(encodes)) / 1e3
    metrics["client.decode_us"] = _mean(sum(durations("client.decode")),
                                        len(by_name["client.decode"])) / 1e3
    metrics["client.bytes_per_event"] = _mean(
        sum(amounts_of("client.encode_batch")), pushed_events)

    dispatch_us = []
    for spans in processes.values():
        waits: Dict[int, int] = defaultdict(int)
        for _sid, parent, name, start, end, _amount in spans:
            if name in ("wait.worker", "server.reply") and lo <= start <= hi:
                waits[parent] += end - start
        dispatch_us.extend((end - start - waits[sid]) / 1e3
                           for sid, _p, name, start, end, _a in spans
                           if name == "server.dispatch" and lo <= start <= hi)
    metrics["server.dispatch_us"] = _mean(sum(dispatch_us), len(dispatch_us))
    metrics["server.reply_encode_us"] = _mean(
        sum(durations("server.reply")), len(by_name["server.reply"])) / 1e3
    metrics["server.ops_per_put"] = _mean(counts.get("server.put_ops", 0),
                                          counts.get("server.puts", 0))
    metrics["server.busy_rejections"] = busy_rejections

    fold_ops = sum(amounts_of("worker.fold"))
    worker_per_op = _mean(sum(durations("worker.fold")), fold_ops)
    if push_rtt and push_dispatches:
        hop = (_mean(sum(push_rtt), len(push_rtt))
               - _mean(client_push_self, len(push_rtt))
               - _mean(server_push_self, push_dispatches)
               - worker_per_op)
        if hop < -HOP_TOLERANCE * _mean(sum(push_rtt), len(push_rtt)):
            failures.append(f"client, server and worker spans over-cover "
                            f"the mean push round trip by {-hop:.0f} ns")
        layer_self["queue"] = int(hop * len(push_rtt))
    else:
        hop = 0.0
    metrics["queue.hop_us"] = hop / 1e3
    metrics["worker.fold_us_per_op"] = worker_per_op / 1e3
    metrics["worker.ops_per_tick"] = _mean(fold_ops,
                                           len(by_name["worker.fold"]))
    metrics["worker.snapshot_ms"] = _mean(
        sum(durations("worker.snapshot")),
        len(by_name["worker.snapshot"])) / 1e6
    metrics["worker.snapshot_kb"] = _mean(sum(snapshot_reply_bytes),
                                          len(snapshot_reply_bytes)) / 1024

    fed = sum(amounts_of("session.feed")) + sum(amounts_of("session.feed_many"))
    metrics["session.feed_us_per_kevent"] = _mean(
        sum(selfs("session.feed")) + sum(selfs("session.feed_many")),
        fed / 1000) / 1e3
    closed = len(by_name["session.truth"])
    metrics["session.truth_ms_per_interval"] = _mean(
        sum(durations("session.truth")), closed) / 1e6
    metrics["session.score_ms_per_interval"] = _mean(
        sum(durations("session.end_interval"))
        + sum(durations("session.score")), closed) / 1e6
    metrics["session.intervals_closed"] = closed
    metrics["session.truth_share"] = _mean(sum(durations("session.truth")),
                                           wall)

    for arch in ("sh", "mh4"):
        name = f"kernels.{arch}"
        metrics[f"{name}.ns_per_event"] = _mean(sum(selfs(name)),
                                                sum(amounts_of(name)))
    kernel_rows = by_name["kernels.sh"] + by_name["kernels.mh4"]
    metrics["kernels.us_per_call"] = _mean(sum(r[1] for r in kernel_rows),
                                           len(kernel_rows)) / 1e3
    metrics["kernels.events_per_call"] = _mean(sum(r[2] for r in kernel_rows),
                                               len(kernel_rows))

    metrics["hashing.ns_per_event"] = _mean(sum(selfs("hashing.index")),
                                            sum(amounts_of("hashing.index")))
    metrics["hashing.table_builds"] = len(builds)
    metrics["hashing.build_ms"] = _mean(sum(builds), len(builds)) / 1e6

    dispatches = len(by_name["batched.dispatch"])
    metrics["batched.dispatches"] = dispatches
    metrics["batched.requests_per_dispatch"] = _mean(
        sum(amounts_of("batched.dispatch")), dispatches)
    metrics["batched.us_per_dispatch"] = _mean(
        sum(selfs("batched.dispatch")), dispatches) / 1e3

    for layer in LAYERS:
        metrics[f"{layer}.share"] = _mean(layer_self[layer], wall)
    return metrics, failures
