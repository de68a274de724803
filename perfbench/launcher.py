"""Start a traced profile server: ``repro-profile serve`` plus spans.

Run as ``python3 -m perfbench.launcher --span-dir DIR`` with ``src``
and the repository root on ``PYTHONPATH``.  It installs the server,
worker and profiler wrappers of :mod:`perfbench.tracing` before
``ProfileServer.start()``, so the forked workers inherit them; then it
behaves like ``repro-profile serve --port 0``: it prints the listening
line and serves until SIGINT.  On SIGINT it drains the
server (each worker writes its spans to DIR while draining) and writes
its own spans to DIR.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import signal
import sys
import time

from perfbench import tracing
from repro.service import ProfileServer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--span-dir", required=True)
    args = parser.parse_args(argv)
    if multiprocessing.get_start_method() != "fork":
        print("error: traced workers need the fork start method",
              file=sys.stderr)
        return 2
    tracer = tracing.Tracer()
    tracing.install_server(tracer, tracing.Patches(), args.span_dir)
    server = ProfileServer(port=0)
    server.start()
    print(f"profile server listening on {server.host}:{server.port}",
          flush=True)
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        server.stop()
        tracer.dump(os.path.join(args.span_dir,
                                 f"spans-{os.getpid()}.json"))
        print("drained and stopped", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
