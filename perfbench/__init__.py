"""End-to-end and per-layer benchmark of the profile service and the
in-process profiler.  Run ``python3 perfbench/run.py --help``."""
