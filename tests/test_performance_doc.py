"""``docs/PERFORMANCE.md`` quotes the checked-in kernel benchmark.

The *Measured throughput* table must repeat
``benchmarks/results/BENCH_kernels.json`` row for row, at the table's
rounding, so the doc cannot drift from the artifact it cites.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "PERFORMANCE.md"
ARTIFACT = ROOT / "benchmarks" / "results" / "BENCH_kernels.json"


def measured_table() -> List[List[str]]:
    """Body rows of the *Measured throughput* table, cells stripped of
    bold markers."""
    section = DOC.read_text(encoding="utf-8").split(
        "## Measured throughput", 1)[1].split("\n#", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip().strip("*") for cell in line.strip("|").split("|")]
            for line in lines[2:]]


def artifact_rows() -> List[List[str]]:
    """The same rows formatted from the artifact."""
    report = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    rows = []
    for workload in report["workloads"]:
        length = workload["interval_length"]
        speeds = {backend: f"{row['events_per_second'] / 1e6:.2f} M ev/s"
                  for backend, row in workload["rows"].items()}
        rows.append([
            f"{workload['figure']} {workload['architecture']}",
            f"{workload['point']} ({workload['events'] // length}×"
            f"{length // 1000}K @ {workload['threshold'] * 100:g}%)",
            speeds["scalar"], speeds["scalar-chunked"],
            speeds["vectorized"],
            f"{workload['speedup_vs_scalar']:.1f}×",
            f"{workload['speedup_vs_chunked']:.2f}×",
        ])
    return rows


def test_measured_throughput_table_quotes_the_artifact():
    assert measured_table() == artifact_rows()


def test_table_names_the_artifacts_stream():
    report = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    assert not report["quick"]
    section = DOC.read_text(encoding="utf-8").split(
        "## Measured throughput", 1)[1]
    assert (f"{report['benchmark']}-calibrated stream, "
            f"seed {report['seed']}") in section
