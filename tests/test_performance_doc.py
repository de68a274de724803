"""``docs/PERFORMANCE.md`` quotes the checked-in benchmarks.

The *Measured throughput* and *Ground truth* tables must repeat
``benchmarks/results/BENCH_kernels.json`` row for row, the *Measured
service throughput* table ``benchmarks/results/BENCH_service.json``,
and the suite's *Measured wall-clock* table
``benchmarks/results/BENCH_experiments.json``, at the tables'
rounding, so the doc cannot drift from the artifacts it cites.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "PERFORMANCE.md"
ARTIFACT = ROOT / "benchmarks" / "results" / "BENCH_kernels.json"
SERVICE_ARTIFACT = ROOT / "benchmarks" / "results" / "BENCH_service.json"
SUITE_ARTIFACT = ROOT / "benchmarks" / "results" / "BENCH_experiments.json"


def doc_section(heading: str) -> str:
    """The doc's text from *heading* to the next heading."""
    return DOC.read_text(encoding="utf-8").split(
        heading, 1)[1].split("\n#", 1)[0]


def table_rows(heading: str) -> List[List[str]]:
    """Body rows of the table under *heading*, cells stripped of bold
    markers."""
    lines = [line for line in doc_section(heading).splitlines()
             if line.startswith("|")]
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
    assert table_rows("## Measured throughput") == artifact_rows()


def test_table_names_the_artifacts_stream():
    report = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    assert not report["quick"]
    section = DOC.read_text(encoding="utf-8").split(
        "## Measured throughput", 1)[1]
    assert (f"{report['benchmark']}-calibrated stream, "
            f"seed {report['seed']}") in section


def truth_rows() -> List[List[str]]:
    """The ground-truth table's rows formatted from the artifact."""
    report = json.loads(ARTIFACT.read_text(encoding="utf-8"))
    rows = []
    for row in report["truth"]:
        length = row["interval_length"]
        rows.append([
            f"{row['point']} ({row['intervals']}×{length // 1000}K @ "
            f"{row['threshold'] * 100:g}%)",
            f"{row['distinct_per_interval']:,.0f}",
            f"{row['candidates_per_interval']:,.0f}",
            f"{row['rows']['numpy']['ms_per_interval']:.2f} ms",
            f"{row['rows']['compiled']['ms_per_interval']:.2f} ms",
            f"{row['speedup']:.1f}×",
        ])
    return rows


def test_ground_truth_table_quotes_the_artifact():
    assert table_rows("## Ground truth") == truth_rows()


def service_rows() -> List[List[str]]:
    """The service table's rows formatted from its artifact."""
    report = json.loads(SERVICE_ARTIFACT.read_text(encoding="utf-8"))
    rows = []
    for row in report["rows"]:
        push, snapshot = row["push_latency"], row["snapshot_latency"]
        rows.append([
            row["profile"], str(row["streams"]), str(row["batch_events"]),
            str(row["coalesce"]), f"{row['events_per_second']:,.0f}",
            f"{push['p50_ms']:.1f} / {push['p99_ms']:.1f}",
            f"{snapshot['p50_ms']:.1f} / {snapshot['p99_ms']:.1f}",
            str(row["failures"]),
        ])
    return rows


def test_service_table_quotes_the_artifact():
    assert table_rows("### Measured service throughput") == service_rows()


def test_service_table_names_the_artifacts_box():
    report = json.loads(SERVICE_ARTIFACT.read_text(encoding="utf-8"))
    assert not report["quick"]
    assert f"{report['cpu_count']}-vCPU" in doc_section(
        "### Measured service throughput")


def suite_rows() -> List[List[str]]:
    """The suite table's rows formatted from its artifact."""
    report = json.loads(SUITE_ARTIFACT.read_text(encoding="utf-8"))

    def cells(stats) -> List[str]:
        mapped_run = stats["mapped_cells"] - stats["mapped_hits"]
        return [f"{stats['executed']} / {stats['cache_hits']}",
                f"{mapped_run} / {stats['mapped_hits']}"]

    return [
        ["serial, no fabric", f"{report['serial_seconds']:.1f} s",
         "baseline", "—", "—"],
        ["parallel cold, fresh cache",
         f"{report['parallel_cold_seconds']:.1f} s",
         f"{report['parallel_speedup']:.2f}× speedup",
         *cells(report["cold_stats"])],
        ["parallel warm, same cache",
         f"{report['parallel_warm_seconds']:.1f} s",
         f"{100 * report['warm_fraction_of_cold']:.1f}% of cold",
         *cells(report["warm_stats"])],
    ]


def test_suite_table_quotes_the_artifact():
    assert table_rows("### Measured wall-clock") == suite_rows()


def test_suite_table_names_the_artifacts_box_and_scale():
    report = json.loads(SUITE_ARTIFACT.read_text(encoding="utf-8"))
    scale = report["scale"]
    section = doc_section("### Measured wall-clock")
    assert f"{report['cpu_count']}-vCPU" in section
    assert f"`--jobs {report['jobs']}`" in section
    assert (f"{len(scale['benchmarks'])} benchmarks, "
            f"{scale['short_intervals']} short and "
            f"{scale['long_intervals']} long "
            f"{scale['long_interval_length'] // 1000}K-event "
            f"intervals") in section
