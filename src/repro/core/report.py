"""Full-disclosure report rendering.

"The full disclosure further breaks down the composition of the metric
into its constituent parts, e.g. single query execution times."  This is
the human-readable rendering of a :class:`~.benchmark.BenchmarkReport`,
laid out like the paper's Tables 6, 7 and 9 plus the headline metrics.
"""

from __future__ import annotations

from ..datagen.update_stream import UpdateKind
from .benchmark import BenchmarkReport


def _latency_table(title: str, stats, names: list[str]) -> list[str]:
    lines = [title]
    widths = [max(8, len(name) + 2) for name in names]
    lines.append("  " + "".join(name.rjust(width)
                                for name, width in zip(names, widths)))
    row = []
    for name, width in zip(names, widths):
        entry = stats.get(name)
        row.append(f"{entry.mean_ms:.1f}".rjust(width) if entry
                   else "—".rjust(width))
    lines.append("  " + "".join(row))
    return lines


def render_report(report: BenchmarkReport) -> str:
    """Render the full-disclosure report as plain text."""
    lines = [
        f"SNB-Interactive run — SUT: {report.sut_name}",
        f"  acceleration target : {report.acceleration_target}",
        f"  sustained           : {report.sustained}"
        f" (late fraction {report.late_fraction:.1%})",
        f"  steady state (p99)  : {report.steady_state}",
        f"  wall seconds        : {report.wall_seconds:.2f}",
        f"  driver operations   : {report.operations}",
        f"  throughput          : {report.throughput:.0f} ops/s",
        f"  short reads         : {report.short_reads}",
        "",
    ]
    lines += _latency_table(
        "mean runtime of complex read-only queries (ms)  [Table 6]",
        report.complex_stats, [f"Q{i}" for i in range(1, 15)])
    lines.append("")
    lines += _latency_table(
        "mean runtime of simple read-only queries (ms)   [Table 7]",
        report.short_stats, [f"S{i}" for i in range(1, 8)])
    lines.append("")
    update_names = [kind.name for kind in UpdateKind]
    lines += _latency_table(
        "mean runtime of transactional updates (ms)      [Table 9]",
        report.update_stats, update_names)
    return "\n".join(lines)
