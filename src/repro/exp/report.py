"""Text rendering of figure/table results (what the benches print)."""

from __future__ import annotations

from repro.exp.figures import (
    OverheadRow,
    SpeedupRow,
    ThreadsRow,
    VariabilityRow,
    average_speedup,
)

__all__ = [
    "render_speedups",
    "render_threads",
    "render_overheads",
    "render_variability",
    "render_figure6",
]


def _rule(width: int = 72) -> str:
    return "-" * width


def _lower_in(what: str, names: list[str], total: int) -> str:
    """``<what> lower in N/M benchmarks: a, b``, naming the N it counts."""
    line = f"{what} lower in {len(names)}/{total} benchmarks"
    return f"{line}: {', '.join(names)}" if names else line


def render_speedups(title: str, rows: list[SpeedupRow]) -> str:
    lines = [title, _rule()]
    lines.append(
        f"{'benchmark':<10} {'baseline[s]':>12} {'sched[s]':>12} "
        f"{'speedup':>8} {'gain%':>7}"
    )
    for r in rows:
        lines.append(
            f"{r.benchmark:<10} {r.baseline_mean:>12.4f} {r.sched_mean:>12.4f} "
            f"{r.speedup:>8.3f} {r.percent:>+7.1f}"
        )
    lines.append(_rule())
    avg = average_speedup(rows)
    lines.append(f"{'geo-mean':<10} {'':>12} {'':>12} {avg:>8.3f} {(avg - 1) * 100:>+7.1f}")
    return "\n".join(lines)


def render_threads(title: str, rows: list[ThreadsRow]) -> str:
    lines = [title, _rule(48)]
    lines.append(f"{'benchmark':<10} {'avg threads':>12} {'of':>4}")
    for r in rows:
        lines.append(f"{r.benchmark:<10} {r.avg_threads:>12.1f} {r.max_threads:>4}")
    return "\n".join(lines)


def render_overheads(title: str, rows: list[OverheadRow]) -> str:
    lines = [title, _rule()]
    lines.append(
        f"{'benchmark':<10} {'baseline[ms]':>13} {'ilan[ms]':>10} {'normalized':>11}"
    )
    for r in rows:
        lines.append(
            f"{r.benchmark:<10} {r.baseline_overhead * 1e3:>13.3f} "
            f"{r.ilan_overhead * 1e3:>10.3f} {r.normalized:>11.3f}"
        )
    lines.append(_rule())
    lower = [r.benchmark for r in rows if r.normalized < 1.0]
    lines.append(_lower_in("ILAN overhead", lower, len(rows)))
    return "\n".join(lines)


def render_variability(title: str, rows: list[VariabilityRow]) -> str:
    lines = [title, _rule()]
    lines.append(
        f"{'benchmark':<10} {'baseline std':>13} {'ilan std':>10} "
        f"{'base rel%':>10} {'ilan rel%':>10}"
    )
    for r in rows:
        lines.append(
            f"{r.benchmark:<10} {r.baseline_std:>13.4f} {r.ilan_std:>10.4f} "
            f"{r.baseline_rel_std * 100:>10.2f} {r.ilan_rel_std * 100:>10.2f}"
        )
    lines.append(_rule())
    lower = [r.benchmark for r in rows if r.ilan_std < r.baseline_std]
    lines.append(_lower_in("ILAN variance", lower, len(rows)))
    return "\n".join(lines)


def render_figure6(rows_by_scheduler: dict[str, list[SpeedupRow]]) -> str:
    ilan = {r.benchmark: r for r in rows_by_scheduler["ilan"]}
    ws = {r.benchmark: r for r in rows_by_scheduler["worksharing"]}
    lines = ["Figure 6: ILAN and work-sharing vs baseline (speedup, higher is better)"]
    lines.append(_rule())
    lines.append(f"{'benchmark':<10} {'ilan':>8} {'worksharing':>12}")
    for bench in ilan:
        lines.append(
            f"{bench:<10} {ilan[bench].speedup:>8.3f} {ws[bench].speedup:>12.3f}"
        )
    lines.append(_rule())
    lines.append(
        f"{'geo-mean':<10} {average_speedup(list(ilan.values())):>8.3f} "
        f"{average_speedup(list(ws.values())):>12.3f}"
    )
    return "\n".join(lines)
