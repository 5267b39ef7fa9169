"""Paper-style ASCII rendering of benchmark results."""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = [
    "format_table",
    "format_phase_breakdown",
    "format_reuse_counters",
    "fig9_rows",
    "format_fig9_table",
    "ascii_series",
    "improvement",
]


def format_table(rows: Sequence[Mapping], headers: Sequence[str] | None = None, title: str = "") -> str:
    """Render dict rows as an aligned ASCII table."""
    if not rows:
        return f"{title}\n(no rows)"
    headers = list(headers or rows[0].keys())
    cells = [[str(r.get(h, "")) for h in headers] for r in rows]
    widths = [max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)]
    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def format_phase_breakdown(
    phase_seconds: Mapping[str, float], title: str = "Phase breakdown"
) -> str:
    """Render per-phase seconds as a share table.

    Pairs with :meth:`repro.obs.spine.Totals.phase_seconds`; the
    ``compile`` row shows the one-time plan-compilation cost amortized by
    the plan cache (zero when every plan was already warm).
    """
    total = sum(phase_seconds.values())
    rows = [
        {
            "phase": name,
            "seconds": round(seconds, 5),
            "share": f"{100 * seconds / total:.1f}%" if total > 0 else "-",
        }
        for name, seconds in phase_seconds.items()
    ]
    return format_table(rows, title=title)


def format_reuse_counters(
    counters: Mapping[str, int], title: str = "Snapshot reuse"
) -> str:
    """Render the reuse counters with hit rates.

    Pairs with :meth:`repro.obs.spine.Totals.counters`; the
    ``csr_cache`` row shows how many snapshot positionings were served by
    the graph's installed build instead of re-running Algorithm 3, the
    ``ctx_cache`` row the executor-level GraphContext reuse, and
    ``noop_updates_skipped`` the empty update batches that never dirtied the
    snapshot at all.
    """
    def rate(hits: int, misses: int) -> str:
        total = hits + misses
        return f"{100 * hits / total:.1f}%" if total else "-"

    rows = [
        {
            "cache": "csr_cache",
            "hits": counters.get("csr_cache_hits", 0),
            "misses": counters.get("csr_cache_misses", 0),
            "hit_rate": rate(
                counters.get("csr_cache_hits", 0), counters.get("csr_cache_misses", 0)
            ),
        },
        {
            "cache": "ctx_cache",
            "hits": counters.get("ctx_cache_hits", 0),
            "misses": counters.get("ctx_cache_misses", 0),
            "hit_rate": rate(
                counters.get("ctx_cache_hits", 0), counters.get("ctx_cache_misses", 0)
            ),
        },
    ]
    table = format_table(rows, title=title)
    return table + f"\nnoop updates skipped: {counters.get('noop_updates_skipped', 0)}"


def fig9_rows(results: Sequence) -> list[dict]:
    """Figure 9 table rows from a list of :class:`RunResult`.

    The GNN vs graph-update split is ``RunResult.time_split()``: the two
    categories' self time in the run device's totals, traced or not.

    When any run carries an explicit execution-engine selection the rows
    gain an ``engine`` column, so engine-ablation tables stay
    self-describing while default runs keep the historical column set.
    """
    with_engine = any(getattr(r, "engine", "") for r in results)
    rows = []
    for r in results:
        gnn, upd = r.time_split()
        total = gnn + upd
        row: dict = {
            "dataset": r.dataset,
            "F": r.params.get("F", ""),
            "gnn_%": round(100 * gnn / total, 1) if total > 0 else 0.0,
            "update_%": round(100 * upd / total, 1) if total > 0 else 0.0,
            # One-time plan compilation relative to all profiled compute;
            # 0 when the process-wide plan cache was already warm.
            "compile_%": round(100 * r.compile_fraction, 1),
            # Snapshot-reuse counters: positionings served from either
            # reuse level (executor context or the graph's installed
            # build) vs fully rebuilt, and empty update batches that
            # never dirtied the snapshot.
            "reuse_%": round(100 * r.reuse_rate, 1),
            "noop_skipped": r.totals.count("noop_updates_skipped"),
        }
        if with_engine:
            row["engine"] = getattr(r, "engine", "") or "kernel"
        rows.append(row)
    return rows


def format_fig9_table(results: Sequence, title: str | None = None) -> str:
    """Render :func:`fig9_rows` as the paper's Figure 9 breakup table."""
    return format_table(
        fig9_rows(results),
        title=title
        or "Figure 9: % of total time in GNN processing vs graph updates (STGraph-GPMA)",
    )


def ascii_series(
    series: Mapping[str, Sequence[tuple[float, float]]],
    title: str = "",
    width: int = 60,
    height: int = 12,
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """A minimal multi-series scatter/line chart in ASCII.

    Each series gets a marker; points are binned onto a width×height grid.
    Good enough to see orderings and crossovers — the properties the paper's
    figures communicate.
    """
    markers = "*o+x#@%&"
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return f"{title}\n(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for (name, pts), marker in zip(series.items(), markers):
        for x, y in pts:
            col = int((x - x0) / xspan * (width - 1))
            row = height - 1 - int((y - y0) / yspan * (height - 1))
            grid[row][col] = marker
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{ylabel} [{y0:.4g} .. {y1:.4g}]")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" {xlabel} [{x0:.4g} .. {x1:.4g}]")
    for (name, _), marker in zip(series.items(), markers):
        lines.append(f"  {marker} = {name}")
    return "\n".join(lines)


def improvement(baseline: float, ours: float) -> float:
    """Paper-style improvement factor: baseline / ours (>1 means we win)."""
    return baseline / ours if ours > 0 else float("inf")
