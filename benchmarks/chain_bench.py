"""The committed benchmark trajectory, as ratios chained change by change.

    python3 benchmarks/chain_bench.py [BENCH_<date>_<parent sha>.json ...]

Each ``BENCH_*.json`` at the repo root holds both sides' ``benchmarks/e2e/run.py
--json`` reports of one change's alternating pairs, each report without its
workloads' ``passes`` lists (the raw per-pass samples, ~90 % of a report):
what stays is every report's ``seed``, and per workload its
``input_sha256``, operation counts, checks and ``end_to_end`` cells, which
is all this script and ``benchmarks/e2e/compare.py`` read.  For every workload and
end-to-end metric this prints the parent's and the change's median and their
ratio, change / parent; with several files (default: every one at the root,
in name order, so by date) the last column multiplies the ratios into the
trajectory since the first parent.  Absolutes drift between sessions on one
box; a ratio of paired runs from one session does not.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def medians(reports) -> dict[tuple[str, str], float]:
    """Median of each non-alias ``(workload, metric)`` cell over ``reports``."""
    cells: dict[tuple[str, str], list[float]] = {}
    for report in reports:
        for name, workload in report["workloads"].items():
            for metric, cell in workload.get("end_to_end", {}).items():
                if not cell["alias"]:
                    cells.setdefault((name, metric), []).append(cell["value"])
    return {key: statistics.median(values) for key, values in cells.items()}


def main(argv: list[str]) -> None:
    chained: dict[tuple[str, str], float] = {}
    for path in [pathlib.Path(p) for p in argv] or sorted(ROOT.glob("BENCH_*.json")):
        bench = json.loads(path.read_text())
        parent = medians(pair["parent"] for pair in bench["pairs"])
        change = medians(pair["change"] for pair in bench["pairs"])
        print(f"== {path.name}: {len(bench['pairs'])} pairs, {bench['change']} over {bench['parent']}")
        print(f"{'workload':<20}{'metric':<24}{'parent':>12}{'change':>12}{'ratio':>8}{'chained':>9}")
        for key in sorted(parent.keys() & change.keys()):
            ratio = change[key] / parent[key]
            chained[key] = chained.get(key, 1.0) * ratio
            print(f"{key[0]:<20}{key[1]:<24}{parent[key]:>12.5g}{change[key]:>12.5g}{ratio:>8.3f}{chained[key]:>9.3f}")


if __name__ == "__main__":
    main(sys.argv[1:])
