"""Compare two sets of benchmark runs against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are each a report written by ``run.py --json``, or a
directory of such reports (one per seed).  ``A`` is the base: the parent
commit, or the first half of an A/A pair.  For every workload and
end-to-end metric the tool prints both medians, the ratio ``B / A`` with
its base, the bound, and one verdict:

``ok``          B is no worse than A by more than the bound, and the
                run-to-run spread of each side is within the bound
``unresolved``  B is within the bound of A but a side's spread is wider than
                the bound (or unknown: one run a side), so "unchanged" cannot
                be claimed; it is resolved only when every run of B is better
                than every run of A
``REGRESSION``  B is worse than A by more than the bound
``alias``       the cell is a unit conversion of another metric; skipped

Exit code 1 when any cell is a ``REGRESSION``, 2 when the two sides did not
run the same inputs, else 0.
"""

from __future__ import annotations

import json
import pathlib
import sys
from typing import Any

import stats

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_runs(path: pathlib.Path) -> list[dict[str, Any]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"no reports in {path}")
    return sorted((json.loads(f.read_text()) for f in files), key=lambda r: r["seed"])


def input_mismatches(a: list[dict[str, Any]], b: list[dict[str, Any]]) -> list[str]:
    """Why the two sides are not runs of the same inputs (empty when they are)."""

    def inputs(runs: list[dict[str, Any]]) -> dict[tuple[int, str], str]:
        return {(r["seed"], name): w["input_sha256"] for r in runs for name, w in r["workloads"].items()}

    ia, ib = inputs(a), inputs(b)
    problems = [f"seed {seed} of {name} is on one side only" for seed, name in sorted(set(ia) ^ set(ib))]
    problems += [
        f"seed {key[0]} of {key[1]}: input_sha256 {ia[key][:12]} != {ib[key][:12]}"
        for key in sorted(set(ia) & set(ib)) if ia[key] != ib[key]
    ]
    return problems


def judge(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The verdict on one cell: see the module docstring."""
    med_a, med_b = stats.median(a), stats.median(b)
    worsening = (med_b - med_a) / med_a if better == "lower" else (med_a - med_b) / med_a
    if worsening > bound:
        return "REGRESSION"
    spreads = [stats.spread(a), stats.spread(b)]
    if all(s is not None and s <= bound for s in spreads):
        return "ok"
    b_always_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
    return "ok" if b_always_better else "unresolved"


def cells(runs: list[dict[str, Any]], name: str, metric: str) -> list[dict[str, Any]]:
    """The ``(workload, metric)`` cell of every run that measured it end to end."""
    return [r["workloads"][name]["end_to_end"][metric] for r in runs if "end_to_end" in r["workloads"].get(name, {})]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    a, b = (load_runs(pathlib.Path(p)) for p in argv)
    problems = input_mismatches(a, b)
    if problems:
        print("refusing to compare runs of different inputs:\n  " + "\n  ".join(problems))
        return 2
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    regressions = 0
    print(f"{'workload':<20}{'metric':<24}{'A median':>12}{'B median':>12}{'B/A':>8}{'bound':>7}"
          f"{'spread A':>10}{'spread B':>10}  verdict")
    for name in dict.fromkeys(name for r in a for name in r["workloads"]):
        for metric, m in spec.items():
            cells_a, cells_b = cells(a, name, metric), cells(b, name, metric)
            if not cells_a or not cells_b:
                continue
            va, vb = [c["value"] for c in cells_a], [c["value"] for c in cells_b]
            verdict = "alias" if cells_a[0]["alias"] else judge(va, vb, m["better"], m["bound"])
            regressions += verdict == "REGRESSION"
            sa, sb = stats.spread(va), stats.spread(vb)
            print(f"{name:<20}{metric:<24}{stats.median(va):>12.5g}{stats.median(vb):>12.5g}"
                  f"{stats.median(vb) / stats.median(va):>8.3f}{m['bound']:>7.2f}"
                  f"{'-' if sa is None else f'{sa:.3f}':>10}{'-' if sb is None else f'{sb:.3f}':>10}"
                  f"  {verdict} (n={len(va)})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
