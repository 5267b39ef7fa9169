"""Drift guard: the environment knobs the code reads are the ones README documents."""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
_KNOB = re.compile(r"REPRO_[A-Z_]+")
_KNOBS = {
    "REPRO_BENCH_STATIC_SCALE", "REPRO_BENCH_DYNAMIC_SCALE", "REPRO_BENCH_EPOCHS",
    "REPRO_BENCH_ENGINE", "REPRO_VERIFY", "REPRO_TSAN",
}


def _read_by_the_code() -> set[str]:
    found: set[str] = set()
    for top in ("src", "benchmarks", ".github"):
        for path in (ROOT / top).rglob("*"):
            relative = path.relative_to(ROOT).parts
            if relative[:2] == ("benchmarks", "e2e") or path.suffix not in (".py", ".yml"):
                continue
            found.update(_KNOB.findall(path.read_text()))
    return found


def _documented_in_readme() -> set[str]:
    """First cell of every row of README's knob table."""
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", (ROOT / "README.md").read_text(), flags=re.M)
    assert len(rows) == len(set(rows)), rows
    return set(rows)


def test_every_knob_read_is_documented_and_every_documented_knob_is_read():
    read, documented = _read_by_the_code(), _documented_in_readme()
    assert read - documented == set(), "read by the code, missing from README's knob table"
    assert documented - read == set(), "in README's knob table, read nowhere"
    assert read == _KNOBS
