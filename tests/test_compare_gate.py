"""The verdicts of ``benchmarks/e2e/compare.py``, the nightly's timing gate.

Synthetic ``run.py --json`` reports, one per seed, with every end-to-end
metric ``BENCHMARK.json`` declares, are written to two directories and
judged with the committed bounds: the exit code and the verdict of every
printed cell are what the nightly workflow acts on.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_E2E = _ROOT / "benchmarks" / "e2e"
_spec = importlib.util.spec_from_file_location("compare", _E2E / "compare.py")
compare = importlib.util.module_from_spec(_spec)
sys.modules["compare"] = compare
sys.path.insert(0, str(_E2E))  # compare.py imports its neighbour ``stats``
try:
    _spec.loader.exec_module(compare)
finally:
    sys.path.remove(str(_E2E))

_SPEC = {m["name"]: m for m in json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
_SEEDS = (0, 1, 2, 3, 7)
#: Run-to-run jitter of one side: a spread of 0.6 %, inside every bound
#: (the tightest is ``peak_device_mb``'s 1 %).
_JITTER = (1.000, 1.002, 0.998, 1.004, 0.996)


def _reports(scale: dict[str, float] | None = None, jitter=_JITTER, alias=(), sha="ab" * 32) -> list[dict]:
    """One report per seed; ``scale`` multiplies the named metrics."""
    scale = scale or {}
    return [
        {
            "seed": seed,
            "workloads": {
                "w": {
                    "input_sha256": sha,
                    "end_to_end": {
                        name: {"value": 10.0 * j * scale.get(name, 1.0), "alias": name in alias}
                        for name in _SPEC
                    },
                },
            },
        }
        for seed, j in zip(_SEEDS, jitter)
    ]


def _judge(tmp_path, a: list[dict], b: list[dict], capsys) -> tuple[int, dict[str, str]]:
    """``(exit code, metric -> verdict)`` of ``compare.py A B``."""
    for side, runs in (("a", a), ("b", b)):
        (tmp_path / side).mkdir(exist_ok=True)
        for r in runs:
            (tmp_path / side / f"seed{r['seed']}.json").write_text(json.dumps(r))
    code = compare.main([str(tmp_path / "a"), str(tmp_path / "b")])
    verdicts = {}
    for line in capsys.readouterr().out.splitlines()[1:]:
        fields = line.split()
        if len(fields) > 2 and fields[0] == "w":
            verdicts[fields[1]] = fields[-2]
    return code, verdicts


def test_a_against_a_is_ok(tmp_path, capsys):
    code, verdicts = _judge(tmp_path, _reports(), _reports(), capsys)
    assert code == 0
    assert verdicts == {name: "ok" for name in _SPEC}


def test_three_times_the_epoch_is_a_regression(tmp_path, capsys):
    code, verdicts = _judge(tmp_path, _reports(), _reports({"epoch_s": 3.0}), capsys)
    assert code == 1
    assert verdicts["epoch_s"] == "REGRESSION"
    assert {v for name, v in verdicts.items() if name != "epoch_s"} == {"ok"}


def test_half_the_throughput_is_a_regression(tmp_path, capsys):
    assert _SPEC["queries_per_s"]["better"] == "higher"
    code, verdicts = _judge(tmp_path, _reports(), _reports({"queries_per_s": 0.5}), capsys)
    assert code == 1
    assert verdicts["queries_per_s"] == "REGRESSION"
    # Twice the throughput is no regression: the direction is the metric's.
    code, verdicts = _judge(tmp_path, _reports(), _reports({"queries_per_s": 2.0}), capsys)
    assert code == 0
    assert verdicts["queries_per_s"] == "ok"


#: A side whose quartiles are 57 % of the median apart, against bounds of 20-25 %.
_WIDE = (0.70, 1.40, 1.00, 0.80, 1.25)


@pytest.mark.parametrize("b,verdict", [
    (_reports(jitter=_WIDE), "unresolved"),  # B is A again: "unchanged" cannot be claimed
    (_reports({"epoch_s": 0.5}), "ok"),  # every run of B beats every run of A
])
def test_a_spread_wider_than_the_bound(tmp_path, capsys, b, verdict):
    code, verdicts = _judge(tmp_path, _reports(jitter=_WIDE), b, capsys)
    assert code == 0
    assert verdicts["epoch_s"] == verdict
    assert verdicts["setup_s"] == "unresolved"


def test_different_inputs_are_refused(tmp_path, capsys):
    code, verdicts = _judge(tmp_path, _reports(), _reports(sha="cd" * 32), capsys)
    assert code == 2
    assert verdicts == {}


def test_alias_cells_are_skipped(tmp_path, capsys):
    code, verdicts = _judge(
        tmp_path, _reports(alias=("epoch_s",)), _reports({"epoch_s": 3.0}, alias=("epoch_s",)), capsys
    )
    assert code == 0
    assert verdicts["epoch_s"] == "alias"
