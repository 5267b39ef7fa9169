"""CLI commands (in-process)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from tests.test_obs_tracing import _assert_balanced


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "STGraph reproduction" in out
    assert "repro" in out and "tgcn" in out


def test_inspect_gcn(capsys):
    assert main(["inspect", "--layer", "gcn"]) == 0
    out = capsys.readouterr().out
    assert "generated forward kernel" in out
    assert "spmm" in out
    assert "state stack" in out


def test_inspect_dot_output(capsys):
    assert main(["inspect", "--layer", "gcn", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.count("digraph") == 3  # vertex IR + forward + backward
    assert "spmm" in out


def test_inspect_all_layers(capsys):
    for layer in ("gat", "sage", "cheb", "dconv"):
        assert main(["inspect", "--layer", layer, "--features", "4"]) == 0
        assert "forward" in capsys.readouterr().out


def test_train_static(capsys):
    rc = main([
        "train", "--dataset", "HC", "--model", "tgcn",
        "--epochs", "3", "--timestamps", "12", "--features", "4", "--hidden", "8",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "loss:" in out and "per-epoch time" in out and "peak device memory" in out


def test_train_baseline(capsys):
    rc = main([
        "train", "--dataset", "HC", "--system", "pygt",
        "--epochs", "3", "--timestamps", "12", "--features", "4", "--hidden", "8",
    ])
    assert rc == 0
    assert "loss:" in capsys.readouterr().out


def test_train_dynamic(capsys):
    rc = main([
        "train", "--dataset", "sx-mathoverflow", "--scale", "0.005",
        "--epochs", "3", "--timestamps", "5", "--features", "4", "--hidden", "8",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "updates" in out  # graph-update share reported for DTDGs


def test_train_trace_writes_four_balanced_artifacts(tmp_path, capsys):
    rc = main([
        "train", "--dataset", "sx-mathoverflow", "--scale", "0.005",
        "--epochs", "2", "--timestamps", "4", "--features", "4", "--hidden", "8",
        "--sequence-length", "2", "--trace", str(tmp_path / "run.json"),
    ])
    assert rc == 0
    for name in ("run.json", "run.events.jsonl", "run.manifest.json", "run.metrics.prom"):
        assert (tmp_path / name).stat().st_size > 0, name
    events = json.loads((tmp_path / "run.json").read_text())["traceEvents"]
    assert any(e["ph"] == "B" for e in events)
    _assert_balanced(events)


def test_train_gconv_gru(capsys):
    rc = main([
        "train", "--dataset", "PM", "--model", "gconv_gru",
        "--epochs", "2", "--timestamps", "8", "--features", "4", "--hidden", "8",
    ])
    assert rc == 0


def test_train_unknown_dataset():
    with pytest.raises(SystemExit):
        main(["train", "--dataset", "nope", "--epochs", "1"])


def test_bench_table1(capsys):
    assert main(["bench", "--experiment", "table1"]) == 0
    assert "Table I" in capsys.readouterr().out


def test_bench_requires_experiment():
    with pytest.raises(SystemExit):
        main(["bench"])


def test_lint_all_clean(capsys):
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "linted" in out and "0 error(s)" in out
    assert "gat" in out


def test_lint_single_layer(capsys):
    assert main(["lint", "--layer", "gcn", "--features", "4"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_lint_examples(capsys):
    assert main(["lint", "--examples"]) == 0
    out = capsys.readouterr().out
    assert "gated_attention" in out
    assert "0 error(s)" in out


def test_lint_reports_a_program_that_fails_verification(capsys, monkeypatch):
    """A build that raises ``VerifyError`` is printed from its report, the
    other programs are still listed, and the exit code is 1."""
    import repro.cli as cli
    from repro.compiler import compile_vertex_program
    from repro.compiler.ir import Stage, VNode

    def duplicate_leaves(v):  # two distinct leaf objects for one feature
        x1, x2 = VNode.feat("lint_dup", Stage.SRC), VNode.feat("lint_dup", Stage.SRC)
        return VNode.agg("sum", VNode.binary("add", x1, x2))

    factories = cli._lint_factories

    def with_broken(features):
        table = dict(factories(features))
        table["broken"] = lambda: compile_vertex_program(
            duplicate_leaves, feature_widths={"lint_dup": "v"}, name="lint_broken"
        )
        return table

    monkeypatch.setattr(cli, "_lint_factories", with_broken)
    assert main(["lint"]) == 1
    out = capsys.readouterr().out
    assert "lint_broken              1 error(s), 0 warning(s)" in out
    assert "STG004 error [lint_broken]" in out
    assert "gcn_self_loops           ok" in out and "gat " in out
    assert "1 error(s)" in out.splitlines()[-1]


def test_lint_codes_table(capsys):
    assert main(["lint", "--codes"]) == 0
    out = capsys.readouterr().out
    assert "STG001" in out and "STG030" in out
    assert "error" in out and "warning" in out


_TINY_DTDG = [
    "train", "--dataset", "sx-mathoverflow", "--scale", "0.005",
    "--epochs", "2", "--timestamps", "4", "--features", "4", "--hidden", "8",
    "--sequence-length", "2",
]


def _loss_line(out: str) -> str:
    return next(line for line in out.splitlines() if line.startswith("loss: "))


def test_train_checkpoint_then_resume_reports_the_same_final_loss(tmp_path, capsys):
    ckpt = str(tmp_path / "ck.npz")
    assert main(_TINY_DTDG + ["--checkpoint", ckpt]) == 0
    first = capsys.readouterr().out
    assert (tmp_path / "ck.npz").is_file()
    assert "resumed from:" not in first
    assert main(_TINY_DTDG + ["--checkpoint", ckpt, "--resume"]) == 0
    second = capsys.readouterr().out
    assert f"resumed from: {ckpt}" in second
    assert _loss_line(second) == _loss_line(first)


def test_train_flight_recorder_ends_with_a_run_end_drain(tmp_path, capsys):
    path = tmp_path / "flight.jsonl"
    assert main(_TINY_DTDG + ["--flight-recorder", str(path)]) == 0
    assert "flight recorder:" in capsys.readouterr().out
    records = [json.loads(line) for line in path.read_text().splitlines()]
    drains = [r["flight_drain"] for r in records if "flight_drain" in r]
    assert drains and drains[-1] == "run_end"


def test_chaos_smoke_writes_an_ok_json_report(tmp_path, capsys):
    out = tmp_path / "chaos.json"
    assert main(["chaos", "--plan", "smoke", "--json", str(out)]) == 0
    assert f"report: {out}" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["ok"] is True


_ONE_UNGUARDED_WRITE = """
import threading


class Box:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1

    def reset(self):
        self.count = 0
"""


def test_lint_concurrency_path_gates_until_the_baseline_is_written(tmp_path, capsys):
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "box.py").write_text(_ONE_UNGUARDED_WRITE)
    baseline = tmp_path / "B.json"
    cmd = ["lint", "--concurrency", "--path", str(src), "--baseline", str(baseline)]
    assert main(cmd) == 1
    assert "STG202" in capsys.readouterr().out
    assert main(cmd + ["--write-baseline"]) == 0
    assert baseline.is_file()
    assert main(cmd) == 0
    assert "1 baselined finding(s) suppressed" in capsys.readouterr().out


def test_chaos_workdir_holds_the_checkpoint(tmp_path, capsys):
    assert main(["chaos", "--plan", "smoke", "--workdir", str(tmp_path)]) == 0
    assert (tmp_path / "chaos-smoke.npz").is_file()


def test_serve_paced_clients_with_a_timeout(capsys):
    rc = main([
        "serve", "--clients", "2", "--requests", "4", "--updates", "2",
        "--timestamps", "4", "--qps", "200", "--timeout", "60",
    ])
    assert rc == 0
    assert "served 8 requests" in capsys.readouterr().out
