"""CLI commands (in-process)."""

from __future__ import annotations

import pytest

from repro.cli import main


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


def test_lint_codes_table(capsys):
    assert main(["lint", "--codes"]) == 0
    out = capsys.readouterr().out
    assert "STG001" in out and "STG030" in out
    assert "error" in out and "warning" in out


def test_cli_unknown_engine_exits_nonzero_with_message():
    """``repro train --engine kernl`` must exit non-zero with the engine
    list on stderr — not a traceback."""
    import os
    import pathlib
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "train", "--dataset", "HC", "--engine", "kernl"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode != 0
    assert "unknown engine" in proc.stderr
    assert "interpreter, kernel" in proc.stderr  # the available list names the real ones
    assert "Traceback" not in proc.stderr
