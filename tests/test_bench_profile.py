"""profile_training reports."""

from __future__ import annotations

import pytest

from repro.bench import profile_training
from repro.dataset import load_hungary_chickenpox, load_sx_mathoverflow
from repro.tensor import init
from repro.train import (
    STGraphLinkPredictor,
    STGraphNodeRegressor,
    STGraphTrainer,
    make_link_prediction_samples,
)


def test_profile_static_training():
    ds = load_hungary_chickenpox(lags=4, scale=1.0, num_timestamps=10)

    def build():
        init.set_seed(0)
        return STGraphTrainer(STGraphNodeRegressor(4, 8), ds.build_graph(), lr=1e-2)

    report = profile_training(build, ds.features, ds.targets, epochs=2)
    assert report.epochs == 2
    assert report.total_seconds > 0
    assert report.totals.seconds("gnn") > 0
    assert report.totals.seconds("graph_update") == 0.0  # static graph
    assert report.totals.calls("device.kernel_launch") > 0
    assert report.state_stack_peak_depth > 0
    assert report.graph_stack_peak_depth == 0
    text = report.render()
    assert "gnn kernels" in text and "peak memory" in text


def test_profile_gpma_training_shows_updates():
    ds = load_sx_mathoverflow(scale=0.01, feature_size=4, max_snapshots=5)
    samples = make_link_prediction_samples(ds.dtdg, 32, seed=0)

    def build():
        init.set_seed(0)
        return STGraphTrainer(
            STGraphLinkPredictor(4, 8), ds.build_gpma(), lr=1e-2,
            sequence_length=3, task="link_prediction", link_samples=samples,
        )

    report = profile_training(build, ds.features, epochs=2)
    assert report.totals.seconds("graph_update") > 0  # GPMA pays update time
    assert report.graph_stack_peak_depth > 0
    assert 0 <= report.other_seconds <= report.total_seconds
    # shares add to ~100%
    share = sum(report.totals.phase_seconds().values()) + report.other_seconds
    assert share == pytest.approx(report.total_seconds, rel=0.02)
