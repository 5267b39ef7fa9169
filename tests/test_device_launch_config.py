"""Feature-adaptive launch configuration (Seastar's kernel-tuning model)."""

from __future__ import annotations

import pytest

from repro.device import estimated_occupancy, feature_adaptive_config
from repro.device.launch_config import BLOCK_THREADS, WARP_SIZE


def test_tiny_feature_groups():
    cfg = feature_adaptive_config(1000, 4)
    assert cfg.threads_per_group == 4
    assert cfg.groups_per_block == BLOCK_THREADS // 4
    assert cfg.feature_stride == 1


def test_group_size_rounds_to_power_of_two():
    cfg = feature_adaptive_config(1000, 5)
    assert cfg.threads_per_group == 8


def test_group_size_saturates_at_warp():
    for f in (32, 64, 200):
        cfg = feature_adaptive_config(1000, f)
        assert cfg.threads_per_group == WARP_SIZE
        assert cfg.feature_stride == -(-f // WARP_SIZE)


def test_blocks_cover_all_vertices():
    for n in (1, 7, 255, 256, 257, 100_000):
        for f in (1, 8, 64):
            cfg = feature_adaptive_config(n, f)
            assert cfg.vertices_per_launch() >= min(n, cfg.num_blocks * cfg.groups_per_block)
            assert cfg.num_blocks * cfg.groups_per_block >= min(n, 65_535 * cfg.groups_per_block)


def test_block_fully_packed():
    for f in (1, 2, 8, 16, 32, 64):
        cfg = feature_adaptive_config(5000, f)
        assert cfg.threads_per_block == BLOCK_THREADS


def test_invalid_arguments():
    with pytest.raises(ValueError):
        feature_adaptive_config(0, 8)
    with pytest.raises(ValueError):
        feature_adaptive_config(10, 0)


def test_occupancy_perfect_for_power_of_two_features():
    n = 256 * 10  # exact multiple of groups per block
    cfg = feature_adaptive_config(n, 32)
    assert estimated_occupancy(cfg, n, 32) == pytest.approx(1.0)


def test_occupancy_degrades_with_rounding():
    n = 2560
    perfect = estimated_occupancy(feature_adaptive_config(n, 8), n, 8)
    rounded = estimated_occupancy(feature_adaptive_config(n, 5), n, 5)
    assert rounded < perfect  # 5 of 8 lanes useful

