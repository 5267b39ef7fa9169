"""Scalability extension: per-epoch time vs dataset scale for the three
DTDG systems (backs the paper's closing scalability claim for GPMA)."""

import statistics

from repro.bench.experiments import scaling_experiment

RUNS = 3


def test_scaling(benchmark):
    # Each (system, scale) cell is the median of RUNS experiments: one
    # epoch-mean timed once reads box drift as often as it reads scale.
    runs = benchmark.pedantic(
        lambda: [
            scaling_experiment(scales=(0.01, 0.03), feature_size=16, epochs=3)
            for _ in range(RUNS)
        ],
        rounds=1, iterations=1,
    )
    for _, text in runs:
        print("\n" + text)

    def t(system, scale):
        return statistics.median(
            next(
                r for r in results if r.system == system and r.params["scale"] == scale
            ).per_epoch_seconds
            for results, _ in runs
        )

    # times grow with scale for every system
    for system in ("naive", "gpma", "pygt"):
        assert t(system, 0.03) > t(system, 0.01)
    # PyG-T's growth factor is at least as large as GPMA's (edge-parallel
    # cost scales with E×F; the PMA update cost amortizes)
    gpma_growth = t("gpma", 0.03) / t("gpma", 0.01)
    pygt_growth = t("pygt", 0.03) / t("pygt", 0.01)
    assert pygt_growth > gpma_growth * 0.8  # allow noise; orderings checked in fig7
