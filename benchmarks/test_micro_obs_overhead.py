"""Gate: telemetry must add <2% to a training epoch.

There is one always-on cost — the default path of the telemetry spine
(device totals + latency histograms; no tracer, no flight recorder) that
every ``span`` / ``emit`` in the framework runs through — and so one gate.
A raw A/B epoch timing is too noisy to gate on in CI, so the gate is
computed:

1. read the calls one real epoch makes from the always-on per-site totals
   (intervals and events, a delta over the epoch),
2. in each of several rounds, time one epoch and measure the per-call cost
   of the whole default path in a tight loop for each kind of row (an
   interval feeding a labelled histogram, a plain interval, a five-attr
   event), back to back, alternating which runs first, and project the
   round's share: ``calls x cost / epoch wall time``,
3. assert the median round's share is ``< 2%``.  Epoch and costs of one
   round are read moments apart, so box drift slower than a round moves
   both and cancels in the share.

The enabled-tracer A/B comparison is printed for the curious but not
asserted.
"""

from __future__ import annotations

import statistics
import time

from repro.dataset import load_sx_mathoverflow
from repro.device import Device, current_device, use_device
from repro.obs import SITES, Tracer, emit, span, use_tracer
from repro.tensor import init
from repro.train import STGraphLinkPredictor, STGraphTrainer, make_link_prediction_samples


def _build_trainer():
    ds = load_sx_mathoverflow(scale=0.02, feature_size=16, max_snapshots=10)
    samples = make_link_prediction_samples(ds.dtdg, 64, seed=5)
    init.set_seed(5)
    model = STGraphLinkPredictor(16, 16)
    trainer = STGraphTrainer(
        model, ds.build_gpma(), sequence_length=4,
        task="link_prediction", link_samples=samples,
    )
    return ds, trainer


#: One representative call per kind of row: an interval feeding a labelled
#: histogram, a plain interval, an event.  The plain span and the event carry
#: at least as many attrs as any record of their kind in the epoch.
_KINDS = {
    "histogram span": lambda: span("train.timestamp", t=0, epoch=0, sequence=0, engine="kernel"),
    "plain span": lambda: span("core.begin_timestamp", program="p", t=0),
}


def _default_path_cost_seconds(iterations: int = 10_000) -> dict[str, float]:
    """Per-call seconds of each kind of record with nothing installed."""
    costs = {}
    with use_device(Device(name="overhead")):  # keep the loops out of the run's totals
        for kind, make in _KINDS.items():
            start = time.perf_counter()
            for _ in range(iterations):
                with make():
                    pass
            costs[kind] = (time.perf_counter() - start) / iterations
        start = time.perf_counter()
        for _ in range(iterations):
            emit("core.ctx_cache_hit", tag="x", t=0, bytes=0, total_bytes=0, depth=0)
        costs["event"] = (time.perf_counter() - start) / iterations
    return costs


def _calls(totals) -> dict[str, int]:
    """Calls per kind of record; events are the rows that carry no seconds."""
    calls = dict.fromkeys((*_KINDS, "event"), 0)
    for site, (n, seconds) in totals.site_totals.items():
        kind = "event" if seconds == 0 else "histogram span" if SITES[site].hist else "plain span"
        calls[kind] += n
    return calls


def test_default_telemetry_overhead_under_2_percent():
    ds, trainer = _build_trainer()
    trainer.train_epoch(ds.features)  # warm up: plan compile, caches

    # 1. calls per epoch, from the always-on per-site totals
    totals = current_device().totals
    before = _calls(totals.read())
    trainer.train_epoch(ds.features)
    calls = {kind: n - before[kind] for kind, n in _calls(totals.read()).items()}
    assert all(n > 0 for n in calls.values()), calls

    # 2. per round, an epoch and the per-call costs back to back
    rounds = [_round(trainer, ds, first_epoch=r % 2 == 0) for r in range(9)]
    shares = [sum(calls[k] * costs[k] for k in calls) / epoch for epoch, costs in rounds]

    # 3. the gate, on the median round
    overhead_frac = statistics.median(shares)
    epoch_seconds, costs = rounds[shares.index(overhead_frac)]
    print(
        "\ndefault telemetry, median round: "
        + " + ".join(f"{calls[k]} {k}s x {costs[k] * 1e9:.0f}ns" for k in calls)
        + f" over a {epoch_seconds * 1e3:.1f}ms epoch = {100 * overhead_frac:.3f}% "
        f"(rounds {100 * min(shares):.3f}-{100 * max(shares):.3f}%)"
    )
    assert overhead_frac < 0.02, (
        f"the spine's default path projects {100 * overhead_frac:.2f}% overhead "
        f"(gate: 2%); span()/emit() have regressed"
    )


def _timed_epoch(trainer, ds) -> float:
    start = time.perf_counter()
    trainer.train_epoch(ds.features)
    return time.perf_counter() - start


def _round(trainer, ds, first_epoch: bool) -> tuple[float, dict[str, float]]:
    """One epoch's seconds and the per-call costs, measured back to back."""
    if first_epoch:
        epoch = _timed_epoch(trainer, ds)
        return epoch, _default_path_cost_seconds()
    costs = _default_path_cost_seconds()
    return _timed_epoch(trainer, ds), costs


def test_enabled_tracer_ab_comparison_informational():
    """Print (don't gate) the measured cost of a *enabled* tracer epoch."""
    ds, trainer = _build_trainer()
    trainer.train_epoch(ds.features)  # warm up
    plain = min(_timed_epoch(trainer, ds) for _ in range(2))
    with use_tracer(Tracer(name="ab")):
        traced = min(_timed_epoch(trainer, ds) for _ in range(2))
    print(
        f"\nepoch: {plain * 1e3:.1f}ms untraced vs {traced * 1e3:.1f}ms traced "
        f"({100 * (traced - plain) / plain:+.1f}%)"
    )
