"""Gate: telemetry must add <2% to a training epoch.

There is one always-on cost — the default path of the telemetry spine
(device totals + latency histograms; no tracer, no flight recorder) that
every ``span`` / ``emit`` in the framework runs through — and so one gate.
A raw A/B epoch timing is too noisy to gate on in CI, so the gate is
computed:

1. read the calls one real epoch makes from the always-on per-site totals
   (intervals and events, a delta over the epoch),
2. measure the per-call cost of the whole default path in a tight loop, for
   each kind of row (an interval feeding a labelled histogram, a plain
   interval, a five-attr event),
3. assert ``calls x cost < 2% of the measured epoch wall time``.

The enabled-tracer A/B comparison is printed for the curious but not
asserted.
"""

from __future__ import annotations

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


#: One representative call per kind of row, with the attrs its site passes:
#: an interval feeding a labelled histogram, a plain interval, an event.
_KINDS = {
    "histogram span": lambda: span("train.timestamp", t=0, epoch=0, sequence=0, engine="default"),
    "plain span": lambda: span("core.engine_forward", program="p", t=0),
}


def _default_path_cost_seconds(iterations: int = 50_000) -> dict[str, float]:
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
            emit("core.state_push", tag="x", t=0, bytes=0, total_bytes=0, depth=0)
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

    # 2. per-call cost of the whole default path
    costs = _default_path_cost_seconds()

    # 3. the gate, against the measured epoch time
    epoch_seconds = min(_timed_epoch(trainer, ds) for _ in range(3))
    projected = sum(calls[kind] * costs[kind] for kind in calls)
    overhead_frac = projected / epoch_seconds
    print(
        "\ndefault telemetry: "
        + " + ".join(f"{calls[k]} {k}s x {costs[k] * 1e9:.0f}ns" for k in calls)
        + f" = {projected * 1e6:.1f}us projected over a {epoch_seconds * 1e3:.1f}ms epoch "
        f"({100 * overhead_frac:.3f}%)"
    )
    assert overhead_frac < 0.02, (
        f"the spine's default path projects {100 * overhead_frac:.2f}% overhead "
        f"(gate: 2%); span()/emit() have regressed"
    )


def _timed_epoch(trainer, ds) -> float:
    start = time.perf_counter()
    trainer.train_epoch(ds.features)
    return time.perf_counter() - start


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


def test_disabled_sanitizer_overhead_is_structurally_zero():
    """Gate: with no sanitizer active (the default), the lock factories hand
    out *raw* ``threading`` primitives — the instrumented acquire path does
    not exist, so the disabled overhead is zero by construction, not by
    measurement.  Pinned by type so a refactor that starts wrapping locks
    unconditionally fails loudly here."""
    import os
    import threading

    import pytest

    if os.environ.get("REPRO_TSAN", "") not in ("", "0"):
        pytest.skip("REPRO_TSAN active: locks are deliberately wrapped")

    from repro.analysis.sanitizer import (
        NullSanitizer,
        current_sanitizer,
        new_condition,
        new_lock,
        new_rlock,
    )

    assert isinstance(current_sanitizer(), NullSanitizer)
    assert type(new_lock("bench")) is type(threading.Lock())
    assert type(new_rlock("bench")) is type(threading.RLock())
    assert type(new_condition(name="bench")) is threading.Condition
    # and the framework's own hot-path structures got raw locks too
    from repro.device import current_device

    tracker = current_device().tracker
    assert type(tracker._lock) is type(threading.Lock())
