"""Thread-safety of the structures more than one thread touches.

Training runs on the caller's thread alone, but serving and telemetry put
other threads inside the framework.  These tests hammer the shared
structures directly — the plan cache's hit/miss counters, the telemetry
spine's per-thread span stacks and per-thread totals cells — and check that
a full ``train()`` on a GPMA graph starts no thread of its own.
"""

from __future__ import annotations

import threading

from repro.compiler.plan import PlanCache
from repro.dataset import load_sx_mathoverflow
from repro.device import Device, use_device
from repro.obs import Tracer, emit, open_span_count, span, use_tracer
from repro.tensor import init
from repro.train import STGraphLinkPredictor, STGraphTrainer, make_link_prediction_samples


# ---------------------------------------------------------------------------
# PlanCache under contention
# ---------------------------------------------------------------------------
def test_plan_cache_exact_counters_under_thread_hammer():
    """N threads requesting the same plan: one build, exact hit/miss totals."""
    cache = PlanCache()
    n_threads, n_iters = 8, 25
    barrier = threading.Barrier(n_threads)
    errors: list[BaseException] = []

    def prog(v):
        return v.agg_sum(lambda nb: nb.h * nb.norm) * v.norm

    def hammer():
        try:
            barrier.wait()
            for _ in range(n_iters):
                cache.get_or_build(
                    prog, feature_widths={"h": "v", "norm": "s"}, name="hammer"
                )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    total = n_threads * n_iters
    # Identical requests share one structural key: exactly one miss (the
    # single build, done under the lock) and hits for everything else.
    assert cache.misses == 1
    assert cache.hits == total - 1
    assert len(cache) == 1


def test_plan_cache_distinct_keys_partition_counters():
    """Disjoint keys from concurrent threads: misses == unique keys, exact sums."""
    cache = PlanCache()
    n_threads, n_iters = 6, 10
    barrier = threading.Barrier(n_threads)

    def make_prog(n: int):
        # n extra multiplications → n structurally distinct trace signatures.
        def prog(v):
            out = v.agg_sum(lambda nb: nb.h)
            for _ in range(n + 1):
                out = out * v.norm
            return out
        return prog

    progs = [make_prog(i) for i in range(n_threads)]

    def hammer(i: int):
        barrier.wait()
        for _ in range(n_iters):
            cache.get_or_build(
                progs[i], feature_widths={"h": "v", "norm": "s"}, name=f"p{i}"
            )

    threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cache.misses == n_threads
    assert cache.hits == n_threads * (n_iters - 1)
    assert cache.hits + cache.misses == n_threads * n_iters


# ---------------------------------------------------------------------------
# The spine: per-thread span stacks, per-thread totals cells
# ---------------------------------------------------------------------------
def test_worker_thread_spans_never_corrupt_main_stack():
    """Spans opened/closed on a worker interleave with an open main-thread
    span without touching the main thread's stack, and land on their own
    Chrome lane (tid 2)."""
    tracer = Tracer(name="threaded")
    device = Device(name="threaded")
    done = threading.Event()
    go = threading.Event()

    def worker():
        with use_device(device), use_tracer(tracer):
            go.wait()
            for i in range(50):
                with span("serve.forward", i=i):
                    pass
        done.set()

    t = threading.Thread(target=worker)
    t.start()
    with use_device(device), use_tracer(tracer):
        with span("train.epoch"):
            assert open_span_count() == 1
            go.set()
            done.wait()
            # The worker opened and closed 50 spans; this thread's stack
            # must still hold exactly its own open span.
            assert open_span_count() == 1
    t.join()
    assert open_span_count() == 0
    totals = device.totals.read()
    assert totals.calls("serve.forward") == 50
    assert totals.calls("train.epoch") == 1
    tids = {e.tid for e in tracer.events if e.name == "serve.forward"}
    assert tids == {2}
    assert {e.tid for e in tracer.events if e.name == "train.epoch"} == {1}


def test_tracer_aggregates_exact_under_concurrent_spans():
    """Per-site call counts stay exact when many threads record at once."""
    device = Device(name="hammer")
    n_threads, n_spans = 8, 100
    barrier = threading.Barrier(n_threads)

    def worker():
        with use_device(device):
            barrier.wait()
            for _ in range(n_spans):
                with span("device.kernel_launch", tier="python"):
                    pass

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert device.totals.read().calls("device.kernel_launch") == n_threads * n_spans
    # ...and the labelled histogram child shared by the threads agrees.
    child = device.metrics.get("repro_kernel_launch_seconds").labels(tier="python")
    assert child.count == n_threads * n_spans


def test_profiler_counters_exact_under_concurrent_counts():
    """Event counters accumulate exactly across threads."""
    device = Device(name="counters")
    n_threads, n_counts = 8, 200
    barrier = threading.Barrier(n_threads)

    def worker():
        with use_device(device):
            barrier.wait()
            for _ in range(n_counts):
                emit("core.ctx_cache_hit")

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert device.totals.read().count("ctx_cache_hits") == n_threads * n_counts


# ---------------------------------------------------------------------------
# One thread: training starts none
# ---------------------------------------------------------------------------
def test_trainer_shutdown_never_leaks_worker():
    """A full ``train()`` on a GPMA graph runs on the caller's thread alone:
    the live threads are the same before, after every epoch, and after."""
    ds = load_sx_mathoverflow(scale=0.02, feature_size=8, max_snapshots=8)
    samples = make_link_prediction_samples(ds.dtdg, samples_per_timestamp=32, seed=0)
    before = set(threading.enumerate())
    with use_device(Device(name="one-thread")):
        init.set_seed(0)
        trainer = STGraphTrainer(
            STGraphLinkPredictor(ds.feature_size, 8), ds.build_gpma(), lr=1e-2,
            sequence_length=3, task="link_prediction", link_samples=samples,
        )
        train_epoch, during = trainer.train_epoch, []

        def spy(*args, **kwargs):
            loss = train_epoch(*args, **kwargs)
            during.append(set(threading.enumerate()))
            return loss

        trainer.train_epoch = spy
        trainer.train(ds.features, epochs=2)
    assert during == [before, before]
    assert set(threading.enumerate()) == before
