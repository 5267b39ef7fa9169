"""Thread-safety of the structures more than one thread touches.

Training runs on the caller's thread alone, but serving and telemetry put
other threads inside the framework.  These tests hammer the shared
structures directly — the plan cache's hit/miss counters, the telemetry
spine's per-thread span stacks and per-thread totals cells — and check that
a full ``train()`` on a GPMA graph starts no thread of its own.
"""

from __future__ import annotations

import re
import sys
import threading
import time

from repro.compiler.plan import PlanCache
from repro.dataset import load_sx_mathoverflow
from repro.device import Device, use_device
from repro.obs import Tracer, emit, open_span_count, prometheus_text, span, use_tracer
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


def _poll(condition, seconds: float = 10.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


def test_plan_cache_failed_build_raises_in_every_waiter_and_is_retried(monkeypatch):
    """The build runs with no lock held.  One that raises while another
    thread waits on its key raises in both threads and caches nothing, and
    the next request builds again."""
    cache = PlanCache()
    failure = RuntimeError("build failed")

    def failing_build(*args, **kwargs):
        _poll(lambda: cache.hits == 1)  # the waiter found the pending build
        raise failure

    def prog(v):
        return v.agg_sum(lambda nb: nb.h)

    raised: dict[str, BaseException] = {}

    def request(who: str) -> None:
        try:
            cache.get_or_build(prog, feature_widths={"h": "v"})
        except RuntimeError as exc:
            raised[who] = exc

    monkeypatch.setattr("repro.compiler.plan._build_plan", failing_build)
    builder = threading.Thread(target=request, args=("builder",))
    builder.start()
    _poll(lambda: cache.misses == 1)  # the builder registered the key
    request("waiter")
    builder.join(timeout=10.0)
    assert not builder.is_alive()
    assert raised == {"builder": failure, "waiter": failure}
    assert (cache.misses, cache.hits, len(cache)) == (1, 1, 0)

    monkeypatch.undo()
    plan = cache.get_or_build(prog, feature_widths={"h": "v"})
    assert (cache.misses, len(cache)) == (2, 1)
    assert cache.get_or_build(prog, feature_widths={"h": "v"}) is plan


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
    """Per-site call counts stay exact when many threads record at once,
    and a scrape racing them never shows a torn histogram."""
    device = Device(name="hammer")
    n_threads, n_spans = 8, 100
    barrier = threading.Barrier(n_threads + 1)
    done = threading.Event()
    scraped: list[tuple[int, int]] = []  # (+Inf bucket, _count) per scrape

    def worker():
        with use_device(device):
            barrier.wait()
            for _ in range(n_spans):
                with span("device.kernel_launch", tier="python"):
                    pass

    def scraper():  # scrapes while the writers run, then once after
        barrier.wait()
        while True:
            last = done.is_set()
            text = prometheus_text(device)
            inf = re.search(r'^repro_kernel_launch_seconds_bucket\{tier="python",le="\+Inf"\} (\d+)$',
                            text, re.MULTILINE)
            if inf is not None:
                count = re.search(r'^repro_kernel_launch_seconds_count\{tier="python"\} (\d+)$',
                                  text, re.MULTILINE)
                scraped.append((int(inf[1]), int(count[1])))
            if last:
                return

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    reader = threading.Thread(target=scraper)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in (reader, *threads):
            t.start()
        for t in threads:
            t.join(timeout=30)
        done.set()
        reader.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not reader.is_alive() and not any(t.is_alive() for t in threads)
    assert device.totals.read().calls("device.kernel_launch") == n_threads * n_spans
    # ...and the threads' histogram rows, summed on read, agree; a scrape
    # that raced the writers still shows +Inf == _count, never going back.
    ((counts_row, _),) = device.totals.read().histograms.values()
    assert sum(counts_row) == n_threads * n_spans
    assert all(inf == count for inf, count in scraped)
    counts = [count for _, count in scraped]
    assert counts == sorted(counts) and counts[-1] == n_threads * n_spans


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
