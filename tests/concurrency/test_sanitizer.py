"""The runtime race sanitizer: every seeded race is caught dynamically
under the thread executor, and correctly locked code stays silent."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import sync
from repro.storage.buffer import BufferManager

from .fixtures import (
    CleanCounter,
    LockOrderInversion,
    UnguardedCounter,
)


@pytest.fixture()
def sanitizer():
    sync.install_sanitizer()
    sync.reset_violations()
    try:
        yield
    finally:
        sync.uninstall_sanitizer()


def kinds():
    return {v.kind for v in sync.violations()}


def run_threaded(fns, workers=4):
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn) for fn in fns]
    return [future.result() for future in futures]


class TestDynamicCatches:
    def test_unguarded_write_caught_under_thread_executor(self, sanitizer):
        counter = UnguardedCounter()
        run_threaded([counter.bump for _ in range(8)])
        hits = [v for v in sync.violations() if v.kind == "unguarded-write"]
        assert any(v.where == "UnguardedCounter.count" for v in hits)

    def test_lock_order_inversion_caught(self, sanitizer):
        fixture = LockOrderInversion()
        run_threaded([fixture.forward, fixture.backward], workers=2)
        hits = [v for v in sync.violations() if v.kind == "lock-order"]
        assert hits, "reversed acquisition order was not reported"
        assert "fixture.order" in hits[0].where

    def test_guarded_by_entry_without_lock_caught(self, sanitizer):
        counter = UnguardedCounter()
        counter.add_locked(3)  # caller never took the lock
        hits = [v for v in sync.violations() if v.kind == "unguarded-call"]
        assert any(v.where == "UnguardedCounter.add_locked" for v in hits)

    def test_thread_confinement_caught(self, sanitizer):
        from repro.obs import tracer

        session = tracer.start_session()
        try:
            tracer.event("owner.touch")  # binds the buffers to this thread
            worker = threading.Thread(target=session.event,
                                      args=("foreign.touch", {}))
            worker.start()
            worker.join()
        finally:
            tracer.stop_session()
        assert "confinement" in kinds()


class TestCleanCodeStaysSilent:
    def test_clean_counter_is_silent(self, sanitizer):
        counter = CleanCounter()
        run_threaded([counter.bump for _ in range(16)])
        assert sync.violations() == ()
        assert counter.count == 16

    def test_buffer_manager_under_threads_is_silent(self, sanitizer):
        buffer = BufferManager(capacity_pages=8)
        run_threaded([lambda i=i: buffer.request(0, i % 16) for i in range(64)])
        buffer.write(1, 600)
        buffer.evict_segment(1)
        buffer.flush()
        assert sync.violations() == ()
        assert buffer.requests == 64

    def test_metrics_instruments_under_threads_are_silent(self, sanitizer):
        from repro.obs import metrics

        metrics.enable()
        try:
            run_threaded([lambda: metrics.inc("sanitizer.test") for _ in range(32)])
            metrics.observe("sanitizer.histo", 1.5)
            metrics.set_gauge("sanitizer.gauge", 2.0)
            assert sync.violations() == ()
            assert metrics.snapshot()["counters"]["sanitizer.test"] == 32
        finally:
            metrics.disable()
            metrics.reset()


class TestSanitizerLifecycle:
    def test_inactive_by_default_and_free(self):
        assert not sync.sanitizer_active()
        counter = UnguardedCounter()
        counter.bump()  # racy, but nobody is watching
        assert sync.violations() == ()

    def test_install_uninstall_restores_hooks(self):
        original_setattr = UnguardedCounter.__setattr__
        sync.install_sanitizer()
        try:
            assert UnguardedCounter.__setattr__ is not original_setattr
        finally:
            sync.uninstall_sanitizer()
        assert UnguardedCounter.__setattr__ is original_setattr
        assert not sync.sanitizer_active()

    def test_tracked_lock_behaves_as_context_manager(self):
        lock = sync.make_lock("lifecycle")
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_violation_renders(self, sanitizer):
        counter = UnguardedCounter()
        counter.bump()
        violation = sync.violations()[0]
        text = violation.render()
        assert "unguarded-write" in text
        assert "UnguardedCounter.count" in text
