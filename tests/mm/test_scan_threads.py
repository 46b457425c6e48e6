"""Concurrent feature scans give the serial grades bit for bit.

The server runs feature queries on a pool of threads, each building its
sources with ``feature_source``.  Every scan owns its block buffer, so
four threads scanning the same spaces at once must grade exactly as one
thread does; a shared scratch buffer would let one thread's terms leak
into another's sums.  CI runs this file again with ``REPRO_SANITIZE=1``.
"""

import sys
import threading

import numpy as np

from repro.mm import color_histograms, feature_source, query_near_cluster, texture_features

THREADS = 4
CALLS = 50
MEASURES = ("l1", "l2", "histogram")


def workload():
    """``THREADS * CALLS`` distinct ``(space, query, measure)`` calls."""
    spaces = [color_histograms(6000, 16, seed=1), texture_features(6000, 8, seed=2)]
    calls = []
    for i in range(THREADS * CALLS):
        space = spaces[i % 2]
        query = query_near_cluster(space, i % 4, noise=0.05, seed=100 + i)
        calls.append((space, query, MEASURES[i % 3]))
    return calls


def grades(call) -> np.ndarray:
    space, query, measure = call
    return feature_source(space, query, measure).grades_of(np.arange(space.n_objects))


def test_concurrent_scans_equal_serial():
    calls = workload()
    serial = [grades(call) for call in calls]
    got = [None] * len(calls)
    errors = []
    barrier = threading.Barrier(THREADS)

    def worker(tid):
        try:
            barrier.wait()
            for i in range(tid, len(calls), THREADS):
                got[i] = grades(calls[i])
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads between the ufunc calls of a scan
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for want, have in zip(serial, got):
        assert np.array_equal(have.view(np.int64), want.view(np.int64))


def test_no_sanitizer_violations_recorded():
    """When the runtime sanitizer is armed (CI: REPRO_SANITIZE=1), the
    concurrent scans above must have recorded zero violations."""
    from repro import sync

    if sync.sanitizer_active():
        assert sync.violations() == ()
