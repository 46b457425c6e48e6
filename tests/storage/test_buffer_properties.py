"""Property-based tests: the buffer manager against a reference model."""

from collections import OrderedDict

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BufferError_
from repro.obs import metrics
from repro.storage import BufferManager, CostCounter


class ReferenceLRU:
    """An obviously-correct LRU cache model."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: OrderedDict = OrderedDict()

    def request(self, key) -> bool:
        if key in self.entries:
            self.entries.move_to_end(key)
            return True
        self.entries[key] = None
        if len(self.entries) > self.capacity:
            self.entries.popitem(last=False)
        return False


requests = st.lists(
    st.tuples(st.integers(1, 3), st.integers(0, 10)),  # (segment, page)
    min_size=0,
    max_size=200,
)


@given(st.integers(1, 8), requests)
@settings(max_examples=100, deadline=None)
def test_buffer_matches_reference_lru(capacity, sequence):
    buffer = BufferManager(capacity_pages=capacity, page_tuples=10)
    model = ReferenceLRU(capacity)
    for segment, page in sequence:
        assert buffer.request(segment, page) == model.request((segment, page))
    assert buffer.resident_pages == len(model.entries)


@given(st.integers(1, 8), requests, st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_evict_segment_matches_reference(capacity, sequence, victim):
    buffer = BufferManager(capacity_pages=capacity, page_tuples=10)
    model = ReferenceLRU(capacity)
    for segment, page in sequence:
        buffer.request(segment, page)
        model.request((segment, page))
    buffer.evict_segment(victim)
    for key in [k for k in model.entries if k[0] == victim]:
        del model.entries[key]
    # all remaining pages still hit; evicted ones miss
    for (segment, page) in set(sequence):
        expected = (segment, page) in model.entries
        assert buffer.request(segment, page) == expected
        model.request((segment, page))


@given(st.integers(1, 64), st.integers(0, 500), st.integers(0, 100))
@settings(max_examples=80, deadline=None)
def test_scan_miss_count_bounded_by_pages(page_tuples, n_tuples, start):
    buffer = BufferManager(capacity_pages=4096, page_tuples=page_tuples)
    misses = buffer.scan(1, n_tuples, start_tuple=start)
    assert misses == buffer.pages_for(n_tuples + (start % page_tuples)) or (
        misses <= buffer.pages_for(n_tuples) + 1
    )
    # a repeated scan of the same range is fully warm
    assert buffer.scan(1, n_tuples, start_tuple=start) == 0


@given(requests)
@settings(max_examples=60, deadline=None)
def test_counters_are_consistent(sequence):
    buffer = BufferManager(capacity_pages=4, page_tuples=10)
    for segment, page in sequence:
        buffer.request(segment, page)
    assert buffer.hits + buffer.misses == buffer.requests == len(sequence)
    assert 0.0 <= buffer.hit_rate() <= 1.0
    assert buffer.resident_pages <= buffer.capacity_pages


@contextlib.contextmanager
def counted_metrics():
    """The ``buffer.*`` counters the block emits."""
    out = {}
    metrics.enable()
    try:
        metrics.reset()
        yield out
        out.update(metrics.snapshot()["counters"])
    finally:
        metrics.reset()
        metrics.disable()


def _state(buffer):
    return (buffer.requests, buffer.hits, buffer.misses, buffer.evictions,
            buffer._policy.keys())


@given(st.sampled_from(["lru", "slru", "clock"]), st.integers(1, 8),
       st.lists(requests, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_batched_requests_equal_one_at_a_time(policy, capacity, batches):
    """``request_pages`` is its keys' one-page requests in order: the
    same hits, counters, charges, metrics and policy state."""
    batched = BufferManager(capacity_pages=capacity, page_tuples=10, policy=policy)
    single = BufferManager(capacity_pages=capacity, page_tuples=10, policy=policy)
    for keys in batches:
        with counted_metrics() as batched_metrics, \
                CostCounter.activate() as batched_cost:
            hits = batched.request_pages(keys)
        with counted_metrics() as single_metrics, \
                CostCounter.activate() as single_cost:
            expected = sum(single.request(*key) for key in keys)
        assert hits == expected
        assert batched_cost.snapshot() == single_cost.snapshot()
        assert batched_metrics == single_metrics
        assert _state(batched) == _state(single)


@pytest.mark.parametrize("policy", ["lru", "slru", "clock"])
def test_batch_charges_what_it_did_before_a_failed_admission(policy):
    """Every frame pinned: the batch's first miss cannot be admitted.
    The hits before it are charged and counted, like one request at a
    time."""
    keys = [(0, 0), (0, 1), (0, 5), (0, 2)]
    managers = []
    for _ in range(2):
        manager = BufferManager(capacity_pages=2, policy=policy)
        for page in range(3):
            manager.pin(0, page)
        managers.append(manager)
    batched, single = managers
    with CostCounter.activate() as batched_cost:
        with pytest.raises(BufferError_):
            batched.request_pages(keys)
    with CostCounter.activate() as single_cost:
        with pytest.raises(BufferError_):
            for key in keys:
                single.request(*key)
    # the two hits are charged; the miss whose admission failed is not
    assert batched_cost.snapshot()["buffer_hits"] == 2
    assert batched_cost.snapshot()["page_reads"] == 0
    assert (batched.requests, batched.misses) == (3, 1)
    assert batched_cost.snapshot() == single_cost.snapshot()
    assert _state(batched) == _state(single)
