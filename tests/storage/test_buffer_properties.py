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
    """An obviously-correct LRU cache model whose evictions skip pinned
    keys."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: OrderedDict = OrderedDict()
        self.pins: dict = {}

    def request(self, key) -> bool:
        """Hit or admit ``key``; raises ``BufferError_`` when the pool
        overflows with every remaining key pinned (``key`` stays
        admitted, as in the manager)."""
        if key in self.entries:
            self.entries.move_to_end(key)
            return True
        self.entries[key] = None
        while len(self.entries) > self.capacity:
            unpinned = [k for k in self.entries if k not in self.pins]
            if not unpinned:
                raise BufferError_("every remaining key is pinned")
            del self.entries[unpinned[0]]
        return False

    def pin(self, key) -> None:
        """Admit ``key`` without evicting, then pin it once more."""
        if key not in self.entries:
            self.entries[key] = None
        self.pins[key] = self.pins.get(key, 0) + 1

    def unpin(self, key) -> None:
        if key not in self.pins:
            raise BufferError_("not pinned")
        self.pins[key] -= 1
        if not self.pins[key]:
            del self.pins[key]

    def flush(self) -> None:
        for key in [k for k in self.entries if k not in self.pins]:
            del self.entries[key]


page_keys = st.tuples(st.integers(1, 3), st.integers(0, 10))  # (segment, page)

requests = st.lists(page_keys, min_size=0, max_size=200)

# few keys, so pins pile up on a key and meet evictions often
step_keys = st.tuples(st.integers(1, 2), st.integers(0, 5))

steps = st.lists(
    st.one_of(
        st.tuples(st.just("request"), step_keys),
        st.tuples(st.sampled_from(["pin", "unpin"]), step_keys),
        st.just(("flush", None)),
    ),
    # long enough that a key is pinned twice before an unpin
    min_size=30,
    max_size=200,
)


def _outcome(call):
    """The call's result, or the ``BufferError_`` it raised."""
    try:
        return call()
    except BufferError_:
        return BufferError_


@given(st.integers(1, 8), steps)
@settings(max_examples=100, deadline=None)
def test_buffer_matches_reference_lru(capacity, sequence):
    """Requests interleaved with pins, unpins and flushes: the same
    hits, the same refusals and the same resident and pinned frames as
    the reference."""
    buffer = BufferManager(capacity_pages=capacity, page_tuples=10)
    model = ReferenceLRU(capacity)
    for op, key in sequence:
        if op == "flush":
            buffer.flush()
            model.flush()
            continue
        got = _outcome(lambda: getattr(buffer, op)(*key))
        expected = _outcome(lambda: getattr(model, op)(key))
        assert got == expected, (op, key)
        assert buffer.resident_pages == len(model.entries)
        assert buffer.pinned_pages == len(model.pins)
    assert list(buffer._frames) == list(model.entries)


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
            list(buffer._frames))


@given(st.integers(1, 8), st.lists(requests, min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_batched_requests_equal_one_at_a_time(capacity, batches):
    """``request_pages`` is its keys' one-page requests in order: the
    same hits, counters, charges, metrics and frame order."""
    batched = BufferManager(capacity_pages=capacity, page_tuples=10)
    single = BufferManager(capacity_pages=capacity, page_tuples=10)
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


def test_batch_charges_what_it_did_before_a_failed_admission():
    """Every frame pinned: the batch's first miss cannot be admitted.
    The hits before it are charged and counted, like one request at a
    time."""
    keys = [(0, 0), (0, 1), (0, 5), (0, 2)]
    managers = []
    for _ in range(2):
        manager = BufferManager(capacity_pages=2)
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
