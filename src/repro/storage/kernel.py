"""The BAT algebra: physical operators over binary association tables.

These free functions are the reproduction's stand-in for the MonetDB
kernel that Moa flattens its object-algebra expressions onto.  Each
operator

* is *value-semantics*: inputs are never mutated, a fresh :class:`BAT`
  is returned;
* declares the properties (sortedness, keys) it can guarantee on its
  result;
* charges the simulated cost model (:mod:`repro.storage.stats`): page
  reads through the buffer manager for persistent inputs, tuple touches
  for all inputs, comparisons for predicates/sorts, and tuple writes
  for materialized outputs.

Cost-model conventions
----------------------
* Scanning a persistent BAT requests its page range from the buffer
  manager; scanning a transient intermediate charges only tuple reads.
* A range-select on a *tail-sorted* persistent BAT performs binary
  search (``2 * ceil(log2 n)`` comparisons, a handful of random page
  probes) and then scans only the qualifying page range — this is what
  makes sorted fragments and the non-dense index pay off in the paper's
  Step 1 experiments.
* Sorts charge ``n * ceil(log2 n)`` comparisons (analytic estimate).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import BATShapeError, BATTypeError
from . import stats
from .bat import BAT
from .buffer import get_buffer_manager
from ..obs import tracer as _trace

__all__ = [
    "scan_cost",
    "reverse",
    "mirror",
    "mark",
    "select_range",
    "select_eq",
    "select_mask",
    "fetchjoin",
    "fetch_values",
    "hashjoin",
    "semijoin",
    "antijoin",
    "sort_tail",
    "sort_head",
    "topn_tail",
    "slice_pairs",
    "sum_tail",
    "max_tail",
    "min_tail",
    "count_tail",
    "group_sum",
    "group_count",
    "group_max",
    "unique_tail",
    "append",
    "scale_tail",
    "shift_tail",
    "combine_aligned",
    "assert_valid",
]


# ---------------------------------------------------------------------------
# cost helpers
# ---------------------------------------------------------------------------


def scan_cost(bat: BAT, n_tuples: int | None = None, start: int = 0) -> None:
    """Charge the cost of sequentially reading ``n_tuples`` tuples of
    ``bat`` (all of them by default)."""
    n = len(bat) if n_tuples is None else n_tuples
    if n <= 0:
        return
    if bat.persistent:
        get_buffer_manager().scan(bat.segment_id, n, start_tuple=start)
    else:
        stats.charge_tuples_read(n)


def _random_probe_cost(bat: BAT, positions: np.ndarray) -> None:
    """Charge the cost of positional access to the given tuple
    positions: unique pages for persistent BATs, tuple touches always."""
    n = len(positions)
    if n == 0:
        return
    if bat.persistent:
        manager = get_buffer_manager()
        pages = np.unique(positions // manager.page_tuples)
        manager.request_pages([(bat.segment_id, page_no) for page_no in pages.tolist()])
        stats.charge_tuples_read(n)
    else:
        stats.charge_tuples_read(n)


def _emit(n: int) -> None:
    """Charge materialization of an ``n``-tuple result."""
    stats.charge_tuples_written(max(n, 0))


def _log2_ceil(n: int) -> int:
    return max(1, math.ceil(math.log2(n))) if n > 1 else 1


# ---------------------------------------------------------------------------
# structural operators (views; essentially free)
# ---------------------------------------------------------------------------


def reverse(bat: BAT) -> BAT:
    """Swap head and tail: ``[(h, t)] -> [(t, h)]``.

    The tail becomes the (integer) head, so the input tail must be an
    integer column.  Like MonetDB's ``reverse`` this is a zero-cost
    view: no pages are touched.
    """
    if bat.tail_dtype_kind != "i":
        raise BATTypeError("reverse needs an integer tail to use as head oids")
    result = BAT(
        bat.head_array(),
        head=bat.tail.astype(np.int64, copy=False),
        head_key=bat.tail_key,
        tail_key=bat.head_key,
        tail_sorted=bat.is_dense_head,
        name=bat.name,
    )
    return result


def mirror(bat: BAT) -> BAT:
    """``[(h, t)] -> [(h, h)]`` — both columns become the head."""
    heads = bat.head_array()
    if bat.is_dense_head:
        return BAT(
            heads,
            hseqbase=bat.hseqbase,
            tail_sorted=True,
            tail_key=True,
            name=bat.name,
        )
    return BAT(heads, head=heads, head_key=bat.head_key, tail_key=bat.head_key, name=bat.name)


def mark(bat: BAT, base: int = 0) -> BAT:
    """``[(h, t)] -> [(h, base..base+n-1)]`` — number the tuples.

    The classic rank/oid-issuing operator; the tail of the result is a
    fresh dense sequence.  Used to turn sorted score lists into ranks.
    """
    n = len(bat)
    _emit(n)
    if bat.is_dense_head:
        return BAT(
            np.arange(base, base + n, dtype=np.int64),
            hseqbase=bat.hseqbase,
            tail_sorted=True,
            tail_key=True,
        )
    return BAT(
        np.arange(base, base + n, dtype=np.int64),
        head=bat.head_array(),
        head_key=bat.head_key,
        tail_sorted=True,
        tail_key=True,
    )


# ---------------------------------------------------------------------------
# selections
# ---------------------------------------------------------------------------


def _binary_search_cost(bat: BAT) -> None:
    """Charge the probe cost of a binary search on a sorted tail."""
    n = len(bat)
    steps = _log2_ceil(n)
    stats.charge_comparisons(2 * steps)
    if bat.persistent:
        manager = get_buffer_manager()
        total_pages = manager.pages_for(n)
        probes = min(steps, total_pages)
        # probe a spread of pages, as a real binary search would
        manager.request_pages([(bat.segment_id, (total_pages - 1) * (k + 1) // (probes + 1))
                               for k in range(probes)])


def select_range(
    bat: BAT,
    lo=None,
    hi=None,
    include_lo: bool = True,
    include_hi: bool = True,
) -> BAT:
    """Range selection on the tail: keep pairs with ``lo <= tail <= hi``.

    ``None`` bounds are open.  On a tail-sorted BAT this uses binary
    search and touches only the qualifying range; otherwise it scans.
    This is the ``select`` of the paper's Example 1 (there written as
    ``select([1,2,3,4,4,5], 2, 4)``).
    """
    tail = bat.tail
    n = len(tail)
    sorted_asc = bat.tail_sorted and not bat.tail_sorted_desc

    if n == 0:
        return bat.clone_with(
            tail_sorted=bat.tail_sorted,
            tail_sorted_desc=bat.tail_sorted_desc,
            tail_key=bat.tail_key,
        )

    if sorted_asc:
        _binary_search_cost(bat)
        left = 0 if lo is None else int(
            np.searchsorted(tail, lo, "left" if include_lo else "right"))
        right = n if hi is None else int(
            np.searchsorted(tail, hi, "right" if include_hi else "left"))
        right = max(right, left)
        scan_cost(bat, right - left, start=left)
        _emit(right - left)
        return BAT(
            tail[left:right],
            head=bat.heads_at(slice(left, right)),
            head_key=bat.head_key,
            tail_sorted=True,
            tail_key=bat.tail_key,
        )

    # unsorted (or descending): full scan
    scan_cost(bat)
    comparisons = n * ((lo is not None) + (hi is not None))
    stats.charge_comparisons(comparisons)
    mask = np.ones(n, dtype=bool)
    if lo is not None:
        mask &= tail >= lo if include_lo else tail > lo
    if hi is not None:
        mask &= tail <= hi if include_hi else tail < hi
    return select_mask(bat, mask, _precharged=True)


def select_eq(bat: BAT, value) -> BAT:
    """Equality selection on the tail (``tail == value``)."""
    return select_range(bat, lo=value, hi=value)


def select_mask(bat: BAT, mask: np.ndarray, _precharged: bool = False) -> BAT:
    """Keep the pairs where ``mask`` is True.

    The mask must align positionally with the BAT.  Charges a scan
    unless the caller already did (``_precharged``)."""
    if len(mask) != len(bat):
        raise BATShapeError(f"mask length {len(mask)} != BAT length {len(bat)}")
    if not _precharged:
        scan_cost(bat)
        stats.charge_comparisons(len(bat))
    out_tail = bat.tail[mask]
    _emit(len(out_tail))
    return BAT(
        out_tail,
        head=bat.heads_at(mask),
        head_key=bat.head_key,
        tail_sorted=bat.tail_sorted,
        tail_sorted_desc=bat.tail_sorted_desc,
        tail_key=bat.tail_key,
    )


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def fetchjoin(left: BAT, right: BAT) -> BAT:
    """Positional join: ``left.tail`` are oids into ``right``'s dense
    head; result is ``[(left.head, right.tail[left.tail])]``.

    This is MonetDB's cheap "fetch join"; it costs one random page
    probe per distinct page of ``right`` touched.
    """
    if not right.is_dense_head:
        raise BATShapeError("fetchjoin requires the right BAT to have a dense head")
    if left.tail_dtype_kind != "i":
        raise BATTypeError("fetchjoin requires integer oids in the left tail")
    scan_cost(left)
    positions = left.tail.astype(np.int64, copy=False) - right.hseqbase
    if len(positions) and (positions.min() < 0 or positions.max() >= len(right)):
        raise BATShapeError("fetchjoin: left tail oids fall outside right head range")
    _random_probe_cost(right, positions)
    out_tail = right.tail[positions]
    _emit(len(out_tail))
    if left.is_dense_head:
        return BAT(out_tail, hseqbase=left.hseqbase)
    return BAT(out_tail, head=left.head_array(), head_key=left.head_key)


def fetch_values(bat: BAT, oids: np.ndarray) -> np.ndarray:
    """Random access: return ``bat``'s tail values at the given head
    oids (dense head required), charging random probe costs.  Returns a
    bare array — the caller decides how to wrap it."""
    positions = bat.head_positions(np.asarray(oids, dtype=np.int64))
    if len(positions) and (positions.min() < 0 or positions.max() >= len(bat)):
        raise BATShapeError("fetch_values: oids fall outside head range")
    _random_probe_cost(bat, positions)
    return bat.tail[positions]


def hashjoin(left: BAT, right: BAT) -> BAT:
    """Equi-join on ``left.tail == right.head``; result is
    ``[(left.head, right.tail)]`` for every matching pair.

    Handles duplicate join keys on both sides (full many-to-many
    semantics).  Costs a scan of both inputs plus one comparison per
    probed tuple.
    """
    if left.tail_dtype_kind != "i":
        raise BATTypeError("hashjoin requires integer join keys in the left tail")
    with _trace.span("kernel.hashjoin", left=len(left), right=len(right)):
        return _hashjoin(left, right)


def _hashjoin(left: BAT, right: BAT) -> BAT:
    if right.is_dense_head:
        # positional fast path, but tolerate out-of-range keys by filtering
        scan_cost(left)
        positions = left.tail.astype(np.int64, copy=False) - right.hseqbase
        stats.charge_comparisons(len(positions))
        valid = (positions >= 0) & (positions < len(right))
        positions = positions[valid]
        _random_probe_cost(right, positions)
        out_tail = right.tail[positions]
        _emit(len(out_tail))
        return BAT(out_tail, head=left.heads_at(valid))

    scan_cost(left)
    scan_cost(right)
    right_heads = right.head_array()
    order = np.argsort(right_heads, kind="stable")
    sorted_heads = right_heads[order]
    lo = np.searchsorted(sorted_heads, left.tail, "left")
    hi = np.searchsorted(sorted_heads, left.tail, "right")
    counts = hi - lo
    stats.charge_comparisons(len(left) + len(right))
    total = int(counts.sum())
    if total == 0:
        _emit(0)
        return BAT(right.tail[:0], head=np.empty(0, dtype=np.int64))
    left_idx = np.repeat(np.arange(len(left)), counts)
    # build, for each output row, its index into sorted_heads
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    within = np.arange(total) - offsets
    right_idx = order[np.repeat(lo, counts) + within]
    out_tail = right.tail[right_idx]
    _emit(total)
    return BAT(out_tail, head=left.heads_at(left_idx))


def semijoin(left: BAT, right: BAT) -> BAT:
    """Keep the ``left`` pairs whose *head* occurs among ``right``'s
    heads.  Costs a scan of both sides."""
    scan_cost(left)
    scan_cost(right)
    stats.charge_comparisons(len(left))
    mask = np.isin(left.head_array(), right.head_array())
    return select_mask(left, mask, _precharged=True)


def antijoin(left: BAT, right: BAT) -> BAT:
    """Keep the ``left`` pairs whose head does *not* occur among
    ``right``'s heads (set difference on heads)."""
    scan_cost(left)
    scan_cost(right)
    stats.charge_comparisons(len(left))
    mask = ~np.isin(left.head_array(), right.head_array())
    return select_mask(left, mask, _precharged=True)


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------


def sort_tail(bat: BAT, descending: bool = False) -> BAT:
    """Full sort on the tail column (stable).  Charges an
    ``n log n`` comparison estimate plus a scan and a materialization."""
    n = len(bat)
    with _trace.span("kernel.sort_tail", n=n, descending=descending):
        scan_cost(bat)
        stats.charge_comparisons(n * _log2_ceil(n) if n else 0)
        # canonical order: tail (asc or desc), ties broken by head oid
        # ascending — the deterministic tie-break every top-N result
        # shares (see repro.topn.result), so classic sort+slice plans
        # agree with topn_tail on tied boundaries
        if bat.tail_dtype_kind == "U":
            # non-numeric tails cannot be negated: keep the stable sort
            order = np.argsort(bat.tail, kind="stable")
            if descending:
                order = order[::-1]
        else:
            order = bat.sort_positions(-bat.tail if descending else bat.tail)
        _emit(n)
        return BAT(
            bat.tail[order],
            head=bat.heads_at(order),
            head_key=bat.head_key,
            tail_sorted=not descending,
            tail_sorted_desc=descending,
            tail_key=bat.tail_key,
        )


def sort_head(bat: BAT) -> BAT:
    """Stable sort on the head column (for canonical comparisons)."""
    if bat.is_dense_head:
        return bat
    n = len(bat)
    scan_cost(bat)
    stats.charge_comparisons(n * _log2_ceil(n) if n else 0)
    order = np.argsort(bat.head_array(), kind="stable")
    _emit(n)
    return BAT(
        bat.tail[order],
        head=bat.heads_at(order),
        head_key=bat.head_key,
        tail_key=bat.tail_key,
    )


def topn_tail(bat: BAT, n: int, descending: bool = True) -> BAT:
    """Return the ``n`` pairs with the largest (default) or smallest
    tails, sorted; ties broken by head oid for determinism.

    This is the *special top-N operator* the paper proposes at the
    physical level ("special top N operators, which can be seen as
    special select operators").  Uses partial selection
    (``argpartition``), so it charges only ``n_input + N log N``
    comparisons instead of a full sort.
    """
    size = len(bat)
    n = max(int(n), 0)
    with _trace.span("kernel.topn_tail", n=n, size=size, descending=descending):
        return _topn_tail(bat, n, size, descending)


def _topn_tail(bat: BAT, n: int, size: int, descending: bool) -> BAT:
    scan_cost(bat)
    if n == 0:
        _emit(0)
        return BAT(bat.tail[:0], head=np.empty(0, dtype=np.int64), tail_sorted=not descending,
                   tail_sorted_desc=descending)
    values = -bat.tail if descending else bat.tail
    if n >= size:
        stats.charge_comparisons(size * _log2_ceil(size) if size else 0)
        order = bat.sort_positions(values)
    else:
        stats.charge_comparisons(size + n * _log2_ceil(n))
        # partition gives the boundary value; resolve boundary ties by
        # head oid so the result is deterministic and equals the full
        # sort's prefix
        boundary = np.partition(values, n - 1)[n - 1]
        strict = np.nonzero(values < boundary)[0]
        tied = np.nonzero(values == boundary)[0]
        need = n - len(strict)
        tied_selected = tied[np.argsort(bat.heads_at(tied), kind="stable")][:need]
        chosen = np.concatenate([strict, tied_selected])
        order = chosen[np.lexsort((bat.heads_at(chosen), values[chosen]))]
    _emit(len(order))
    return BAT(
        bat.tail[order],
        head=bat.heads_at(order),
        head_key=bat.head_key,
        tail_sorted=not descending,
        tail_sorted_desc=descending,
        tail_key=bat.tail_key,
    )


def slice_pairs(bat: BAT, offset: int, count: int) -> BAT:
    """Positional slice: pairs ``offset .. offset+count-1``.

    Together with :func:`sort_tail` this forms the *naive* top-N plan
    (sort everything, keep the first N)."""
    offset = max(int(offset), 0)
    count = max(int(count), 0)
    stop = min(offset + count, len(bat))
    taken = max(stop - offset, 0)
    scan_cost(bat, taken, start=offset)
    _emit(taken)
    return BAT(
        bat.tail[offset:stop],
        head=bat.heads_at(slice(offset, stop)),
        head_key=bat.head_key,
        tail_sorted=bat.tail_sorted,
        tail_sorted_desc=bat.tail_sorted_desc,
        tail_key=bat.tail_key,
    )


# ---------------------------------------------------------------------------
# aggregates
# ---------------------------------------------------------------------------


def _numeric_tail(bat: BAT, op: str) -> np.ndarray:
    if bat.tail_dtype_kind == "U":
        raise BATTypeError(f"{op} requires a numeric tail")
    return bat.tail


def sum_tail(bat: BAT) -> float:
    """Sum of the tail column."""
    scan_cost(bat)
    return float(_numeric_tail(bat, "sum_tail").sum()) if len(bat) else 0.0


def max_tail(bat: BAT):
    """Maximum tail value (None on empty input)."""
    scan_cost(bat)
    if len(bat) == 0:
        return None
    return _numeric_tail(bat, "max_tail").max().item()


def min_tail(bat: BAT):
    """Minimum tail value (None on empty input)."""
    scan_cost(bat)
    if len(bat) == 0:
        return None
    return _numeric_tail(bat, "min_tail").min().item()


def count_tail(bat: BAT) -> int:
    """Number of pairs (no scan needed; cardinality is metadata)."""
    return len(bat)


def _grouped(bat: BAT):
    heads = bat.head_array()
    groups, inverse = np.unique(heads, return_inverse=True)
    return heads, groups, inverse


def group_sum(bat: BAT) -> BAT:
    """Group by head, sum tails: ``[(h, sum(t))]`` with unique heads.

    The workhorse of score accumulation: summing per-document partial
    scores over query terms."""
    with _trace.span("kernel.group_sum", n=len(bat)):
        return _group_sum(bat)


def _group_sum(bat: BAT) -> BAT:
    scan_cost(bat)
    stats.charge_comparisons(len(bat))
    if len(bat) == 0:
        return BAT(np.empty(0, dtype=np.float64), head=np.empty(0, dtype=np.int64), head_key=True)
    values = _numeric_tail(bat, "group_sum").astype(np.float64, copy=False)
    _, groups, inverse = _grouped(bat)
    sums = np.bincount(inverse, weights=values, minlength=len(groups))
    _emit(len(groups))
    return BAT(sums, head=groups, head_key=True)


def group_count(bat: BAT) -> BAT:
    """Group by head, count tuples: ``[(h, |group|)]``."""
    scan_cost(bat)
    stats.charge_comparisons(len(bat))
    if len(bat) == 0:
        return BAT(np.empty(0, dtype=np.int64), head=np.empty(0, dtype=np.int64), head_key=True)
    _, groups, inverse = _grouped(bat)
    counts = np.bincount(inverse, minlength=len(groups)).astype(np.int64)
    _emit(len(groups))
    return BAT(counts, head=groups, head_key=True)


def group_max(bat: BAT) -> BAT:
    """Group by head, take the max tail per group."""
    scan_cost(bat)
    stats.charge_comparisons(len(bat))
    if len(bat) == 0:
        return BAT(np.empty(0, dtype=np.float64), head=np.empty(0, dtype=np.int64), head_key=True)
    values = _numeric_tail(bat, "group_max").astype(np.float64, copy=False)
    _, groups, inverse = _grouped(bat)
    maxima = np.full(len(groups), -np.inf)
    np.maximum.at(maxima, inverse, values)
    _emit(len(groups))
    return BAT(maxima, head=groups, head_key=True)


def unique_tail(bat: BAT) -> BAT:
    """Distinct tail values, sorted ascending, with fresh dense heads.

    This is the flattened form of the paper's ``projecttoset``-style
    duplicate elimination."""
    scan_cost(bat)
    stats.charge_comparisons(len(bat) * _log2_ceil(len(bat)) if len(bat) else 0)
    distinct = np.unique(bat.tail)
    _emit(len(distinct))
    return BAT(distinct, tail_sorted=True, tail_key=True)


# ---------------------------------------------------------------------------
# construction / arithmetic
# ---------------------------------------------------------------------------


def append(first: BAT, second: BAT) -> BAT:
    """Concatenate two BATs (heads materialize; properties dropped)."""
    if first.tail.dtype.kind != second.tail.dtype.kind:
        raise BATTypeError(
            f"append: incompatible tails {first.tail.dtype} vs {second.tail.dtype}"
        )
    scan_cost(first)
    scan_cost(second)
    _emit(len(first) + len(second))
    return BAT(
        np.concatenate([first.tail, second.tail]),
        head=np.concatenate([first.head_array(), second.head_array()]),
    )


def scale_tail(bat: BAT, factor: float) -> BAT:
    """Multiply every tail by ``factor`` (monotone for factor > 0, so
    sortedness is preserved; flipped for factor < 0)."""
    scan_cost(bat)
    _emit(len(bat))
    flipped = factor < 0
    return bat.clone_with(
        tail=_numeric_tail(bat, "scale_tail") * factor,
        tail_sorted=bat.tail_sorted_desc if flipped else bat.tail_sorted,
        tail_sorted_desc=bat.tail_sorted if flipped else bat.tail_sorted_desc,
        tail_key=bat.tail_key and factor != 0,
        head_key=bat.head_key,
    )


def shift_tail(bat: BAT, delta: float) -> BAT:
    """Add ``delta`` to every tail (order preserving)."""
    scan_cost(bat)
    _emit(len(bat))
    return bat.clone_with(
        tail=_numeric_tail(bat, "shift_tail") + delta,
        tail_sorted=bat.tail_sorted,
        tail_sorted_desc=bat.tail_sorted_desc,
        tail_key=bat.tail_key,
        head_key=bat.head_key,
    )


def combine_aligned(first: BAT, second: BAT, op: str = "add") -> BAT:
    """Elementwise combine two positionally aligned BATs
    (``add``/``mul``/``max``/``min``); heads must match."""
    if len(first) != len(second):
        raise BATShapeError(
            f"combine_aligned: length mismatch {len(first)} vs {len(second)}"
        )
    if not first.same_heads(second):
        raise BATShapeError("combine_aligned: heads are not aligned")
    ops = {
        "add": np.add,
        "mul": np.multiply,
        "max": np.maximum,
        "min": np.minimum,
    }
    if op not in ops:
        raise BATTypeError(f"combine_aligned: unknown op {op!r}")
    scan_cost(first)
    scan_cost(second)
    _emit(len(first))
    out = ops[op](
        _numeric_tail(first, "combine_aligned").astype(np.float64, copy=False),
        _numeric_tail(second, "combine_aligned").astype(np.float64, copy=False),
    )
    if first.is_dense_head:
        return BAT(out, hseqbase=first.hseqbase)
    return BAT(out, head=first.head_array(), head_key=first.head_key)


def assert_valid(bat: BAT) -> BAT:
    """Raise if the BAT's declared properties do not hold; returns the
    BAT unchanged so it can be used inline in tests."""
    if not bat.verify_properties():
        raise BATShapeError(f"BAT properties are inconsistent with its data: {bat!r}")
    return bat
