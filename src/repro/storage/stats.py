"""Cost accounting for the storage kernel and everything above it.

.. note:: Not to be confused with :mod:`repro.storage.statistics`,
   which holds *column statistics* (zone maps, equi-depth histograms)
   for the cost model's selectivity estimates.  This module counts
   *work performed* (pages, tuples, comparisons) while a query runs.

The paper's claims are phrased in terms of "how much data is processed"
(e.g. *"processing only a small portion of the data of approximately 5%
of the unfragmented size ... speed up query processing ... with at least
60%"*).  Wall-clock time of a pure-Python reproduction is dominated by
interpreter overhead, so every kernel operation additionally reports a
deterministic, seed-stable *simulated cost*:

* ``page_reads`` / ``page_writes`` — page-granular I/O, as counted by
  the simulated buffer manager (:mod:`repro.storage.buffer`);
* ``buffer_hits`` — page requests satisfied from the buffer pool;
* ``tuples_read`` / ``tuples_written`` — tuple touches;
* ``comparisons`` — comparisons performed by selections, joins, sorts;
* ``random_accesses`` / ``sorted_accesses`` — the access-mode counters
  of Fagin-style middleware algorithms (FA/TA/NRA).

Counters are grouped in a :class:`CostCounter`.  A thread-local *stack*
of active counters lets callers scope measurement with ``with`` blocks::

    with CostCounter.activate() as cost:
        run_query(...)
    print(cost.page_reads, cost.tuples_read)

Nested activations all receive the charges, so a benchmark harness can
keep a global counter while an inner experiment keeps its own.

Two read-only views support finer-grained attribution without
monkeypatching: :meth:`CostCounter.snapshot` freezes the current
counts as a plain dict, and :meth:`CostCounter.delta` subtracts two
snapshots.  The execution tracer (:mod:`repro.obs.tracer`) uses them
to attribute cost to individual spans of a run.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields

__all__ = [
    "CostCounter",
    "active_counters",
    "charge_buffer_hits",
    "charge_comparisons",
    "charge_extra",
    "charge_page_reads",
    "charge_page_writes",
    "charge_random_accesses",
    "charge_sorted_accesses",
    "charge_tuples_read",
    "charge_tuples_written",
]

_local = threading.local()


def _counter_stack() -> list["CostCounter"]:
    """Return the thread-local stack of active counters."""
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = []
        _local.stack = stack
    return stack


@dataclass
class CostCounter:
    """Accumulates simulated costs for a dynamic scope.

    Instances are plain dataclasses; all mutation goes through the
    ``charge_*`` module functions (or :meth:`add`) so that every active
    counter on the stack is charged consistently.
    """

    page_reads: int = 0
    page_writes: int = 0
    buffer_hits: int = 0
    tuples_read: int = 0
    tuples_written: int = 0
    comparisons: int = 0
    random_accesses: int = 0
    sorted_accesses: int = 0
    #: free-form named counters for experiment-specific bookkeeping
    extra: dict = field(default_factory=dict)

    # -- scope management -------------------------------------------------

    def __enter__(self) -> "CostCounter":
        _counter_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _counter_stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:  # defensive: unbalanced exits
            stack.remove(self)

    @classmethod
    def activate(cls) -> "CostCounter":
        """Create a fresh counter; use as ``with CostCounter.activate() as c``."""
        return cls()

    # -- arithmetic --------------------------------------------------------

    def add(self, other: "CostCounter") -> None:
        """Accumulate ``other`` into this counter (used for merging
        per-query counters into per-run totals)."""
        for f in fields(self):
            if f.name == "extra":
                for key, value in other.extra.items():
                    self.extra[key] = self.extra.get(key, 0) + value
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            if f.name == "extra":
                self.extra.clear()
            else:
                setattr(self, f.name, 0)

    def snapshot(self) -> dict:
        """Return the counters as a plain dict (for reports/JSON)."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"}
        out.update(self.extra)
        return out

    @staticmethod
    def delta(before: dict, after: dict) -> dict:
        """Counter-wise difference ``after - before`` of two
        :meth:`snapshot` dicts.

        Keys missing on either side count as 0 (``extra`` counters may
        appear mid-run).  This is the primitive the execution tracer
        uses to attribute cost to a span: snapshot on entry, snapshot
        on exit, delta is the span's inclusive cost.
        """
        keys = dict.fromkeys(before)
        keys.update(dict.fromkeys(after))
        return {key: after.get(key, 0) - before.get(key, 0) for key in keys}

    @property
    def total_accesses(self) -> int:
        """Combined access count used by the Fagin-family experiments
        (sorted plus random accesses)."""
        return self.random_accesses + self.sorted_accesses

    @property
    def total_io(self) -> int:
        """Pages that actually hit the simulated disk."""
        return self.page_reads + self.page_writes

    def modeled_seconds(
        self,
        page_read_ms: float = 5.0,
        page_write_ms: float = 6.0,
        tuple_us: float = 0.5,
        comparison_us: float = 0.1,
    ) -> float:
        """Deterministic modeled execution time.

        Converts the counters into seconds using device constants
        (defaults approximate a late-90s disk + CPU, the paper's
        hardware era: ~5 ms per random page, sub-microsecond tuple
        handling).  This is the measure to use when comparing
        strategies for *speedup shape*: unlike wall-clock it is free of
        Python interpreter overhead and perfectly reproducible.
        """
        return (
            self.page_reads * page_read_ms * 1e-3
            + self.page_writes * page_write_ms * 1e-3
            + (self.tuples_read + self.tuples_written) * tuple_us * 1e-6
            + self.comparisons * comparison_us * 1e-6
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"CostCounter({parts})"


# -- charging helpers -----------------------------------------------------
#
# Kernel code calls these free functions; they charge every counter that
# is currently active, which makes nested measurement scopes "just work".


def _charge(attr: str, amount: int) -> None:
    if amount == 0:
        return
    for counter in _counter_stack():
        setattr(counter, attr, getattr(counter, attr) + amount)


def charge_page_reads(n: int = 1) -> None:
    """Charge ``n`` simulated page reads (buffer misses)."""
    _charge("page_reads", n)


def charge_page_writes(n: int = 1) -> None:
    """Charge ``n`` simulated page writes."""
    _charge("page_writes", n)


def charge_buffer_hits(n: int = 1) -> None:
    """Charge ``n`` page requests that were buffer hits."""
    _charge("buffer_hits", n)


def charge_tuples_read(n: int) -> None:
    """Charge ``n`` tuple touches on the read side."""
    _charge("tuples_read", n)


def charge_tuples_written(n: int) -> None:
    """Charge ``n`` tuple touches on the write side."""
    _charge("tuples_written", n)


def charge_comparisons(n: int) -> None:
    """Charge ``n`` comparisons (selection predicates, join probes,
    or an analytic ``n log n`` estimate for sorts)."""
    _charge("comparisons", n)


def charge_random_accesses(n: int = 1) -> None:
    """Charge ``n`` random accesses (Fagin-style middleware cost)."""
    _charge("random_accesses", n)


def charge_sorted_accesses(n: int = 1) -> None:
    """Charge ``n`` sorted accesses (Fagin-style middleware cost)."""
    _charge("sorted_accesses", n)


def charge_extra(name: str, amount: int = 1) -> None:
    """Charge an experiment-specific named counter."""
    if amount == 0:
        return
    for counter in _counter_stack():
        counter.extra[name] = counter.extra.get(name, 0) + amount


def active_counters() -> tuple["CostCounter", ...]:
    """Return the currently active counters (outermost first)."""
    return tuple(_counter_stack())

