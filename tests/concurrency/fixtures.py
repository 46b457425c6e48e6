"""Deliberately broken concurrency fixtures (the seeded-race suite).

Each class below violates the :mod:`repro.sync` declaration protocol
in exactly one way.  They live under ``tests/`` (never inside
``src/repro``) so that ``repro check`` over the package stays clean
while the regression tests assert that:

* the static analyzer flags each class with its exact MOA7xx code
  (``test_races.py``), and
* the runtime sanitizer catches the same bug dynamically under the
  thread executor (``test_sanitizer.py``).

``CleanCounter`` is the control: correctly declared and locked, it
must produce *no* findings either way.
"""

from __future__ import annotations

from repro.sync import declares_shared_state, guarded_by, make_lock


@declares_shared_state
class UnguardedCounter:
    """MOA701: writes declared shared state without holding its lock."""

    SHARED_STATE = {"count": "_lock"}

    def __init__(self) -> None:
        self._lock = make_lock("fixture.counter")
        self.count = 0

    def bump(self) -> None:
        self.count += 1  # no lock: the classic lost-update race

    def safe_bump(self) -> None:
        with self._lock:
            self.count += 1

    @guarded_by("_lock")
    def add_locked(self, n: int) -> None:
        self.count += n


@declares_shared_state
class LockOrderInversion:
    """MOA703: two locks acquired in opposite orders on two paths."""

    SHARED_STATE = {"value": "_lock_a"}

    def __init__(self) -> None:
        self._lock_a = make_lock("fixture.order.a")
        self._lock_b = make_lock("fixture.order.b")
        self.value = 0

    def forward(self) -> None:
        with self._lock_a:
            with self._lock_b:
                self.value += 1

    def backward(self) -> None:
        with self._lock_b:
            with self._lock_a:
                self.value += 1


class UndeclaredShared:
    """MOA702: lock-owning class mutating state with no declaration."""

    def __init__(self) -> None:
        self._lock = make_lock("fixture.undeclared")
        self.total = 0

    def add(self, n: int) -> None:
        with self._lock:
            self.total += n


@declares_shared_state
class BadDeclaration:
    """MOA704: the declaration names a lock that does not exist."""

    SHARED_STATE = {"items": "_missing_lock"}

    def __init__(self) -> None:
        self.items: list[object] = []

    def push(self, value) -> None:
        self.items.append(value)


@declares_shared_state
class CleanCounter:
    """Control: correctly declared and locked — zero findings."""

    SHARED_STATE = {"count": "_lock"}

    def __init__(self) -> None:
        self._lock = make_lock("fixture.clean")
        self.count = 0

    def bump(self, n: int = 1) -> None:
        with self._lock:
            self._add(n)

    @guarded_by("_lock")
    def _add(self, n: int) -> None:
        self.count += n
