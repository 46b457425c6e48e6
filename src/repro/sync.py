"""Concurrency declarations, tracked locks and the opt-in race sanitizer.

The query server runs queries on worker threads, so the buffer pool,
the metrics registry, the query cache and the server's own tables are
touched concurrently.  This module is the *declaration protocol*
that makes that sharing checkable — statically by
:mod:`repro.analysis.concurrency` and dynamically by the race
sanitizer defined here.

Declaration protocol
--------------------
A class (or module) that owns shared mutable state declares it::

    @declares_shared_state
    class BufferManager:
        SHARED_STATE = {"_pool": "_lock", "requests": "_lock"}

Each key is an attribute name; each value is either the name of the
lock attribute that must be held for every write, or one of the
markers:

* ``"<thread-confined>"`` — only ever accessed by its owning thread;
* ``"<barrier>"`` — writes are separated by an external happens-before
  barrier (e.g. a ``threading.Event`` the reader waits on before its
  first read);
* ``"<config>"`` — mutated only during single-threaded configuration
  (module import, test setup), never on a worker path.

Helpers called with a lock already held declare it::

    @guarded_by("_lock")
    def _admit(self, key): ...

Resource-lifecycle declarations (PR 9) extend the protocol for the
:mod:`repro.analysis.lifecycle` analyzer (the ``MOA11xx`` family):

* ``@acquires(kind)`` marks a function whose return value is a *held*
  resource handle of ``kind`` (a factory: ``ExecutorPool.admit`` hands
  out a pool slot, ``SessionRegistry.issue`` a busy session).  Inside
  such a factory, handing the held handle out *is* the contract, so
  the analyzer exempts it from leak/escape reporting for that kind.
* ``@releases(kind)`` marks the function that gives a handle of
  ``kind`` back (``ServeSession.release``, ``SessionRegistry.drop``).
  A call passing a tracked handle (or one of its attributes, e.g.
  ``session.token``) to a release method transitions it to released.
* ``LOCK_LEAF = True`` on a class declares its lock a *leaf* in the
  lock-order graph: no other lock is ever acquired while it is held.
  The static lock-order pass (MOA1105) verifies the claim — an
  out-edge from a declared-leaf lock is reported.

Both decorators are pure markers (one attribute set, zero call
overhead); the analyzer reads them from the AST, so annotated modules
never need the analyzer importable.

The sanitizer
-------------
Disabled by default and free when disabled (classes are not even
patched).  ``REPRO_SANITIZE=1`` (checked at ``import repro``) or an
explicit :func:`install_sanitizer` turns it on: every registered
class's ``__setattr__`` then checks declared writes against the
current thread's *lockset* (maintained by :class:`TrackedLock`),
declared containers are wrapped in access-recording proxies, lock
acquisition order is recorded in a global graph (inversions are
reported), and ``@guarded_by`` calls verify the named lock is held.
Findings accumulate as :class:`RaceViolation` records readable via
:func:`violations`.
"""

from __future__ import annotations

import functools
import os
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass

__all__ = [
    "ACQUIRE_METHODS",
    "BARRIER",
    "CONFIG",
    "KEYED_ACQUIRE_METHODS",
    "KEYED_RELEASE_METHODS",
    "MARKERS",
    "RELEASE_METHODS",
    "RESOURCE_KINDS",
    "RaceViolation",
    "SANITIZE_ENV",
    "THREAD_CONFINED",
    "TrackedLock",
    "acquires",
    "auto_install",
    "declares_shared_state",
    "guarded_by",
    "install_sanitizer",
    "lock_order_edges",
    "make_lock",
    "releases",
    "reset_violations",
    "sanitizer_active",
    "uninstall_sanitizer",
    "violations",
]

#: environment variable that turns the sanitizer on at ``import repro``
SANITIZE_ENV = "REPRO_SANITIZE"

#: declaration markers (values of ``SHARED_STATE`` besides lock names)
THREAD_CONFINED = "<thread-confined>"
BARRIER = "<barrier>"
CONFIG = "<config>"
MARKERS = (THREAD_CONFINED, BARRIER, CONFIG)

# -- sanitizer state --------------------------------------------------------
#
# _state_lock is a *plain* lock (a TrackedLock here would recurse into
# its own bookkeeping); everything below it is declared so the static
# analyzer holds this module to its own discipline.

SHARED_STATE = {
    "_active": "<config>",
    "_patched": "<config>",
    "_shared_classes": "<config>",
    "_violations": "_state_lock",
    "_order_edges": "_state_lock",
    "_confined": "_state_lock",
}

_state_lock = threading.Lock()
_active = False
_shared_classes: list[type] = []
_patched: dict[type, tuple] = {}
_violations: list["RaceViolation"] = []
#: (held_lock_name, acquired_lock_name) -> thread name that first saw it
_order_edges: dict[tuple[str, str], str] = {}
#: (id(owner), attr) -> owning thread ident, for <thread-confined> state
_confined: dict[tuple[int, str], int] = {}

_held = threading.local()


def _held_stack() -> list["TrackedLock"]:
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = []
        _held.stack = stack
    return stack


@dataclass(frozen=True)
class RaceViolation:
    """One sanitizer finding.

    ``kind`` is ``unguarded-write`` (declared lock not held),
    ``unguarded-call`` (``@guarded_by`` entered without the lock),
    ``confinement`` (thread-confined state touched cross-thread) or
    ``lock-order``.
    """

    kind: str
    where: str
    thread: str
    detail: str

    def render(self) -> str:
        return f"{self.kind} at {self.where} [{self.thread}]: {self.detail}"


def _report(violation: RaceViolation) -> None:
    with _state_lock:
        _violations.append(violation)


def violations() -> tuple[RaceViolation, ...]:
    """All violations recorded since the last :func:`reset_violations`."""
    with _state_lock:
        return tuple(_violations)


def reset_violations() -> None:
    """Clear recorded violations, the order graph and confinement map."""
    with _state_lock:
        _violations.clear()
        _order_edges.clear()
        _confined.clear()


def lock_order_edges() -> dict[tuple[str, str], str]:
    """Copy of the observed lock-acquisition-order graph."""
    with _state_lock:
        return dict(_order_edges)


def sanitizer_active() -> bool:
    return _active


# -- tracked locks ----------------------------------------------------------


class TrackedLock:
    """A named mutex that maintains the per-thread lockset.

    Wraps a plain :class:`threading.Lock`; while the sanitizer is
    active every acquisition is pushed on the acquiring thread's
    lockset (so declared writes can be checked against it) and
    recorded in the global acquisition-order graph, where a reversed
    edge is reported as a ``lock-order`` violation.  Inactive overhead
    is one global read per acquire/release.
    """

    __slots__ = ("name", "_inner")

    def __init__(self, name: str = "lock") -> None:
        self.name = name
        self._inner = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired and _active:
            self._push()
        return acquired

    def release(self) -> None:
        if _active:
            self._pop()
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def held_by_me(self) -> bool:
        """Whether the *current thread* holds this lock (sanitizer on)."""
        return any(lock is self for lock in _held_stack())

    def _push(self) -> None:
        stack = _held_stack()
        if stack:
            thread = threading.current_thread().name
            with _state_lock:
                for held in stack:
                    if held.name == self.name:
                        continue
                    edge = (held.name, self.name)
                    if edge not in _order_edges:
                        _order_edges[edge] = thread
                    reverse = (self.name, held.name)
                    if reverse in _order_edges:
                        _violations.append(RaceViolation(
                            kind="lock-order",
                            where=f"{held.name} -> {self.name}",
                            thread=thread,
                            detail=(f"acquired {self.name!r} while holding "
                                    f"{held.name!r}, but the reverse order was "
                                    f"seen on thread {_order_edges[reverse]!r}"),
                        ))
        stack.append(self)

    def _pop(self) -> None:
        stack = _held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                return

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrackedLock({self.name!r}, locked={self.locked()})"


def make_lock(name: str) -> TrackedLock:
    """The lock constructor declared shared state should use."""
    return TrackedLock(name)


def _lock_held(lock) -> bool:
    """Best-effort 'does the current thread hold this lock'."""
    if isinstance(lock, TrackedLock):
        return lock.held_by_me()
    if lock is None:
        return False
    is_owned = getattr(lock, "_is_owned", None)
    if is_owned is not None:  # RLock: exact ownership
        return bool(is_owned())
    locked = getattr(lock, "locked", None)
    if locked is not None:  # plain Lock: held by *someone*
        return bool(locked())
    return False


# -- declarations -----------------------------------------------------------


def guarded_by(lock_name: str):
    """Declare that callers must hold ``self.<lock_name>`` around this
    method.  The static analyzer treats the lock as held for the body;
    the sanitizer verifies the claim at call time when active."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if _active:
                lock = getattr(self, lock_name, None)
                if not _lock_held(lock):
                    _report(RaceViolation(
                        kind="unguarded-call",
                        where=f"{type(self).__name__}.{fn.__name__}",
                        thread=threading.current_thread().name,
                        detail=f"entered without holding {lock_name!r}",
                    ))
            return fn(self, *args, **kwargs)

        wrapper.__guarded_by__ = lock_name
        return wrapper

    return decorate


# -- resource-lifecycle declarations ----------------------------------------

#: resource kinds the lifecycle analyzer tracks as typestates
RESOURCE_KINDS = ("lock", "slot", "session", "pin")

#: method names that hand out a held handle when their result is bound
#: (``h = recv.admit(...)`` / ``with recv.admit():``); a *discarded*
#: result is not an acquisition — a handle nobody binds cannot be
#: paired with its release, so only the bound/scoped forms are tracked
ACQUIRE_METHODS = {
    "admit": "slot",
    "issue": "session",
    "redeem": "session",
}

#: method names that give a tracked handle back: the handle appears as
#: the receiver (``session.release()``) or an argument / argument
#: attribute (``registry.drop(session.token)``)
RELEASE_METHODS = {
    "release": "session",
    "drop": "session",
}

#: statement-form pairs keyed by their receiver: ``buf.pin(seg, page)``
#: acquires the receiver-keyed pin resource, ``buf.unpin(...)`` releases
KEYED_ACQUIRE_METHODS = {"pin": "pin"}
KEYED_RELEASE_METHODS = {"unpin": "pin"}


def acquires(kind: str):
    """Declare that this function returns a *held* resource handle of
    ``kind`` — a factory the lifecycle analyzer (MOA11xx) treats as the
    acquisition site's implementation, exempt from leak/escape
    reporting for that kind.  Pure marker: sets ``__acquires__``."""
    if kind not in RESOURCE_KINDS:
        raise ValueError(
            f"unknown resource kind {kind!r}; have {RESOURCE_KINDS}")

    def decorate(fn):
        fn.__acquires__ = kind
        return fn

    return decorate


def releases(kind: str):
    """Declare that this function releases a handle of ``kind`` passed
    to it (or owned by its receiver).  Pure marker: sets
    ``__releases__``; read from the AST by the lifecycle analyzer."""
    if kind not in RESOURCE_KINDS:
        raise ValueError(
            f"unknown resource kind {kind!r}; have {RESOURCE_KINDS}")

    def decorate(fn):
        fn.__releases__ = kind
        return fn

    return decorate


def declares_shared_state(cls: type) -> type:
    """Class decorator registering ``cls.SHARED_STATE`` with the
    sanitizer.  Free when the sanitizer is off;
    when on, the class is instrumented immediately."""
    _shared_classes.append(cls)
    if _active:
        _instrument_class(cls)
    return cls


# -- runtime checks ---------------------------------------------------------


def _check_write(owner, attr: str, decl: str, op: str) -> None:
    if decl in (CONFIG, BARRIER):
        return
    where = f"{type(owner).__name__}.{attr}"
    me = threading.get_ident()
    if decl == THREAD_CONFINED:
        with _state_lock:
            first = _confined.setdefault((id(owner), attr), me)
        if first != me:
            _report(RaceViolation(
                kind="confinement",
                where=where,
                thread=threading.current_thread().name,
                detail=f"{op} of thread-confined state from a foreign thread",
            ))
        return
    lock = getattr(owner, decl, None)
    if not _lock_held(lock):
        _report(RaceViolation(
            kind="unguarded-write",
            where=where,
            thread=threading.current_thread().name,
            detail=f"{op} without holding {decl!r}",
        ))


def _check_read(owner, attr: str, decl: str) -> None:
    if decl == THREAD_CONFINED:
        _check_write(owner, attr, decl, "read")


# -- container proxies ------------------------------------------------------

_MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "move_to_end", "pop", "popitem", "popleft",
    "remove", "reverse", "setdefault", "sort", "update",
})

_WRAPPABLE = (dict, list, deque, OrderedDict, set)


class GuardedContainer:
    """Access-recording proxy around one declared container attribute.

    Mutating operations check the owner's declared lock discipline;
    reads of thread-confined state check the accessor.
    Everything else delegates to the wrapped container, so iteration,
    membership, ``len`` and lookups behave identically.
    """

    __slots__ = ("_repro_inner", "_repro_owner", "_repro_attr", "_repro_decl")

    def __init__(self, inner, owner, attr: str, decl: str) -> None:
        object.__setattr__(self, "_repro_inner", inner)
        object.__setattr__(self, "_repro_owner", owner)
        object.__setattr__(self, "_repro_attr", attr)
        object.__setattr__(self, "_repro_decl", decl)

    def _repro_check(self, op: str) -> None:
        if not _active:
            return
        _check_write(self._repro_owner, self._repro_attr, self._repro_decl, op)

    def __getattr__(self, name):
        value = getattr(self._repro_inner, name)
        if name in _MUTATORS and callable(value):
            proxy = self

            @functools.wraps(value)
            def guarded(*args, **kwargs):
                proxy._repro_check(name)
                return value(*args, **kwargs)

            return guarded
        return value

    def __setitem__(self, key, value) -> None:
        self._repro_check("__setitem__")
        self._repro_inner[key] = value

    def __delitem__(self, key) -> None:
        self._repro_check("__delitem__")
        del self._repro_inner[key]

    def __getitem__(self, key):
        if _active:
            _check_read(self._repro_owner, self._repro_attr, self._repro_decl)
        return self._repro_inner[key]

    def __contains__(self, item) -> bool:
        return item in self._repro_inner

    def __iter__(self):
        return iter(self._repro_inner)

    def __len__(self) -> int:
        return len(self._repro_inner)

    def __bool__(self) -> bool:
        return bool(self._repro_inner)

    def __eq__(self, other) -> bool:
        if isinstance(other, GuardedContainer):
            other = other._repro_inner
        return self._repro_inner == other

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GuardedContainer({self._repro_inner!r})"


def _maybe_wrap(owner, attr: str, decl: str, value):
    if decl == CONFIG or isinstance(value, GuardedContainer):
        return value
    if isinstance(value, _WRAPPABLE):
        return GuardedContainer(value, owner, attr, decl)
    return value


# -- class instrumentation --------------------------------------------------


def _has_attr(obj, name: str) -> bool:
    try:
        object.__getattribute__(obj, name)
        return True
    except AttributeError:
        return False


def _constructed(obj, name: str) -> bool:
    """Whether the attribute already exists *on the instance*.  A class
    attribute does not count: dataclass field defaults live on the
    class, so the generated ``__init__``'s first assignment must still
    fall under the construction exemption.  ``__slots__`` classes have
    no instance ``__dict__``; there an unset slot raises
    ``AttributeError`` and a slot cannot shadow a class default."""
    try:
        instance_dict = object.__getattribute__(obj, "__dict__")
    except AttributeError:
        return _has_attr(obj, name)
    return name in instance_dict


def _instrument_class(cls: type) -> None:
    if cls in _patched:
        return
    decls = dict(getattr(cls, "SHARED_STATE", {}))
    orig_setattr = cls.__setattr__
    orig_init = cls.__init__

    def checking_setattr(self, name, value):
        decl = decls.get(name)
        if decl is not None and _active:
            if _constructed(self, name):  # first assignment is construction
                _check_write(self, name, decl, "assign")
            value = _maybe_wrap(self, name, decl, value)
        orig_setattr(self, name, value)

    @functools.wraps(orig_init)
    def wrapping_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        if _active:
            for name, decl in decls.items():
                if _has_attr(self, name):
                    raw = object.__getattribute__(self, name)
                    wrapped = _maybe_wrap(self, name, decl, raw)
                    if wrapped is not raw:
                        orig_setattr(self, name, wrapped)

    cls.__setattr__ = checking_setattr
    cls.__init__ = wrapping_init
    _patched[cls] = (orig_setattr, orig_init)


def install_sanitizer() -> None:
    """Turn on dynamic race checking: instrument every registered class."""
    global _active
    _active = True
    for cls in list(_shared_classes):
        _instrument_class(cls)


def uninstall_sanitizer() -> None:
    """Restore original class hooks and stop checking.  Containers
    already wrapped stay wrapped but become inert (they check
    :func:`sanitizer_active` first)."""
    global _active
    _active = False
    for cls, (orig_setattr, orig_init) in _patched.items():
        cls.__setattr__ = orig_setattr
        cls.__init__ = orig_init
    _patched.clear()
    reset_violations()


def _report_at_exit() -> None:
    found = violations()
    if found:
        import sys

        print(f"repro sanitizer: {len(found)} race violation(s)",
              file=sys.stderr)
        for violation in found:
            print(f"  {violation.render()}", file=sys.stderr)


def auto_install() -> bool:
    """Install the sanitizer when ``REPRO_SANITIZE`` is set (truthy);
    called once from ``import repro``.  Violations still pending at
    interpreter exit are printed to stderr (pytest runs read them via
    :func:`violations` instead and reset between tests)."""
    if os.environ.get(SANITIZE_ENV, "") not in ("", "0"):
        import atexit

        install_sanitizer()
        atexit.register(_report_at_exit)
        return True
    return False
