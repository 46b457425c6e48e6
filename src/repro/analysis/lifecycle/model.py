"""Resource model of the lifecycle analyzer: what counts as an
acquire, a release, a lock, a factory.

The vocabulary has two layers:

* the **builtin protocol** exported by :mod:`repro.sync`
  (``ACQUIRE_METHODS`` / ``RELEASE_METHODS`` / the keyed pin pair) —
  always active, so fixture modules can be analyzed standalone without
  importing anything;
* **declared extensions** read from the AST: ``@acquires(kind)`` /
  ``@releases(kind)`` decorators add the decorated method's name to
  the vocabulary, and mark the function itself as a factory (exempt
  from leak/escape reporting for its kind) or a releaser.

Acquire *sites* are deliberately narrow — only ``h = recv.m(...)``
and ``with recv.m(...):`` forms acquire, never a discarded call
result.  A name-only rule would flag every call of a method that
merely shares a vocabulary name (any object's ``admit``), and a
discarded handle cannot be paired with its release anyway.  The two
exceptions are receiver-keyed pairs (``buf.pin(...)`` /
``buf.unpin(...)``) and lock receivers (``self._lock.acquire()``),
where the *receiver* is the resource.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from ...sync import (
    ACQUIRE_METHODS,
    KEYED_ACQUIRE_METHODS,
    KEYED_RELEASE_METHODS,
    RELEASE_METHODS,
)

__all__ = [
    "ClassContext",
    "Vocabulary",
    "dotted",
    "function_acquires",
    "function_releases",
    "looks_like_lock",
]


def dotted(node: ast.AST) -> str:
    """Render a Name/Attribute chain as ``a.b.c`` (empty if dynamic)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def looks_like_lock(token: str) -> bool:
    """Lock heuristic shared with the MOA7xx effect inference: the
    final path segment mentions 'lock'."""
    return "lock" in token.rsplit(".", 1)[-1].lower()


def _marker_kind(node, marker: str) -> str | None:
    """``@acquires("slot")`` / ``@releases("session")`` decorator kind."""
    for decorator in node.decorator_list:
        if (isinstance(decorator, ast.Call)
                and dotted(decorator.func).rsplit(".", 1)[-1] == marker
                and decorator.args
                and isinstance(decorator.args[0], ast.Constant)
                and isinstance(decorator.args[0].value, str)):
            return decorator.args[0].value
    return None


def function_acquires(node) -> str | None:
    """The ``@acquires(kind)`` declaration of a function, if any."""
    return _marker_kind(node, "acquires")


def function_releases(node) -> str | None:
    """The ``@releases(kind)`` declaration of a function, if any."""
    return _marker_kind(node, "releases")


@dataclass
class Vocabulary:
    """The acquire/release method-name vocabulary for one analysis run:
    builtin protocol names plus every ``@acquires``/``@releases``
    declaration scanned from the analyzed trees."""

    acquire: dict = field(default_factory=lambda: dict(ACQUIRE_METHODS))
    release: dict = field(default_factory=lambda: dict(RELEASE_METHODS))
    keyed_acquire: dict = field(
        default_factory=lambda: dict(KEYED_ACQUIRE_METHODS))
    keyed_release: dict = field(
        default_factory=lambda: dict(KEYED_RELEASE_METHODS))

    def extend_from_tree(self, tree: ast.AST) -> None:
        """Add every decorator-declared method name found in ``tree``."""
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            kind = function_acquires(node)
            if kind is not None and node.name not in self.keyed_acquire:
                self.acquire.setdefault(node.name, kind)
            kind = function_releases(node)
            if kind is not None and node.name not in self.keyed_release:
                self.release.setdefault(node.name, kind)


@dataclass
class ClassContext:
    """What the enclosing class declares, for escape/lock resolution:
    the attributes its ``SHARED_STATE`` covers (storing
    a held handle there is an ownership transfer, not an escape) and
    its lock attributes."""

    name: str = ""
    declared_attrs: frozenset = frozenset()
    lock_attrs: frozenset = frozenset()

    @classmethod
    def from_classdef(cls, node: ast.ClassDef) -> "ClassContext":
        declared: set = set()
        locks: set = set()
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if target.id == "SHARED_STATE" and isinstance(stmt.value, ast.Dict):
                    for key in stmt.value.keys:
                        if (isinstance(key, ast.Constant)
                                and isinstance(key.value, str)):
                            declared.add(key.value)
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and looks_like_lock(target.attr)):
                        locks.add(target.attr)
        return cls(name=node.name, declared_attrs=frozenset(declared),
                   lock_attrs=frozenset(locks))
