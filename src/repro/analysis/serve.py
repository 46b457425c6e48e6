"""Serve-safety analysis: the ``MOA10xx`` family.

The query service multiplies the concurrency surface — every request
crosses from the asyncio loop onto pool threads and back, and every
resume token is a promise about state captured earlier.  This module
holds the service layer to three statically checkable disciplines plus
one runtime diagnostic:

* **MOA1001 — undeclared shared server state.**  Every class in the
  server-side serve modules whose methods mutate instance attributes
  must declare those attributes under the :mod:`repro.sync` protocol
  (``SHARED_STATE`` with a lock name or confinement marker), so
  ``repro check`` and the race sanitizer cover the service like the
  rest of the engine.
* **MOA1002 — resume token redeemed across a corpus epoch** (runtime,
  emitted through :func:`epoch_mismatch_diagnostic` when the registry
  refuses such a resume): an anytime frontier captured at epoch *e*
  certifies bounds only against epoch-*e* scores.
* **MOA1003 — engine work scheduled outside admission.**  Any function
  in the server module that schedules engine work on pool threads
  (``run_in_executor``) must visibly run under an admission: it either
  takes the admission as a parameter or performs ``.admit(...)``
  itself.  A code path that pumps chunks without this is a quota
  bypass.
* **MOA1004 — executor work without a cancel token.**  The same call
  sites must reference the request's :class:`CancelToken` (a ``cancel``
  name or ``cancelled()`` check) — otherwise the deadline a client set
  can never stop the stream.

The AST rules are deliberately syntactic (like the MOA7xx analyzer):
they check that the *discipline is visible in the code shape*, which
is exactly what keeps it reviewable.
"""

from __future__ import annotations

import ast
from pathlib import Path

from .diagnostics import Diagnostic, DiagnosticReport, make_diagnostic

#: serve modules whose objects live on the server side of the socket
#: (client and protocol helpers are caller-confined and out of scope)
SERVER_SIDE_MODULES = ("server.py", "session.py", "tenants.py")

#: attribute writes inside these methods are construction, not sharing
_INIT_METHODS = {"__init__", "__post_init__"}


def serve_root() -> Path:
    """Directory of the installed ``repro.serve`` package."""
    from .. import serve

    return Path(serve.__file__).resolve().parent


def epoch_mismatch_diagnostic(token_epoch: int, current_epoch: int) -> Diagnostic:
    """The MOA1002 finding for one refused cross-epoch resume."""
    return make_diagnostic(
        "MOA1002",
        f"resume token was issued at corpus epoch {token_epoch} but the "
        f"database is now at epoch {current_epoch}; the captured frontier "
        "certifies bounds only against the issuing epoch's scores, so the "
        "stream cannot be continued — re-run the query",
        site="serve.resume",
    )


def check_serve(root=None) -> DiagnosticReport:
    """Run the static MOA1001/1003/1004 rules over the serve package."""
    root = Path(root) if root is not None else serve_root()
    report = DiagnosticReport(source=f"serve {root}")
    for name in SERVER_SIDE_MODULES:
        path = root / name
        if not path.exists():
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        _check_module(tree, path, report)
    return report


def check_serve_paths(paths) -> DiagnosticReport:
    """Explicit-path variant (``repro check <files>``): only listed
    files that are server-side serve modules are analyzed."""
    report = DiagnosticReport(source=", ".join(str(p) for p in paths))
    for raw in paths:
        path = Path(raw)
        candidates = ([p for name in SERVER_SIDE_MODULES
                       for p in [path / name] if p.exists()]
                      if path.is_dir() else
                      [path] if path.name in SERVER_SIDE_MODULES else [])
        for candidate in candidates:
            tree = ast.parse(candidate.read_text(encoding="utf-8"),
                             filename=str(candidate))
            _check_module(tree, candidate, report)
    return report


# -- rule implementations ---------------------------------------------------


def _check_module(tree: ast.Module, path: Path, report: DiagnosticReport) -> None:
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            _check_class_declarations(node, path, report)
    for func in _functions(tree):
        if not _calls_run_in_executor(func):
            continue
        site = f"{path.name}:{func.lineno}"
        if not _visibly_admitted(func):
            report.add(make_diagnostic(
                "MOA1003",
                f"{func.name!r} schedules engine work via run_in_executor "
                "but neither takes an admission parameter nor calls "
                ".admit(...): work on pool threads must be visibly "
                "covered by tenant and pool admission",
                site=site))
        if not _references_cancel(func):
            report.add(make_diagnostic(
                "MOA1004",
                f"{func.name!r} schedules engine work via run_in_executor "
                "without referencing the request's cancel token: a "
                "client-set deadline could never stop this stream",
                site=site))


def _check_class_declarations(node: ast.ClassDef, path: Path,
                              report: DiagnosticReport) -> None:
    declared = _declared_attrs(node)
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name in _INIT_METHODS:
            continue
        for attr, lineno in _self_writes(method):
            if attr in declared:
                continue
            report.add(make_diagnostic(
                "MOA1001",
                f"{node.name}.{attr} is mutated outside construction but "
                "is not declared in SHARED_STATE: server-side serve state "
                "crosses the event-loop/worker boundary and must carry a "
                "lock name or confinement marker for repro check and the "
                "race sanitizer",
                site=f"{path.name}:{lineno}"))


def _declared_attrs(node: ast.ClassDef) -> set[str]:
    """Names listed in the class's literal ``SHARED_STATE`` dict."""
    declared: set[str] = set()
    for stmt in node.body:
        targets = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        for target in targets:
            if (isinstance(target, ast.Name) and target.id == "SHARED_STATE"
                    and isinstance(stmt.value, ast.Dict)):
                for key in stmt.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        declared.add(key.value)
    return declared


def _self_writes(func) -> list[tuple[str, int]]:
    """(attr, line) for every write to ``self.<attr>`` in ``func``,
    including augmented assigns and subscript/container writes."""
    writes: list[tuple[str, int]] = []
    for node in ast.walk(func):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            attr = _self_attr(target)
            if attr is not None:
                writes.append((attr, node.lineno))
    return writes


def _self_attr(target) -> str | None:
    if isinstance(target, ast.Subscript):
        target = target.value
    if (isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"):
        return target.attr
    return None


def _functions(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _calls_run_in_executor(func) -> bool:
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "run_in_executor"):
            return True
    return False


def _visibly_admitted(func) -> bool:
    args = func.args
    names = [a.arg for a in args.args + args.posonlyargs + args.kwonlyargs]
    if "admission" in names:
        return True
    for node in ast.walk(func):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "admit"):
            return True
    return False


def _references_cancel(func) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and "cancel" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and "cancel" in node.attr.lower():
            return True
        if isinstance(node, ast.arg) and "cancel" in node.arg.lower():
            return True
    return False
