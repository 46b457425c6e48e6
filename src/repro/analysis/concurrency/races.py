"""Lock-discipline and race analysis over inferred effects.

The second layer of ``repro check``: takes the per-module effect
summaries of :mod:`.effects` and checks them against the declaration
protocol of :mod:`repro.sync`, emitting the ``MOA7xx`` diagnostic
family:

* **MOA701** — a method writes an attribute declared in
  ``SHARED_STATE`` without holding its declared lock;
* **MOA702** — shared mutable state with no declaration at all: a
  declared class mutating undeclared attributes after construction, an
  undeclared lock-owning class or module-level singleton on the worker
  paths, or a mutated module global without a module ``SHARED_STATE``;
* **MOA703** — two locks acquired in opposite nesting orders on
  different code paths (one-level call resolution included);
* **MOA704** — a declaration references a lock attribute the class
  never defines;
* **MOA705** — a lock held around a scope that writes no declared
  shared state.

*Worker paths* are the modules reachable (package-internal imports,
BFS) from :data:`WORKER_ROOTS` — the executor and the coordinator —
plus every module that opts in by carrying declarations.  Analysis of
an explicit file list (fixtures, third-party snippets) treats every
given module as in scope.
"""

from __future__ import annotations

from collections import deque

from ..diagnostics import DiagnosticReport, make_diagnostic
from .effects import CONSTRUCTORS, ClassEffects, FunctionEffects, ModuleEffects

__all__ = [
    "WORKER_ROOTS",
    "analyze_effects",
    "reachable_modules",
]

#: the entry points whose import closure defines the worker paths
WORKER_ROOTS = ("repro.parallel.executor", "repro.parallel.coordinator")

#: markers that never require a lock at a write site
_LOCK_FREE_MARKERS = frozenset({"<thread-confined>", "<barrier>", "<config>"})


def reachable_modules(modules: dict, roots=WORKER_ROOTS) -> set:
    """Modules reachable from ``roots`` via package-internal imports."""
    frontier = deque(root for root in roots if root in modules)
    seen = set(frontier)
    while frontier:
        current = modules[frontier.popleft()]
        for target in current.imports:
            # an import of a package also pulls in its __init__
            for candidate in (target,):
                if candidate in modules and candidate not in seen:
                    seen.add(candidate)
                    frontier.append(candidate)
    return seen


def _site(module: ModuleEffects, line: int) -> str:
    return f"{module.path}:{line}"


def _held_covers(locks: frozenset, wanted: str) -> bool:
    """Whether a held lockset satisfies a declared lock name.

    Declared names are attribute names (``_lock``); acquisition tokens
    are rendered the same way for ``self`` locks and as dotted names
    for globals, so direct membership is the common case.  A dotted
    token whose leaf matches (``state._lock`` for ``_lock``) also
    counts — the walker cannot tell aliases apart, and over-approving
    held locks only costs false negatives, never false alarms.
    """
    if wanted in locks:
        return True
    return any(token.rsplit(".", 1)[-1] == wanted for token in locks)


class _Analyzer:
    def __init__(self, modules: dict, all_in_scope: bool) -> None:
        self.modules = modules
        if all_in_scope:
            self.scope = set(modules)
        else:
            self.scope = reachable_modules(modules)
            # modules that carry declarations opt in to checking
            for name, module in modules.items():
                if module.shared_state is not None or any(
                    cls.declared for cls in module.classes.values()
                ):
                    self.scope.add(name)
        self.report = DiagnosticReport(source="repro check")
        #: (first, second) -> site of first observed acquisition order
        self.order_edges: dict = {}

    def run(self) -> DiagnosticReport:
        for name in sorted(self.scope):
            module = self.modules[name]
            for cls in module.classes.values():
                self._check_class(module, cls)
            self._check_module_globals(module)
            for fn in module.all_functions():
                self._collect_lock_orders(module, fn)
        self._check_lock_orders()
        return self.report

    # -- per-class rules ----------------------------------------------------

    def _check_class(self, module: ModuleEffects, cls: ClassEffects) -> None:
        if cls.declared:
            self._check_declared_class(module, cls)
        elif self._undeclared_needs_declaration(module, cls):
            writes = cls.noninit_writes()
            mutated = sorted(attr for attr in writes if attr not in cls.lock_attrs)
            if mutated:
                first = min(w.line for attr in mutated for w in writes[attr])
                self.report.add(make_diagnostic(
                    "MOA702",
                    f"class {cls.name} on the worker paths mutates "
                    f"{', '.join(mutated)} after construction but declares no "
                    "SHARED_STATE",
                    site=_site(module, first),
                    expr=cls.name,
                ))

    def _undeclared_needs_declaration(self, module: ModuleEffects,
                                      cls: ClassEffects) -> bool:
        """Heuristic scope of MOA702 for undeclared classes: the class
        owns a lock (it *knows* it is shared) or is instantiated into a
        module-level singleton (every thread sees the same instance)."""
        if cls.lock_attrs:
            return True
        return cls.name in set(module.singletons.values())

    def _check_declared_class(self, module: ModuleEffects, cls: ClassEffects) -> None:
        shared = cls.shared_state or {}

        # MOA704: declarations must reference real locks / known attrs
        for attr, lock in sorted(shared.items()):
            if lock in _LOCK_FREE_MARKERS:
                continue
            if lock not in cls.lock_attrs:
                self.report.add(make_diagnostic(
                    "MOA704",
                    f"{cls.name}.SHARED_STATE guards {attr!r} with "
                    f"{lock!r}, but the class defines no such lock attribute",
                    site=_site(module, cls.lineno),
                    expr=f"{cls.name}.{attr}",
                ))
        for name, fn in sorted(cls.methods.items()):
            if fn.guarded_by and fn.guarded_by not in cls.lock_attrs:
                self.report.add(make_diagnostic(
                    "MOA704",
                    f"@guarded_by({fn.guarded_by!r}) on {cls.name}.{name} "
                    "references a lock attribute the class never defines",
                    site=_site(module, fn.lineno),
                    expr=f"{cls.name}.{name}",
                ))

        for name, fn in sorted(cls.methods.items()):
            if name in CONSTRUCTORS:
                continue
            self._check_method_writes(module, cls, fn, shared)
            self._check_useless_locks(module, cls, fn, shared)

        # MOA702 inside a declared class: post-construction writes to
        # attributes the declaration does not cover
        writes = cls.noninit_writes()
        undeclared = sorted(
            attr for attr in writes
            if attr not in shared and attr not in cls.lock_attrs
        )
        for attr in undeclared:
            first = min(w.line for w in writes[attr])
            self.report.add(make_diagnostic(
                "MOA702",
                f"{cls.name}.{attr} is mutated after construction but is "
                "not covered by the class's SHARED_STATE declaration",
                site=_site(module, first),
                expr=f"{cls.name}.{attr}",
            ))

    def _check_method_writes(self, module: ModuleEffects, cls: ClassEffects,
                             fn: FunctionEffects, shared: dict) -> None:
        for write in fn.self_writes:
            decl = shared.get(write.attr)
            if decl is None:
                continue  # handled by the MOA702 sweep above
            if decl not in _LOCK_FREE_MARKERS and not _held_covers(write.locks, decl):
                self.report.add(make_diagnostic(
                    "MOA701",
                    f"{cls.name}.{fn.name} writes shared attribute "
                    f"{write.attr!r} ({write.kind}) without holding its "
                    f"declared lock {decl!r}",
                    site=_site(module, write.line),
                    expr=f"{cls.name}.{write.attr}",
                ))

    def _check_useless_locks(self, module: ModuleEffects, cls: ClassEffects,
                             fn: FunctionEffects, shared: dict) -> None:
        guarded_attrs = {
            attr for attr, lock in shared.items()
            if lock not in _LOCK_FREE_MARKERS
        }
        for acq in fn.locks_acquired:
            token_leaf = acq.token.rsplit(".", 1)[-1]
            if token_leaf not in cls.lock_attrs:
                continue  # a foreign lock: not ours to judge
            touches = any(
                _held_covers(w.locks, token_leaf) and w.attr in guarded_attrs
                for w in fn.self_writes
            ) or any(
                attr in guarded_attrs for attr in fn.self_reads
            ) or any(
                _held_covers(held, token_leaf) for _, _, held in fn.calls
                if _held_covers(held, token_leaf)
            )
            # calls under the lock may touch state indirectly; only an
            # entirely empty critical section (no writes, no reads of
            # guarded attrs, no calls) is flagged
            calls_under = [c for c in fn.calls if _held_covers(c[2], token_leaf)]
            writes_under = [w for w in fn.self_writes
                            if _held_covers(w.locks, token_leaf)]
            reads_guarded = guarded_attrs & fn.self_reads
            if not calls_under and not writes_under and not reads_guarded:
                del touches
                self.report.add(make_diagnostic(
                    "MOA705",
                    f"{cls.name}.{fn.name} acquires {acq.token!r} around a "
                    "scope that writes no declared shared state",
                    site=_site(module, acq.line),
                    expr=f"{cls.name}.{fn.name}",
                ))

    # -- module globals -----------------------------------------------------

    def _check_module_globals(self, module: ModuleEffects) -> None:
        declared = module.shared_state or {}
        for fn in module.all_functions():
            for write in fn.global_writes:
                name = write.attr
                decl = declared.get(name)
                if decl is None:
                    self.report.add(make_diagnostic(
                        "MOA702",
                        f"module global {name!r} is mutated by "
                        f"{fn.qualname} but {module.module} declares no "
                        "SHARED_STATE entry for it",
                        site=_site(module, write.line),
                        expr=name,
                    ))
                elif (decl not in _LOCK_FREE_MARKERS
                      and not _held_covers(write.locks, decl)):
                    self.report.add(make_diagnostic(
                        "MOA701",
                        f"{fn.qualname} writes module global {name!r} "
                        f"without holding its declared lock {decl!r}",
                        site=_site(module, write.line),
                        expr=name,
                    ))

    # -- lock ordering ------------------------------------------------------

    def _collect_lock_orders(self, module: ModuleEffects,
                             fn: FunctionEffects) -> None:
        for acq in fn.locks_acquired:
            for held in acq.held:
                if held == acq.token:
                    continue
                edge = (held, acq.token)
                self.order_edges.setdefault(edge, _site(module, acq.line))
        # one-level call resolution: calling a @guarded_by method while
        # holding a lock implies held -> callee's lock
        for dotted, line, held in fn.calls:
            if not held:
                continue
            leaf = dotted.rsplit(".", 1)[-1]
            callee = self._find_guarded_method(leaf)
            if callee is None:
                continue
            for token in held:
                if token != callee:
                    self.order_edges.setdefault(
                        (token, callee), _site(module, line))

    def _find_guarded_method(self, name: str) -> str | None:
        for mod_name in self.scope:
            for cls in self.modules[mod_name].classes.values():
                fn = cls.methods.get(name)
                if fn is not None and fn.guarded_by:
                    return fn.guarded_by
        return None

    def _check_lock_orders(self) -> None:
        reported = set()
        for (first, second), site in sorted(self.order_edges.items()):
            reverse = (second, first)
            if reverse in self.order_edges and frozenset(
                    (first, second)) not in reported:
                reported.add(frozenset((first, second)))
                self.report.add(make_diagnostic(
                    "MOA703",
                    f"locks {first!r} and {second!r} are acquired in "
                    f"opposite orders ({first} -> {second} here, "
                    f"{second} -> {first} at {self.order_edges[reverse]})",
                    site=site,
                    expr=f"{first} <-> {second}",
                ))


def analyze_effects(modules: dict, all_in_scope: bool = False) -> DiagnosticReport:
    """Run the full MOA7xx race analysis over inferred module effects.

    ``all_in_scope=True`` (used for explicit file lists) checks every
    module; the default restricts MOA702's undeclared-state rules to
    the worker-path import closure plus declared modules.
    """
    return _Analyzer(modules, all_in_scope=all_in_scope).run()
