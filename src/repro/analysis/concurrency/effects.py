"""AST-based concurrency effect inference over Python source.

The first layer of ``repro check``: walk a set of modules and
summarize, per function, the *effects* that matter for concurrency
reasoning —

* writes to ``self`` attributes (plain assignment, augmented
  assignment, subscript stores and mutating method calls like
  ``self._pool.move_to_end(...)``), each tagged with the set of lock
  tokens held at the write site;
* reads of ``self`` attributes;
* writes to module globals (``global`` rebinds, subscript stores and
  mutator calls on module-level container names);
* lock acquisitions (``with self._lock:`` scopes and ``@guarded_by``
  declarations) and the locks already held when they happen — the raw
  material of lock-order analysis;
* thread/executor spawns and (dotted) call names for one-level call
  resolution.

Per class, the walker also extracts the declaration protocol of
:mod:`repro.sync` (``SHARED_STATE`` literals), the set
of lock attributes (anything assigned from ``threading.Lock`` /
``RLock`` / ``make_lock``, including dataclass ``field`` factories)
and which attributes ``__init__`` establishes.

Everything here is *syntactic* and deliberately conservative: aliased
containers, dynamic ``setattr`` and cross-object writes are out of
scope (the runtime sanitizer covers those paths dynamically).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "ClassEffects",
    "FunctionEffects",
    "LockAcquisition",
    "ModuleEffects",
    "WriteSite",
    "infer_module_effects",
    "infer_package_effects",
    "summarize_effects",
]

#: container methods treated as writes to the container's attribute
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "move_to_end", "pop", "popitem", "popleft",
    "remove", "reverse", "setdefault", "sort", "update",
})

#: call names treated as thread / executor spawns
SPAWN_CALLS = frozenset({
    "Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "submit",
})

_LOCK_FACTORY_NAMES = frozenset({"Lock", "RLock", "make_lock"})

#: methods exempt from lock discipline (single-threaded construction)
CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


def _dotted(node: ast.AST) -> str:
    """Render a Name/Attribute chain as ``a.b.c`` (empty if dynamic)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def _looks_like_lock(token: str) -> bool:
    """Lock heuristic: the final path segment mentions 'lock'."""
    return "lock" in token.rsplit(".", 1)[-1].lower()


def _is_lock_factory(node: ast.AST) -> bool:
    """Whether an assigned value creates a lock (directly or through a
    dataclass ``field(default_factory=...)``)."""
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Name, ast.Attribute)):
            name = sub.id if isinstance(sub, ast.Name) else sub.attr
            if name in _LOCK_FACTORY_NAMES:
                return True
    return False


def _literal_str_dict(node: ast.AST) -> dict | None:
    """Evaluate a ``{"attr": "lock"}`` literal; None if not one."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return None
    if isinstance(value, dict) and all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        return value
    return None


@dataclass(frozen=True)
class WriteSite:
    """One write to an attribute or global: where and under what locks."""

    attr: str
    line: int
    locks: frozenset
    #: ``assign`` / ``augassign`` / ``subscript`` / ``mutate:<method>``
    kind: str


@dataclass(frozen=True)
class LockAcquisition:
    """One ``with <lock>:`` entry and the locks already held there."""

    token: str
    line: int
    held: frozenset


@dataclass
class FunctionEffects:
    """The concurrency-relevant effect summary of one function."""

    module: str
    qualname: str
    name: str
    lineno: int
    self_var: str | None = None
    self_reads: set = field(default_factory=set)
    self_writes: list = field(default_factory=list)
    global_writes: list = field(default_factory=list)
    nonlocal_writes: set = field(default_factory=set)
    locks_acquired: list = field(default_factory=list)
    #: dotted call names with the lockset held at the call site
    calls: list = field(default_factory=list)
    spawns: list = field(default_factory=list)
    guarded_by: str | None = None


@dataclass
class ClassEffects:
    """Effects and declarations of one class."""

    name: str
    lineno: int
    methods: dict = field(default_factory=dict)
    lock_attrs: set = field(default_factory=set)
    shared_state: dict | None = None
    init_attrs: set = field(default_factory=set)

    @property
    def declared(self) -> bool:
        return self.shared_state is not None

    def noninit_writes(self) -> dict:
        """attr -> [WriteSite] over every non-constructor method."""
        out: dict = {}
        for name, fn in self.methods.items():
            if name in CONSTRUCTORS:
                continue
            for write in fn.self_writes:
                out.setdefault(write.attr, []).append(write)
        return out


@dataclass
class ModuleEffects:
    """Effects, declarations and import edges of one module."""

    module: str
    path: str
    classes: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)
    #: candidate package-internal import targets (resolved by the analyzer)
    imports: set = field(default_factory=set)
    shared_state: dict | None = None
    #: module-level names bound to ``threading.local()`` (confined by type)
    thread_locals: set = field(default_factory=set)
    #: all module-level assigned names
    globals_assigned: set = field(default_factory=set)
    #: classes instantiated into module-level names (name -> class name)
    singletons: dict = field(default_factory=dict)

    def all_functions(self):
        yield from self.functions.values()
        for cls in self.classes.values():
            yield from cls.methods.values()


class _FunctionWalker(ast.NodeVisitor):
    """Collects one function's effects, tracking the live lockset."""

    def __init__(self, effects: FunctionEffects, module: "ModuleEffects") -> None:
        self.effects = effects
        self.module = module
        base = {effects.guarded_by} if effects.guarded_by else set()
        self.lockset: list = sorted(base)
        self.locals: set = set()
        self.global_decls: set = set()

    # -- lockset helpers ---------------------------------------------------

    def _held(self) -> frozenset:
        return frozenset(self.lockset)

    def _lock_token(self, node: ast.AST) -> str | None:
        dotted = _dotted(node)
        if not dotted:
            return None
        if self.effects.self_var and dotted.startswith(self.effects.self_var + "."):
            dotted = dotted[len(self.effects.self_var) + 1:]
        return dotted if _looks_like_lock(dotted) else None

    # -- write/read recording ----------------------------------------------

    def _record_write(self, attr: str, line: int, kind: str) -> None:
        self.effects.self_writes.append(
            WriteSite(attr, line, self._held(), kind))

    def _record_global_write(self, name: str, line: int, kind: str) -> None:
        self.effects.global_writes.append(
            WriteSite(name, line, self._held(), kind))

    def _self_attr(self, node: ast.AST) -> str | None:
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == self.effects.self_var):
            return node.attr
        return None

    def _target(self, node: ast.AST, line: int, kind: str) -> None:
        """Classify one assignment/delete target."""
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                self._target(element, line, kind)
            return
        if isinstance(node, ast.Starred):
            self._target(node.value, line, kind)
            return
        attr = self._self_attr(node)
        if attr is not None:
            self._record_write(attr, line, kind)
            return
        if isinstance(node, ast.Subscript):
            inner = self._self_attr(node.value)
            if inner is not None:
                self._record_write(inner, line, "subscript")
            elif isinstance(node.value, ast.Name):
                self._maybe_global_container(node.value.id, line, "subscript")
            return
        if isinstance(node, ast.Name):
            if node.id in self.global_decls:
                self._record_global_write(node.id, line, kind)
            else:
                self.locals.add(node.id)

    def _maybe_global_container(self, name: str, line: int, kind: str) -> None:
        """A subscript store / mutator call on a bare name: a global
        container write when the name is module-level and not shadowed."""
        if name in self.locals or name in self.module.thread_locals:
            return
        if name in self.global_decls or name in self.module.globals_assigned:
            self._record_global_write(name, line, kind)

    # -- statement visitors -------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self.global_decls.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.effects.nonlocal_writes.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._target(target, node.lineno, "assign")
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._target(node.target, node.lineno, "augassign")
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._target(node.target, node.lineno, "assign")
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._target(target, node.lineno, "delete")

    def visit_With(self, node: ast.With) -> None:
        tokens = []
        for item in node.items:
            self.visit(item.context_expr)
            token = self._lock_token(item.context_expr)
            if token is not None:
                self.effects.locks_acquired.append(
                    LockAcquisition(token, node.lineno, self._held()))
                tokens.append(token)
            if item.optional_vars is not None:
                self._target(item.optional_vars, node.lineno, "assign")
        self.lockset.extend(tokens)
        for statement in node.body:
            self.visit(statement)
        for _ in tokens:
            self.lockset.pop()

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted:
            self.effects.calls.append((dotted, node.lineno, self._held()))
            leaf = dotted.rsplit(".", 1)[-1]
            if leaf in SPAWN_CALLS:
                self.effects.spawns.append(f"{dotted}@{node.lineno}")
            if leaf in MUTATOR_METHODS and isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                attr = self._self_attr(receiver)
                if attr is not None:
                    self._record_write(attr, node.lineno, f"mutate:{leaf}")
                elif isinstance(receiver, ast.Name):
                    self._maybe_global_container(
                        receiver.id, node.lineno, f"mutate:{leaf}")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            attr = self._self_attr(node)
            if attr is not None:
                self.effects.self_reads.add(attr)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # a lambda body runs later, not under the current locks
        saved, self.lockset = self.lockset, []
        self.visit(node.body)
        self.lockset = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # nested defs are walked as their own (closure) functions
        nested = _walk_function(
            node, self.module,
            qualname=f"{self.effects.qualname}.<locals>.{node.name}",
            self_var=None,
        )
        self.module.functions[nested.qualname] = nested

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass  # nested classes: out of scope


def _guard_decl(node: ast.FunctionDef) -> str | None:
    for decorator in node.decorator_list:
        if (isinstance(decorator, ast.Call)
                and _dotted(decorator.func).rsplit(".", 1)[-1] == "guarded_by"
                and decorator.args
                and isinstance(decorator.args[0], ast.Constant)
                and isinstance(decorator.args[0].value, str)):
            return decorator.args[0].value
    return None


def _walk_function(node: ast.FunctionDef, module: ModuleEffects,
                   qualname: str, self_var: str | None) -> FunctionEffects:
    effects = FunctionEffects(
        module=module.module,
        qualname=qualname,
        name=node.name,
        lineno=node.lineno,
        self_var=self_var,
        guarded_by=_guard_decl(node),
    )
    walker = _FunctionWalker(effects, module)
    walker.locals.update(arg.arg for arg in node.args.args)
    walker.locals.update(arg.arg for arg in node.args.posonlyargs)
    walker.locals.update(arg.arg for arg in node.args.kwonlyargs)
    if node.args.vararg:
        walker.locals.add(node.args.vararg.arg)
    if node.args.kwarg:
        walker.locals.add(node.args.kwarg.arg)
    for statement in node.body:
        walker.visit(statement)
    return effects


def _walk_class(node: ast.ClassDef, module: ModuleEffects) -> ClassEffects:
    cls = ClassEffects(name=node.name, lineno=node.lineno)
    for statement in node.body:
        if isinstance(statement, (ast.Assign, ast.AnnAssign)):
            targets = (statement.targets if isinstance(statement, ast.Assign)
                       else [statement.target])
            value = statement.value
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if value is not None and target.id == "SHARED_STATE":
                    cls.shared_state = _literal_str_dict(value) or {}
                elif value is not None and _is_lock_factory(value):
                    cls.lock_attrs.add(target.id)
        elif isinstance(statement, ast.FunctionDef):
            self_var = (statement.args.args[0].arg
                        if statement.args.args else None)
            effects = _walk_function(
                statement, module,
                qualname=f"{cls.name}.{statement.name}", self_var=self_var)
            cls.methods[statement.name] = effects
            for write in effects.self_writes:
                if statement.name in CONSTRUCTORS:
                    cls.init_attrs.add(write.attr)
    # locks assigned in methods: self.X = threading.Lock() / make_lock(...)
    for statement in ast.walk(node):
        if isinstance(statement, ast.Assign) and _is_lock_factory(statement.value):
            for target in statement.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    cls.lock_attrs.add(target.attr)
        if (isinstance(statement, ast.AnnAssign)
                and statement.value is not None
                and isinstance(statement.target, ast.Name)
                and _is_lock_factory(statement.value)):
            cls.lock_attrs.add(statement.target.id)
    return cls


def _resolve_import(current_module: str, node) -> set:
    """Candidate absolute module names an import statement may bind."""
    candidates: set = set()
    if isinstance(node, ast.Import):
        for alias in node.names:
            candidates.add(alias.name)
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            base = node.module or ""
        else:
            parts = current_module.split(".")
            # level 1 = current package: drop the module's own name
            parts = parts[: len(parts) - node.level]
            base = ".".join(parts)
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
        if base:
            candidates.add(base)
            for alias in node.names:
                candidates.add(f"{base}.{alias.name}")
    return candidates


def infer_module_effects(path, module_name: str) -> ModuleEffects:
    """Parse one file and infer its full effect summary."""
    source = Path(path).read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    module = ModuleEffects(module=module_name, path=str(path))

    # first pass: module-level bindings, so function walkers can
    # classify bare-name container mutations
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            value = statement.value
            for target in statement.targets:
                if not isinstance(target, ast.Name):
                    continue
                module.globals_assigned.add(target.id)
                if target.id == "SHARED_STATE":
                    module.shared_state = _literal_str_dict(value) or {}
                dotted = _dotted(value.func) if isinstance(value, ast.Call) else ""
                if dotted.rsplit(".", 1)[-1] == "local":
                    module.thread_locals.add(target.id)
                if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                    module.singletons.setdefault(target.id, value.func.id)
        elif isinstance(statement, ast.AnnAssign):
            if isinstance(statement.target, ast.Name):
                module.globals_assigned.add(statement.target.id)

    for statement in ast.walk(tree):
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            module.imports.update(_resolve_import(module_name, statement))

    for statement in tree.body:
        if isinstance(statement, ast.ClassDef):
            module.classes[statement.name] = _walk_class(statement, module)
        elif isinstance(statement, ast.FunctionDef):
            effects = _walk_function(statement, module,
                                     qualname=statement.name, self_var=None)
            module.functions[statement.name] = effects
    return module


def infer_package_effects(root, package: str = "repro") -> dict:
    """Effect summaries for every ``.py`` file under ``root``, keyed by
    dotted module name (``root`` is the package directory itself)."""
    root = Path(root)
    modules: dict = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        parts = [package, *relative.parts[:-1]]
        stem = relative.stem
        if stem != "__init__":
            parts.append(stem)
        name = ".".join(parts)
        modules[name] = infer_module_effects(path, name)
    return modules


def summarize_effects(modules: dict) -> dict:
    """JSON-able per-module summary (the ``repro check --effects`` view)."""
    out: dict = {}
    for name, module in sorted(modules.items()):
        classes = {}
        for cls_name, cls in sorted(module.classes.items()):
            writes = cls.noninit_writes()
            classes[cls_name] = {
                "declared": cls.declared,
                "shared_state": cls.shared_state,
                "lock_attrs": sorted(cls.lock_attrs),
                "noninit_written_attrs": sorted(writes),
                "methods": {
                    m: {
                        "writes": [f"{w.attr}@{w.line}" for w in fn.self_writes],
                        "locks": sorted({a.token for a in fn.locks_acquired}),
                        "guarded_by": fn.guarded_by,
                        "spawns": list(fn.spawns),
                    }
                    for m, fn in sorted(cls.methods.items())
                    if fn.self_writes or fn.locks_acquired or fn.spawns
                    or fn.guarded_by
                },
            }
        global_writes = sorted({
            w.attr for fn in module.all_functions() for w in fn.global_writes})
        spawns = sorted({
            s for fn in module.all_functions() for s in fn.spawns})
        out[name] = {
            "classes": classes,
            "shared_state": module.shared_state,
            "global_writes": global_writes,
            "thread_locals": sorted(module.thread_locals),
            "singletons": dict(sorted(module.singletons.items())),
            "spawns": spawns,
        }
    return out
