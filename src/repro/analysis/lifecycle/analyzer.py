"""Path-sensitive resource-typestate dataflow: MOA1101–MOA1104.

The analysis is a collecting semantics over the lifecycle CFG: each
block accumulates a *set* of abstract states (handle → Held/Released
with the acquiring line), propagated along normal, exceptional and
cancellation edges to a fixpoint.  Keeping states as sets rather than
joining them is what makes the verdicts path-sensitive — ``if ok:
release(h)`` leaks only on the ``not ok`` path, and that is exactly
the state that reaches the exit Held.

Verdicts:

* **MOA1101** — a handle is Held in some state at a function exit
  (normal or exceptional), or is re-acquired/rebound while Held.
  Parameter handles are exempt: a caller-owned resource is the
  caller's obligation (it still participates in summaries and double
  release checks).
* **MOA1102** — a *must* property: a release site where **no**
  arriving state holds the resource.  Mixed states (some paths hold,
  some already released — e.g. an idempotent cleanup handler) are
  deliberately not flagged.
* **MOA1103** — an ``Await`` event executes while a lock-kind handle
  is Held: the suspension can outlive the task (cancellation) with a
  non-async lock held, and every other task that touches the lock
  blocks the loop.  Slot/session holds across awaits are the service
  layer's *designed* pattern and are not flagged.
* **MOA1104** — a Held handle escapes: returned from a non-factory,
  stored to an attribute outside the class's declared
  ``SHARED_STATE``, or written to a global/container.
  ``@acquires(kind)`` factories are exempt — escaping is their job.

One-level call summaries close the gap the PR-8 review bugs lived in:
pass 1 records, per helper, which *parameter* handles it releases on
every exit (including exceptional ones); pass 2 applies those
releases at call sites, so ``await self._stream(session, ...)`` is
known to settle the session on every path without inlining.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from ..diagnostics import DiagnosticReport, make_diagnostic
from .cfg import Acquire, Await, Call, Escape, FunctionCFG, Release, \
    module_cfgs
from .lockgraph import lock_graph_diagnostics
from .model import ClassContext, Vocabulary

__all__ = [
    "FunctionSummary",
    "analyze_function",
    "check_lifecycle",
    "check_lifecycle_paths",
    "lifecycle_root",
    "module_summaries",
]

_HELD = "H"
_RELEASED = "R"

#: collecting-semantics safety valve: past this many distinct states
#: per block the analysis stops adding new ones (never hit in-tree)
MAX_STATES_PER_BLOCK = 512


@dataclass(frozen=True)
class FunctionSummary:
    """One-level effect of a helper on its *positional caller
    arguments*: which are released on every exit, which on some."""

    releases_all: frozenset = frozenset()
    releases_some: frozenset = frozenset()


@dataclass
class _Finding:
    code: str
    line: int
    message: str


@dataclass
class _Analysis:
    cfg: FunctionCFG
    ctx: ClassContext
    summaries: dict
    findings: list = field(default_factory=list)
    exit_states: dict = field(default_factory=dict)
    _seen: set = field(default_factory=set)

    def report(self, code: str, line: int, message: str) -> None:
        key = (code, line, message)
        if key not in self._seen:
            self._seen.add(key)
            self.findings.append(_Finding(code, line, message))

    # -- state helpers -------------------------------------------------

    def _status(self, state, handle):
        for name, status, line in state:
            if name == handle:
                return status, line
        return None, 0

    def _set(self, state, handle, status, line):
        rest = tuple(entry for entry in state if entry[0] != handle)
        return tuple(sorted(rest + ((handle, status, line),)))

    def _kind(self, handle: str) -> str:
        return self.cfg.handle_kinds.get(handle, "resource")

    # -- event transfer ------------------------------------------------

    def _apply(self, state, event, site_obs):
        """Normal-outcome transfer of one event over one state."""
        if isinstance(event, Acquire):
            status, old_line = self._status(state, event.handle)
            if status == _HELD:
                self.report(
                    "MOA1101", event.line,
                    f"{event.handle!r} ({self._kind(event.handle)}) is "
                    f"re-acquired while still held (acquired at line "
                    f"{old_line} and never released on this path)")
            return self._set(state, event.handle, _HELD, event.line)
        if isinstance(event, Release):
            status, _line = self._status(state, event.handle)
            if not event.scoped:
                site_obs.setdefault(
                    (event.handle, event.line), set()).add(status or "N")
            return self._set(state, event.handle, _RELEASED, event.line)
        if isinstance(event, Await):
            for name, status, line in state:
                if status == _HELD and self._kind(name) == "lock":
                    self.report(
                        "MOA1103", event.line,
                        f"await while holding non-async lock {name!r} "
                        f"(acquired at line {line}): the suspension is a "
                        "cancellation point and every other task touching "
                        "the lock blocks the event loop")
            return state
        if isinstance(event, Escape):
            status, line = self._status(state, event.handle)
            if status != _HELD:
                return state
            if event.how == "rebound":
                if event.handle not in self.cfg.param_handles:
                    self.report(
                        "MOA1101", event.line,
                        f"{event.handle!r} ({self._kind(event.handle)}) is "
                        f"rebound while held (acquired at line {line}); "
                        "the live resource can no longer be released")
                return self._set(state, event.handle, _RELEASED, event.line)
            exempt = (
                self.cfg.factory_kind is not None
                or event.handle in self.cfg.param_handles)
            if not exempt:
                where = {"return": "returned to the caller"}.get(
                    event.how, f"stored outside its declared scope "
                               f"({event.how})")
                self.report(
                    "MOA1104", event.line,
                    f"held {self._kind(event.handle)} {event.handle!r} "
                    f"(acquired at line {line}) is {where}; only an "
                    "@acquires factory or a declared SHARED_STATE "
                    "attribute may take ownership")
            return self._set(state, event.handle, _RELEASED, event.line)
        if isinstance(event, Call):
            return self._apply_call(state, event, on_exception=False)
        return state

    def _summary_for(self, event: Call) -> FunctionSummary | None:
        leaf = event.callee.rsplit(".", 1)[-1]
        if event.self_call and self.ctx.name:
            found = self.summaries.get((self.ctx.name, leaf))
            if found is not None:
                return found
        return self.summaries.get(leaf)

    def _apply_call(self, state, event: Call, on_exception: bool):
        summary = self._summary_for(event)
        if summary is None or not event.handle_args:
            return state
        states = [state]
        for pos, handle in event.handle_args:
            if pos in summary.releases_all:
                states = [self._set(s, handle, _RELEASED, event.line)
                          for s in states]
            elif pos in summary.releases_some and not on_exception:
                # fork: the helper may or may not have released it
                states = states + [
                    self._set(s, handle, _RELEASED, event.line)
                    for s in states]
        return states if len(states) > 1 else states[0]

    # -- fixpoint ------------------------------------------------------

    def run(self) -> None:
        cfg = self.cfg
        entry_state = tuple(sorted(
            (name, _HELD, 0) for name in cfg.param_handles))
        in_states = {block.id: set() for block in cfg.blocks}
        in_states[cfg.entry].add(entry_state)
        site_obs: dict = {}
        work = [cfg.entry]
        processed: dict = {block.id: set() for block in cfg.blocks}
        while work:
            block_id = work.pop()
            block = cfg.block(block_id)
            pending = in_states[block_id] - processed[block_id]
            if not pending:
                continue
            processed[block_id] |= pending
            for state in pending:
                normal_states = [state]
                for event in block.events:
                    nxt = []
                    for current in normal_states:
                        result = self._apply(current, event, site_obs)
                        if isinstance(result, list):
                            nxt.extend(result)
                        else:
                            nxt.append(result)
                    normal_states = nxt
                except_states = self._except_states(state, block, site_obs)
                for succ_id, kind in block.succs:
                    outgoing = normal_states if kind == "normal" \
                        else except_states
                    bucket = in_states[succ_id]
                    grew = False
                    for out in outgoing:
                        if out not in bucket:
                            if len(bucket) >= MAX_STATES_PER_BLOCK:
                                break
                            bucket.add(out)
                            grew = True
                    if grew:
                        work.append(succ_id)
        self.exit_states = {
            "normal": in_states[cfg.normal_exit],
            "except": in_states[cfg.exc_exit],
        }
        self._check_exits()
        self._check_release_sites(site_obs)

    def _except_states(self, state, block, site_obs):
        """States flowing along this block's except/cancel edges: all
        events apply except the trailing may-raise one, whose effect is
        reduced to its guaranteed (all-exit) summary releases."""
        events = block.events
        if events and isinstance(events[-1], (Call, Await)):
            head, last = events[:-1], events[-1]
        else:
            head, last = events, None
        states = [state]
        for event in head:
            nxt = []
            for current in states:
                result = self._apply(current, event, site_obs)
                if isinstance(result, list):
                    nxt.extend(result)
                else:
                    nxt.append(result)
            states = nxt
        if isinstance(last, Call):
            states = [self._flatten(
                self._apply_call(s, last, on_exception=True))
                for s in states]
        return states

    @staticmethod
    def _flatten(result):
        return result[0] if isinstance(result, list) else result

    def _check_exits(self) -> None:
        for exit_kind, states in self.exit_states.items():
            path_word = "an exceptional" if exit_kind == "except" \
                else "a normal"
            for state in states:
                for handle, status, line in state:
                    if status != _HELD:
                        continue
                    if handle in self.cfg.param_handles:
                        continue
                    self.report(
                        "MOA1101", line,
                        f"{handle!r} ({self._kind(handle)}) acquired at "
                        f"line {line} is still held when "
                        f"{self.cfg.qualname!r} exits on {path_word} "
                        "path: release it in a finally/with or hand it "
                        "to an owner")

    def _check_release_sites(self, site_obs) -> None:
        for (handle, line), statuses in sorted(site_obs.items()):
            if _HELD in statuses:
                continue
            if statuses == {_RELEASED}:
                message = (
                    f"{handle!r} ({self._kind(handle)}) is released here "
                    "but every path arriving at this site already "
                    "released it: double release")
            elif _RELEASED in statuses:
                message = (
                    f"{handle!r} ({self._kind(handle)}) is released here "
                    "but no arriving path still holds it (some paths "
                    "released it earlier, none acquired it)")
            else:
                message = (
                    f"{handle!r} ({self._kind(handle)}) is released here "
                    "but never acquired on any arriving path")
            self.report("MOA1102", line, message)


def analyze_function(cfg: FunctionCFG, ctx: ClassContext,
                     summaries: dict | None = None) -> _Analysis:
    analysis = _Analysis(cfg=cfg, ctx=ctx, summaries=summaries or {})
    analysis.run()
    return analysis


# -- summaries --------------------------------------------------------------


def _position_of(cfg: FunctionCFG, handle: str, ctx: ClassContext) -> int:
    """Caller-side positional index of a parameter handle (``self``
    does not count: callers pass it implicitly)."""
    index = cfg.param_names.index(handle)
    if ctx.name and cfg.param_names and index > 0:
        return index - 1
    return index


def module_summaries(pairs) -> dict:
    """Pass 1: analyze every function in isolation and record which
    parameter handles it releases on all/some exits.  Summaries are
    keyed by ``(class, name)`` for methods (``self.helper(...)`` call
    sites resolve there first) and additionally by bare name when that
    name is unique across the analyzed set."""
    names = Counter(cfg.name for cfg, _ctx in pairs)
    summaries: dict = {}
    for cfg, ctx in pairs:
        if not cfg.param_handles:
            continue
        analysis = analyze_function(cfg, ctx, summaries=None)
        all_states = (analysis.exit_states["normal"]
                      | analysis.exit_states["except"])
        if not all_states:
            continue
        released_all, released_some = set(), set()
        for handle in cfg.param_handles:
            verdicts = [analysis._status(state, handle)[0] == _RELEASED
                        for state in all_states]
            if all(verdicts):
                released_all.add(_position_of(cfg, handle, ctx))
            elif any(verdicts):
                released_some.add(_position_of(cfg, handle, ctx))
        if released_all or released_some:
            summary = FunctionSummary(
                releases_all=frozenset(released_all),
                releases_some=frozenset(released_some))
            if ctx.name:
                summaries[(ctx.name, cfg.name)] = summary
            if names[cfg.name] == 1:
                summaries[cfg.name] = summary
    return summaries


# -- entry points -----------------------------------------------------------


def lifecycle_root() -> Path:
    """Directory of the installed ``repro`` package."""
    import repro

    return Path(repro.__file__).resolve().parent


def _expand(paths) -> list:
    files = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py" and path.exists():
            files.append(path)
    return files


def _parse_all(files) -> list:
    trees = []
    for path in files:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
        except SyntaxError:
            continue
        trees.append((path, tree))
    return trees


def _run(files, source: str) -> DiagnosticReport:
    report = DiagnosticReport(source=source)
    trees = _parse_all(files)
    vocab = Vocabulary()
    for _path, tree in trees:
        vocab.extend_from_tree(tree)
    per_file = [(path, module_cfgs(tree, vocab)) for path, tree in trees]
    everything = [pair for _path, pairs in per_file for pair in pairs]
    summaries = module_summaries(everything)
    for path, pairs in per_file:
        for cfg, ctx in pairs:
            analysis = analyze_function(cfg, ctx, summaries=summaries)
            for finding in analysis.findings:
                report.add(make_diagnostic(
                    finding.code,
                    f"{cfg.qualname}: {finding.message}",
                    site=f"{path.name}:{finding.line}"))
    for diagnostic in lock_graph_diagnostics(trees):
        report.add(diagnostic)
    return report


def check_lifecycle(root=None) -> DiagnosticReport:
    """Run the MOA11xx lifecycle analysis over the whole ``repro``
    package (or an explicit package directory)."""
    base = Path(root) if root is not None else lifecycle_root()
    return _run(sorted(base.rglob("*.py")), source=f"lifecycle {base}")


def check_lifecycle_paths(paths) -> DiagnosticReport:
    """Explicit-path variant (``repro check <files>``): directories
    expand recursively, non-Python files are ignored."""
    files = _expand(paths)
    joined = ", ".join(str(p) for p in paths)
    return _run(files, source=f"lifecycle {joined}")
