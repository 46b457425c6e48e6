"""The single registry of plan-verifier diagnostic codes.

Every diagnostic the static analyzers can emit carries a *stable* code
from this table (``MOA001``...).  Codes are grouped by hundreds:

* ``MOA0xx`` — type soundness (ill-typed plans never reach execution);
* ``MOA1xx`` — ordering and duplicate semantics;
* ``MOA2xx`` — safe vs unsafe top-N / ``stop_after`` classification;
* ``MOA3xx`` — cardinality monotonicity;
* ``MOA4xx`` — fragment coverage of fragmented scans;
* ``MOA5xx`` — rewrite-framework health (budget exhaustion etc.);
* ``MOA7xx`` — concurrency effects and lock discipline of the Python
  codebase itself (the ``repro check`` analyzer);
* ``MOA9xx`` — score-bound certification: the interval-domain
  abstract interpreter (``repro bounds``) derives a certified score
  interval at every plan edge and flags every pruning decision the
  derived bounds cannot license;
* ``MOA10xx`` — serve safety: the query service's admission, deadline
  and resume disciplines (:mod:`repro.analysis.serve`);
* ``MOA11xx`` — resource lifecycle and async-cancellation safety: the
  CFG-dataflow acquire/release typestate analyzer and the static
  lock-order deadlock graph (:mod:`repro.analysis.lifecycle`).

Tests assert that the table has no duplicate codes and that every code
emitted anywhere in the analysis package is registered here, so the
codes stay stable and documented across releases.
"""

from __future__ import annotations

from dataclasses import dataclass

#: severity levels, weakest first (index = rank)
SEVERITIES = ("info", "warning", "error")


@dataclass(frozen=True)
class DiagnosticCode:
    """One registered diagnostic code."""

    code: str
    title: str
    default_severity: str
    description: str

    def __post_init__(self) -> None:
        if self.default_severity not in SEVERITIES:
            raise ValueError(
                f"{self.code}: unknown severity {self.default_severity!r}; "
                f"expected one of {SEVERITIES}"
            )


def _build_table(*codes: DiagnosticCode) -> dict[str, DiagnosticCode]:
    table: dict[str, DiagnosticCode] = {}
    for entry in codes:
        if entry.code in table:
            raise ValueError(f"duplicate diagnostic code {entry.code}")
        table[entry.code] = entry
    return table


#: the full registry, keyed by code
CODES: dict[str, DiagnosticCode] = _build_table(
    # -- type soundness ----------------------------------------------------
    DiagnosticCode(
        "MOA001", "ill-typed expression", "error",
        "The expression fails static typing: an operator is applied to a "
        "structure it is not defined on, or its scalar parameters do not "
        "match the element type.  Such a plan can never execute.",
    ),
    DiagnosticCode(
        "MOA002", "unbound variable", "error",
        "The expression references a variable that is not bound in the "
        "analysis environment.",
    ),
    DiagnosticCode(
        "MOA003", "unknown operator for the input extension", "error",
        "No registered extension provides the named operator for the "
        "receiver's structure type (e.g. `slice` dispatched on a BAG, "
        "which has no element order to slice).",
    ),
    # -- ordering / duplicate semantics ------------------------------------
    DiagnosticCode(
        "MOA101", "order-sensitive operator over unordered input", "error",
        "An operator whose result depends on element order (`slice`, "
        "`getat`, `concat`, `reverse`, prefix cut-offs) consumes a BAG or "
        "SET, for which \"the ordering ... formally does not exist\" "
        "(paper, Example 1).  The result would be nondeterministic.",
    ),
    DiagnosticCode(
        "MOA102", "rewrite dropped a required ordering", "error",
        "A rewrite step replaced an expression whose output ordering was "
        "statically known with one whose ordering is unknown, while the "
        "result type still promises a LIST.  Downstream order-sensitive "
        "consumers would silently read garbage.",
    ),
    DiagnosticCode(
        "MOA103", "rewrite changed duplicate semantics", "warning",
        "A rewrite step changed whether the result is provably "
        "duplicate-free; duplicate-sensitive aggregates (count, sum, avg) "
        "above it may change value.",
    ),
    # -- safe vs unsafe top-N ----------------------------------------------
    DiagnosticCode(
        "MOA201", "unsafe cut-off: prefix not licensed by an ordering", "error",
        "A stop_after-style prefix cut (slice at offset 0, or an explicit "
        "stop_after) consumes an input that is not statically ordered, so "
        "the cut keeps *arbitrary* elements rather than the best ones — "
        "the paper's unsafe top-N flavor applied where only the safe one "
        "is licensed.",
    ),
    DiagnosticCode(
        "MOA202", "rewrite rule without a verified-safe label", "warning",
        "A plan was produced by a rewrite rule whose soundness-harness "
        "verdict is missing, failed, or whose declared safety label is "
        "`unsafe`: the plan may be an approximation of the original.",
    ),
    DiagnosticCode(
        "MOA203", "cut-off exceeds the input cardinality bound", "info",
        "A top-N or slice count is at least as large as the statically "
        "known input cardinality: the cut-off is a no-op and the operator "
        "can be removed.",
    ),
    # -- cardinality monotonicity ------------------------------------------
    DiagnosticCode(
        "MOA301", "cardinality bound grew across a rewrite", "warning",
        "A rewrite step increased the static upper bound on result "
        "cardinality.  Rewrites of filters, cut-offs and conversions must "
        "be cardinality-monotone; a growing bound indicates a rule that "
        "dropped a restriction.",
    ),
    # -- fragment coverage --------------------------------------------------
    DiagnosticCode(
        "MOA401", "fragmented scan does not cover all fragments", "warning",
        "The plan reads a strict subset of the declared fragments of a "
        "fragmented collection without a quality-check guard: results are "
        "the paper's *unsafe* fragment-restricted approximation.",
    ),
    # -- rewrite-framework health -------------------------------------------
    DiagnosticCode(
        "MOA501", "rewrite budget exhausted before fixpoint", "warning",
        "rewrite_fixpoint ran out of its application budget: the rule set "
        "is non-confluent or cyclic on this expression, and the returned "
        "plan is whatever state the rewriter stopped in.",
    ),
    # -- concurrency effects / lock discipline (repro check) -----------------
    DiagnosticCode(
        "MOA701", "unguarded write to declared shared state", "error",
        "A method writes an attribute declared in `SHARED_STATE` without "
        "holding the declared lock (neither a `with self.<lock>:` scope "
        "nor a `@guarded_by` declaration covers the write site).  Under "
        "the thread executor the write can interleave with readers and "
        "silently corrupt merge bookkeeping — exactly the exactness "
        "Fagin-style threshold certification depends on.",
    ),
    DiagnosticCode(
        "MOA702", "shared mutable state without a declaration", "error",
        "A class or module on the parallel worker paths mutates state "
        "after construction (a lock-owning class, a module-level "
        "singleton, or a module global) but declares no `SHARED_STATE` "
        "entry for it.  Undeclared shared state is unverifiable: declare "
        "a guarding lock, `<thread-confined>`, `<barrier>` or `<config>`.",
    ),
    DiagnosticCode(
        "MOA703", "lock-order inversion", "error",
        "Two locks are acquired in opposite nesting orders on different "
        "code paths.  Once both paths run concurrently each can hold one "
        "lock while waiting for the other: a deadlock waiting to happen.",
    ),
    DiagnosticCode(
        "MOA704", "concurrency declaration references an unknown lock", "warning",
        "A `SHARED_STATE` entry or `@guarded_by` decorator names a lock "
        "attribute the class never defines: the declaration is "
        "unenforceable and probably a typo.",
    ),
    DiagnosticCode(
        "MOA705", "lock held around no declared shared state", "info",
        "A lock is acquired in a scope that writes no declared shared "
        "state: either the declaration is missing or the critical "
        "section is dead weight.",
    ),
    # -- score-bound certification --------------------------------------------
    DiagnosticCode(
        "MOA901", "non-monotone aggregate under a threshold engine", "error",
        "The plan combines graded sources under a threshold-administered "
        "engine (TA/CA/NRA/FA-style stop rules) with an aggregate that "
        "does not declare monotonicity.  Every such stop rule argues "
        "\"no unseen object can beat the bound\" from t's monotonicity; "
        "without it the stop decision — and the answer — is unsound.",
    ),
    DiagnosticCode(
        "MOA902", "pruning bound not dominated by the derived interval", "error",
        "A pruning decision asserts an upper bound on the scores of the "
        "elements it discards, but the bound-flow analyzer's certified "
        "interval for that edge exceeds the asserted bound: elements "
        "above the assumed ceiling may exist, so the prune can discard "
        "true top-N answers.",
    ),
    DiagnosticCode(
        "MOA903", "unsafe quit without a computable worst-case error bound", "error",
        "An unsafe cut-off (quit/continue-style pruning, an unlicensed "
        "prefix cut, a fragment-restricted scan) sits on an edge whose "
        "derived score interval or cardinality bound is unbounded: the "
        "analyzer cannot attach a finite worst-case rank/score error, so "
        "the cost-vs-quality trade-off the optimizer is supposed to "
        "expose does not exist — the quality loss is unquantifiable.",
    ),
    DiagnosticCode(
        "MOA904", "bound widened across a rewrite", "warning",
        "A rewrite step widened the certified score interval of the plan "
        "root: the rewritten plan can produce values the original could "
        "not.  Bound-preserving rules must keep the derived interval "
        "contained; a widening rule dropped a restriction (the interval "
        "analogue of the MOA301 cardinality check).",
    ),
    # -- MOA10xx: serve safety ---------------------------------------------
    DiagnosticCode(
        "MOA1001", "undeclared shared server state", "error",
        "A server-side serve class mutates an instance attribute outside "
        "construction without declaring it in SHARED_STATE.  Service "
        "objects cross the asyncio-loop/worker-thread boundary by "
        "construction, so every mutable attribute must carry a lock name "
        "or confinement marker — otherwise neither repro check nor the "
        "race sanitizer can vouch for the server.",
    ),
    DiagnosticCode(
        "MOA1002", "resume token redeemed across a corpus epoch", "error",
        "A client tried to resume an anytime stream with a token issued "
        "at a different corpus epoch.  The captured frontier (TA or "
        "NRA/CA state) certifies score bounds only against the issuing "
        "epoch's scores; continuing it after a mutation could silently "
        "serve a wrong top-N.  The serve-side twin of the query cache's "
        "epoch-stamped fingerprints: the registry refuses the resume and "
        "emits this diagnostic.",
    ),
    DiagnosticCode(
        "MOA1003", "engine work scheduled outside admission", "error",
        "A server function schedules engine work on pool threads "
        "(run_in_executor) without visibly running under an admission "
        "(no admission parameter, no .admit(...) call).  Such a path "
        "bypasses both the tenant quota gate and the pool-wide bound — "
        "a single forgotten call site undoes all multi-tenant isolation.",
    ),
    DiagnosticCode(
        "MOA1004", "executor work without a cancel token", "error",
        "A server function schedules engine work on pool threads without "
        "referencing the request's CancelToken.  Deadlines propagate "
        "only through that token's between-step checks; a pump loop "
        "that drops it streams past every deadline a client sets.",
    ),
    # -- MOA11xx: resource lifecycle / cancellation safety -------------------
    DiagnosticCode(
        "MOA1101", "resource acquired but not released on some path", "error",
        "A tracked resource (lock, pool slot, tenant admission, session "
        "busy flag, pin) is acquired, but at least one path out of the "
        "function — normal return, an exception edge, or an await's "
        "cancellation edge — exits with it still held and nobody left "
        "owning it.  This is the PR-8-review bug class: a slot leaked "
        "per occurrence until the quota or registry is exhausted.  Use "
        "`with`, a `finally`-guarded release, or pass ownership to a "
        "helper that releases on every exit.",
    ),
    DiagnosticCode(
        "MOA1102", "release without a matching acquire / double release", "error",
        "A release site runs where every path reaching it has the "
        "resource already released (double release) or never acquired "
        "it.  Releasing twice corrupts slot accounting (a concurrency "
        "cap of K quietly becomes K+1); releasing what was never "
        "acquired usually means the pairing logic drifted.",
    ),
    DiagnosticCode(
        "MOA1103", "await while holding a non-async lock", "error",
        "An `await` point sits between the acquisition and release of a "
        "synchronous (thread) lock — whether `with lock:` or an "
        "acquire/`finally`-release pair.  While suspended, the event "
        "loop cannot run any other coroutine that needs the lock, and a "
        "cancellation delivered at the await unwinds with the lock's "
        "critical section half-finished: a cancellation hazard even "
        "when a `finally` eventually releases.",
    ),
    DiagnosticCode(
        "MOA1104", "held resource escapes its declared scope", "error",
        "A *held* handle escapes the acquiring function — returned, "
        "stored on `self` outside the class's declared SHARED_STATE "
        "scope, or written to a global — from a function not "
        "declared `@acquires` for that kind.  Once the handle outlives "
        "its frame, no path-local discipline can guarantee the release "
        "ever runs; either declare the factory or release before "
        "escaping.",
    ),
    DiagnosticCode(
        "MOA1105", "static lock-order cycle", "error",
        "The whole-program lock-acquisition graph — built from every "
        "`with lock:` nesting and one-level call summaries, with lock "
        "attributes resolved to their `make_lock` names — contains a "
        "cycle, or an edge leaving a lock its class declares LOCK_LEAF. "
        "Any cycle the runtime sanitizer could observe as a lock-order "
        "inversion is a subgraph of this one, so a clean static graph "
        "certifies deadlock-freedom for the declared locks.",
    ),
)


def code_info(code: str) -> DiagnosticCode:
    """Look up a registered code; raises ``KeyError`` for unknown codes
    so emitting an unregistered diagnostic fails loudly in tests."""
    return CODES[code]


def all_codes() -> tuple[str, ...]:
    """All registered codes, sorted."""
    return tuple(sorted(CODES))
