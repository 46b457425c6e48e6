"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``       build a synthetic database and print sizing statistics
``zipf``        Zipf analysis of a synthetic collection
``search``      run one query under a chosen execution strategy
``experiment``  run the Step-1 fragmentation experiment and print the
                paper-vs-measured table
``example1``    the paper's Example 1 through the optimizer: the rewrite
                trace, the estimated cost before and after, and
                whether the chosen plan is bound-certified
``lint``        statically verify algebra plans (the plan verifier)
``bounds``      derive certified score intervals over plans and certify
                every pruning decision (the MOA9xx bound-flow analyzer)
``check``       run the concurrency effect / lock-discipline analyzer
                over the package (or explicit paths)
``profile``     run a query, engine or optimizer scenario under the
                execution tracer and print the span-tree cost breakdown
``serve``       run the asynchronous query service over a synthetic
                database (length-prefixed JSON frames + HTTP shim)

All commands except ``serve`` are deterministic given ``--seed``.
Benchmarks live outside the CLI: ``benchmarks/bench_e*.py`` (the
experiment tables, run with pytest) and ``perfbench/run.py`` (the
layered wall-clock benchmark).
"""

from __future__ import annotations

import argparse
import sys

from .core import MMDatabase, QuerySession
from .storage import CostCounter


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Top N optimization issues in MM databases' "
                    "(Blok, EDBT 2000).",
    )
    parser.add_argument("--scale", type=float, default=0.05,
                        help="FT-like workload scale (1.0 = 20k documents)")
    parser.add_argument("--seed", type=int, default=7, help="generation seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="database sizing statistics")
    sub.add_parser("zipf", help="Zipf analysis of the collection")
    sub.add_parser("example1", help="the paper's Example 1 through the optimizer")

    search = sub.add_parser("search", help="run one top-N query")
    search.add_argument("terms", nargs="+", help="query terms")
    search.add_argument("--n", type=int, default=10)
    search.add_argument("--strategy", default="auto",
                        choices=["auto", "naive", "unfragmented", "unsafe-small",
                                 "safe-switch", "indexed", "parallel"])
    search.add_argument("--shards", type=int, default=None,
                        help="shard count for --strategy parallel (default: 2)")

    experiment = sub.add_parser("experiment",
                                help="run a named experiment (currently: e3)")
    experiment.add_argument("name", choices=["e3"])
    experiment.add_argument("--queries", type=int, default=30)
    experiment.add_argument("--topn", type=int, default=20)

    lint = sub.add_parser(
        "lint",
        help="statically verify algebra plans and rewrite rules",
        description="Run the plan verifier: lint plan files / expressions "
                    "for type, ordering, duplicate-semantics, cut-off safety, "
                    "cardinality and fragment-coverage issues (stable MOA "
                    "diagnostic codes); optionally verify the optimizer's "
                    "rewrite rules differentially.",
    )
    lint.add_argument("paths", nargs="*", metavar="PLAN_FILE",
                      help="plan files, one expression per line (# comments)")
    lint.add_argument("--expr", action="append", default=[], metavar="EXPR",
                      help="lint this expression (repeatable)")
    lint.add_argument("--json", action="store_true",
                      help="emit reports as JSON instead of text")
    lint.add_argument("--demo-unsafe", action="store_true",
                      help="seed the unsafe stop_after pushdown over an "
                           "unordered BAG and show the verifier flagging it")
    lint.add_argument("--demo-widening", action="store_true",
                      help="seed the select-widening rewrite (a lying 'safe' "
                           "label) and show the harness + MOA904 rejecting it")
    lint.add_argument("--verify-rules", action="store_true",
                      help="run the soundness harness over the default "
                           "optimizer rules of all three layers")

    bounds = sub.add_parser(
        "bounds",
        help="derive certified score intervals and certify every "
             "pruning decision (the MOA9xx bound-flow analyzer)",
        description="Run the interval-domain abstract interpreter over "
                    "algebra plans: derive a certified score interval "
                    "[lo, hi] at every plan edge (one bottom-up dataflow "
                    "pass), render the per-operator bound flow, and "
                    "certify every pruning decision — MOA901 non-monotone "
                    "aggregate under a threshold engine, MOA902 "
                    "undominated pruning bound, MOA903 unsafe quit "
                    "without a computable worst-case error.  Exit codes "
                    "and --json schema match repro lint / repro check.",
    )
    bounds.add_argument("paths", nargs="*", metavar="PLAN_FILE",
                        help="plan files, one expression per line (# comments)")
    bounds.add_argument("--expr", action="append", default=[], metavar="EXPR",
                        help="analyze this expression (repeatable)")
    bounds.add_argument("--json", action="store_true",
                        help="emit reports + certificates as JSON "
                             "(shared lint/check/bounds schema)")
    bounds.add_argument("--no-flow", action="store_true",
                        help="omit the per-operator bound-flow tree from "
                             "text output")

    check = sub.add_parser(
        "check",
        help="statically verify the codebase's concurrency discipline",
        description="Run the concurrency effect analyzer: infer per-"
                    "function effects (shared-state writes, lock "
                    "acquisitions, thread spawns) over Python sources and "
                    "check them against the repro.sync declaration "
                    "protocol (SHARED_STATE / @guarded_by), reporting "
                    "MOA7xx diagnostics.  Exit codes match repro lint: "
                    "0 clean, 1 error-severity findings, 2 usage.",
    )
    check.add_argument("paths", nargs="*", metavar="PATH",
                       help="Python files or directories to analyze "
                            "(default: the installed repro package)")
    check.add_argument("--json", action="store_true",
                       help="emit the report as JSON (shared lint/check schema)")
    check.add_argument("--effects", action="store_true",
                       help="include per-module effect summaries in the "
                            "JSON payload")

    profile = sub.add_parser(
        "profile",
        help="run a scenario under the execution tracer and print the "
             "span-tree / per-operator cost breakdown",
        description="Profile one scenario: enable the repro.obs tracer + "
                    "metrics, run the scenario, and print a span tree whose "
                    "per-span exclusive cost deltas sum to the run's "
                    "CostCounter totals.  Scenarios: 'search' (a top-N text "
                    "query through the fragmented database), 'topn' (one "
                    "Fagin-family engine over synthetic multimedia score "
                    "sources), 'example1' (the paper's Example 1 through "
                    "the optimizer pipeline).",
    )
    profile.add_argument("scenario", choices=["search", "topn", "example1"])
    profile.add_argument("--terms", nargs="+", default=["data"],
                         help="query terms (scenario: search)")
    profile.add_argument("--strategy", default="auto",
                         choices=["auto", "naive", "unfragmented", "unsafe-small",
                                  "safe-switch", "indexed", "parallel"],
                         help="execution strategy (scenario: search)")
    profile.add_argument("--algo", default="ta",
                         choices=["naive", "fa", "ta", "nra", "ca"],
                         help="middleware algorithm (scenario: topn)")
    profile.add_argument("--shards", type=int, default=None, metavar="K",
                         help="profile the sharded parallel engine with K "
                              "shards (scenario: search)")
    profile.add_argument("--n", type=int, default=10, help="top-N size")
    profile.add_argument("--objects", type=int, default=2000,
                         help="synthetic objects (scenario: topn)")
    profile.add_argument("--sources", type=int, default=2,
                         help="graded sources (scenario: topn)")
    profile.add_argument("--events", type=int, default=0, metavar="K",
                         help="show up to K events per span in the tree")
    profile.add_argument("--json", action="store_true",
                         help="emit the full profile (spans, totals, metrics) as JSON")
    profile.add_argument("--export", metavar="PATH",
                         help="additionally write the raw trace as JSONL to PATH")

    serve = sub.add_parser(
        "serve",
        help="run the asynchronous query service",
        description="Serve streaming anytime top-N queries over a "
                    "synthetic database with planted feature spaces.  "
                    "Speaks the length-prefixed JSON frame protocol "
                    "and a minimal HTTP shim (GET /healthz, GET "
                    "/stats, POST /query -> NDJSON) on one port.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=7333,
                       help="bind port (0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=4,
                       help="executor pool workers")
    serve.add_argument("--max-concurrent", type=int, default=8,
                       help="pool-wide concurrent query bound")
    serve.add_argument("--chunk-depth", type=int, default=32,
                       help="sorted-access depth of the first streamed "
                            "chunk (doubles per chunk)")

    return parser


def _make_database(args) -> MMDatabase:
    from .workloads import SyntheticCollection, trec

    collection = SyntheticCollection.generate(trec.ft_like(scale=args.scale,
                                                           seed=args.seed))
    db = MMDatabase.from_collection(collection)
    db.fragment()
    return db


def _cmd_stats(args, out) -> int:
    db = _make_database(args)
    for key, value in sorted(db.stats().items()):
        print(f"{key:<26} {value}", file=out)
    return 0


def _cmd_zipf(args, out) -> int:
    from .ir import fit_zipf, rank_frequency_table, vocabulary_share_for_volume

    db = _make_database(args)
    cf = db.index.vocabulary.cf_array()
    used = cf[cf > 0]
    fit = fit_zipf(used, min_frequency=3)
    print(f"zipf exponent {fit.exponent:.3f}  r^2 {fit.r_squared:.3f}  "
          f"terms {fit.n_terms}", file=out)
    print(f"{'rank':>8} {'frequency':>12}", file=out)
    for rank, freq in rank_frequency_table(used, n_points=10):
        print(f"{rank:>8} {freq:>12.0f}", file=out)
    share = vocabulary_share_for_volume(used, 0.95)
    print(f"95% of volume is carried by {share:.1%} of the used vocabulary", file=out)
    return 0


def _cmd_search(args, out) -> int:
    db = _make_database(args)
    if args.strategy == "parallel" or args.shards is not None:
        db.shard(args.shards)
        args.strategy = "parallel"
    with CostCounter.activate() as cost:
        result = db.search(" ".join(args.terms), n=args.n, strategy=args.strategy)
    print(f"strategy={result.result.strategy} safe={result.safe} "
          f"tuples={cost.tuples_read:,} time={result.elapsed_seconds * 1000:.1f}ms",
          file=out)
    if not result.hits:
        print("no results (unknown terms?)", file=out)
        return 1
    for rank, item in enumerate(result.hits, start=1):
        print(f"{rank:>4}. doc {item.obj_id:<8} score {item.score:.4f}", file=out)
    return 0


def _cmd_experiment_e3(args, out) -> int:
    from .workloads import generate_queries

    db = _make_database(args)
    queries = generate_queries(db.collection, n_queries=args.queries,
                               terms_range=(3, 8), rare_bias=3.0,
                               seed=args.seed + 1)
    session = QuerySession(db)
    reference = session.reference_rankings(queries, n=args.topn)
    exact = session.run(queries, n=args.topn, strategy="unfragmented",
                        reference_rankings=reference)
    unsafe = session.run(queries, n=args.topn, strategy="unsafe-small",
                         reference_rankings=reference)
    print(f"{'metric':<28} {'paper':<10} measured", file=out)
    print(f"{'data touched reduction':<28} {'>= 60%':<10} "
          f"{1 - unsafe.tuples_read / exact.tuples_read:.1%}", file=out)
    print(f"{'average-precision drop':<28} {'> 30%':<10} "
          f"{1 - unsafe.mean_average_precision / exact.mean_average_precision:.1%}",
          file=out)
    print(f"{'top-N overlap with exact':<28} {'-':<10} "
          f"{unsafe.mean_overlap_vs_reference:.1%}", file=out)
    return 0


def _emit_diagnostics_json(out, command: str, reports, exit_code: int,
                           **extra) -> None:
    """The one ``--json`` emit path for every diagnostics command
    (lint / bounds / check).  All of them print exactly
    ``cli_payload(...)`` — same top-level keys, same annotation
    records — so CI tooling can consume any of them identically and
    the schemas cannot drift."""
    import json

    from .analysis import cli_payload

    payload = cli_payload(command, reports, exit_code=exit_code, **extra)
    print(json.dumps(payload, indent=2), file=out)


def _cmd_lint(args, out) -> int:
    from .analysis import (
        EXIT_USAGE,
        SoundnessHarness,
        demo_unsafe_rewrite,
        demo_widening_rewrite,
        lint_file,
        lint_text,
    )
    from .errors import ParseError

    if not (args.paths or args.expr or args.demo_unsafe or args.demo_widening
            or args.verify_rules):
        print("repro lint: nothing to lint (give PLAN_FILEs, --expr, "
              "--demo-unsafe, --demo-widening or --verify-rules)", file=out)
        return EXIT_USAGE

    exit_code = 0
    extra: dict = {}

    reports = []
    for text in args.expr:
        try:
            reports.append(lint_text(text))
        except ParseError as exc:
            print(f"repro lint: {text.strip() or '<empty>'}: syntax error: {exc}",
                  file=out)
            exit_code = 1
    for path in args.paths:
        try:
            reports.extend(lint_file(path))
        except ParseError as exc:
            print(f"repro lint: {path}: syntax error: {exc}", file=out)
            exit_code = 1
        except OSError as exc:
            print(f"repro lint: cannot read {path}: {exc}", file=out)
            return EXIT_USAGE
    if reports:
        if not args.json:
            for report in reports:
                print(report.render_text(), file=out)
        if any(report.has_errors for report in reports):
            exit_code = 1

    if args.demo_unsafe:
        demo = demo_unsafe_rewrite()
        if args.json:
            extra["demo_unsafe"] = demo.to_dict()
        else:
            print(demo.render_text(), file=out)
        # the demo *should* produce errors; report them like any lint run
        if demo.report.has_errors or not demo.verdict.passed:
            exit_code = 1

    if args.demo_widening:
        demo = demo_widening_rewrite()
        if args.json:
            extra["demo_widening"] = demo.to_dict()
        else:
            print(demo.render_text(), file=out)
        # the seeded lying label *should* fail the harness (and MOA904
        # should land in the report); surface that like any lint run
        if demo.report.has_errors or not demo.verdict.passed:
            exit_code = 1

    if args.verify_rules:
        from .optimizer import (
            DEFAULT_INTER_OBJECT_RULES,
            DEFAULT_LOGICAL_RULES,
            intra_rules_for,
        )

        rules = (list(DEFAULT_LOGICAL_RULES) + list(DEFAULT_INTER_OBJECT_RULES)
                 + list(intra_rules_for()))
        verdicts = SoundnessHarness(seed=args.seed).verify_rules(rules)
        if args.json:
            extra["rule_verdicts"] = {
                name: {
                    "layer": verdict.layer,
                    "declared_safety": verdict.declared_safety,
                    "passed": verdict.passed,
                    "exercised": verdict.exercised,
                    "mean_overlap": verdict.mean_overlap,
                    "failures": list(verdict.failures),
                }
                for name, verdict in verdicts.items()
            }
        else:
            for verdict in verdicts.values():
                print(verdict.describe(), file=out)
        if any(not verdict.passed for verdict in verdicts.values()):
            exit_code = 1

    if args.json:
        _emit_diagnostics_json(out, "lint", reports, exit_code, **extra)
    return exit_code


def _cmd_bounds(args, out) -> int:
    from .algebra.parser import parse
    from .analysis import (
        EXIT_USAGE,
        AnalysisContext,
        DiagnosticReport,
        certify,
        exit_code_for,
    )
    from .errors import ParseError

    if not (args.paths or args.expr):
        print("repro bounds: nothing to analyze (give PLAN_FILEs or --expr)",
              file=out)
        return EXIT_USAGE

    cases: list[tuple[str, str]] = [(text, text.strip()) for text in args.expr]
    for path in args.paths:
        try:
            with open(path, encoding="utf-8") as handle:
                for lineno, raw in enumerate(handle, start=1):
                    line = raw.split("#", 1)[0].strip()
                    if line:
                        cases.append((line, f"{path}:{lineno}"))
        except OSError as exc:
            print(f"repro bounds: cannot read {path}: {exc}", file=out)
            return EXIT_USAGE

    exit_code = 0
    reports = []
    certificates = []
    for text, source in cases:
        try:
            expr = parse(text)
        except ParseError as exc:
            print(f"repro bounds: {source}: syntax error: {exc}", file=out)
            exit_code = 1
            continue
        certificate = certify(expr, AnalysisContext())
        report = DiagnosticReport(source=source)
        report.extend(certificate.diagnostics)
        reports.append(report)
        certificates.append((expr, source, certificate))
        if not certificate.certified:
            exit_code = 1  # a failed verdict exits 1 (shared contract)
        if not args.json:
            print(f"bounds {source}: {certificate.describe()}", file=out)
            if not args.no_flow:
                print(certificate.flow.render_text(expr), file=out)
            for diagnostic in report:
                print("  " + diagnostic.render(), file=out)

    exit_code = max(exit_code, exit_code_for(reports))
    if args.json:
        _emit_diagnostics_json(
            out, "bounds", reports, exit_code,
            certificates=[
                dict(source=source, expr=str(expr), **certificate.to_dict())
                for expr, source, certificate in certificates
            ],
        )
    return exit_code


def _cmd_check(args, out) -> int:
    from .analysis import (
        EXIT_CLEAN,
        EXIT_FINDINGS,
        EXIT_USAGE,
        check_lifecycle,
        check_lifecycle_paths,
        check_package,
        check_paths,
        check_serve,
        check_serve_paths,
        effect_summary,
    )

    try:
        report = check_paths(args.paths) if args.paths else check_package()
        # the serve-safety pass (MOA10xx) rides along with the MOA7xx run
        serve_report = (check_serve_paths(args.paths) if args.paths
                        else check_serve())
        report.extend(serve_report.diagnostics)
        # ... as does the resource-lifecycle pass (MOA11xx)
        lifecycle_report = (check_lifecycle_paths(args.paths) if args.paths
                            else check_lifecycle())
        report.extend(lifecycle_report.diagnostics)
    except OSError as exc:
        print(f"repro check: cannot read source: {exc}", file=out)
        return EXIT_USAGE
    except SyntaxError as exc:
        print(f"repro check: cannot parse source: {exc}", file=out)
        return EXIT_USAGE
    exit_code = EXIT_FINDINGS if report.has_errors else EXIT_CLEAN
    if args.json:
        extra = {}
        if args.effects:
            extra["effects"] = effect_summary(paths=args.paths or None)
        _emit_diagnostics_json(out, "check", [report], exit_code, **extra)
    else:
        print(report.render_text(label="check"), file=out)
    return exit_code


def _profile_scenario(args):
    """Build the zero-argument callable the profiler runs for ``args``."""
    if args.scenario == "search":
        db = _make_database(args)
        query = " ".join(args.terms)
        strategy = args.strategy
        if args.shards is not None or strategy == "parallel":
            db.shard(args.shards)
            strategy = "parallel"

        def run():
            return db.search(query, n=args.n, strategy=strategy)

        return run

    if args.scenario == "topn":
        import numpy as np

        from .mm import ArraySource
        from .topn import (
            combined_topn,
            fagin_topn,
            naive_topn_sources,
            nra_topn,
            threshold_topn,
        )

        rng = np.random.default_rng(args.seed)
        matrix = rng.random((args.objects, max(2, args.sources)))
        sources = [ArraySource(matrix[:, j]) for j in range(matrix.shape[1])]
        algo = {
            "naive": naive_topn_sources,
            "fa": fagin_topn,
            "ta": threshold_topn,
            "nra": nra_topn,
            "ca": combined_topn,
        }[args.algo]

        def run():
            return algo(sources, args.n)

        return run

    # example1: the paper's Example 1 through the optimizer pipeline
    from .algebra import parse
    from .optimizer import Optimizer

    expr = parse("select(projecttobag([1, 2, 3, 4, 4, 5]), 2, 4)")
    optimizer = Optimizer()

    def run():
        value, report = optimizer.execute(expr)
        return sorted(value.to_python())

    return run


def _cmd_profile(args, out) -> int:
    from .analysis import EXIT_USAGE
    from .obs import metrics, run_profiled

    if args.shards is not None and args.scenario != "search":
        print("repro profile: --shards applies to the search scenario only",
              file=out)
        return EXIT_USAGE
    scenario = _profile_scenario(args)
    # start from a clean registry so the snapshot covers just this run
    metrics.reset()
    report = run_profiled(scenario)
    if args.export:
        report.export_jsonl(args.export)
    if args.json:
        print(report.to_json(indent=2), file=out)
    else:
        print(report.render_text(max_events=args.events), file=out)
        if args.export:
            print(f"trace written to {args.export}", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    import signal
    import threading

    from .mm.features import color_histograms, texture_features
    from .serve import ServerConfig, ServerThread

    db = _make_database(args)
    db.add_feature_space(color_histograms(db.collection.n_docs, seed=args.seed))
    db.add_feature_space(texture_features(db.collection.n_docs, seed=args.seed))
    config = ServerConfig(host=args.host, port=args.port,
                          workers=args.workers,
                          max_concurrent=args.max_concurrent,
                          chunk_depth=args.chunk_depth)
    server = ServerThread(db, config)
    handle = server.start()
    print(f"repro serve: listening on {handle.host}:{handle.port} "
          f"(feature spaces: {sorted(db.feature_spaces)}; ctrl-c stops)",
          file=out, flush=True)
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        server.stop()
        db.close()
    print("repro serve: stopped", file=out)
    return 0


def _cmd_example1(args, out) -> int:
    from .algebra import parse
    from .optimizer import Optimizer

    expr = parse("select(projecttobag([1, 2, 3, 4, 4, 5]), 2, 4)")
    value, report = Optimizer().execute(expr)
    print(report.describe(), file=out)
    print(f"answer: {sorted(value.to_python())}", file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    import signal

    if out is None and hasattr(signal, "SIGPIPE"):
        # console-script entry: die quietly when the reader closes the
        # pipe (e.g. `repro zipf | head`)
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    if args.command == "stats":
        return _cmd_stats(args, out)
    if args.command == "zipf":
        return _cmd_zipf(args, out)
    if args.command == "search":
        return _cmd_search(args, out)
    if args.command == "experiment":
        return _cmd_experiment_e3(args, out)
    if args.command == "example1":
        return _cmd_example1(args, out)
    if args.command == "lint":
        return _cmd_lint(args, out)
    if args.command == "bounds":
        return _cmd_bounds(args, out)
    if args.command == "check":
        return _cmd_check(args, out)
    if args.command == "profile":
        return _cmd_profile(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
