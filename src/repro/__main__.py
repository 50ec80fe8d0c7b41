"""Command-line interface: run single experiments or regenerate results.

Examples::

    python -m repro list
    python -m repro run ligra-bfs --config bt-hcc-dts-gwb --scale quick
    python -m repro table 3 --scale quick
    python -m repro fig 4
    python -m repro workspan cilk5-cs --scale paper
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import PAPER_APPS, app_names, resolve_app
from repro.config.system import CONFIG_KINDS, SCALES, resolve_kind


def _app_arg(text: str) -> str:
    try:
        return resolve_app(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _kind_arg(text: str) -> str:
    try:
        return resolve_kind(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _apply_harness_flags(args) -> None:
    """Wire --jobs / --results-dir / --no-store / --ledger into the
    harness.  The ledger goes through the environment so forked grid
    workers inherit it."""
    import os

    from repro.harness import set_default_jobs, set_result_store

    if getattr(args, "no_store", False):
        set_result_store(None)
    elif getattr(args, "results_dir", None):
        set_result_store(args.results_dir)
    if getattr(args, "jobs", None) is not None:
        set_default_jobs(args.jobs)
    if getattr(args, "ledger", None) is not None:
        os.environ["REPRO_LEDGER"] = args.ledger
        from repro.obs.ledger import reset_ledger

        reset_ledger()


def _report_store() -> None:
    """One line of store telemetry on stderr (hits/misses this run)."""
    from repro.harness import get_result_store, termlog

    store = get_result_store()
    if store is not None:
        termlog.log(store.stats_line())


def _cmd_list(_args) -> int:
    print("applications:")
    for name in app_names():
        print(f"  {name}")
    print("\nconfigurations:")
    for kind in CONFIG_KINDS:
        print(f"  {kind}")
    print("\nscales:", ", ".join(sorted(SCALES)))
    return 0


def _cmd_run(args) -> int:
    from repro.engine.checkpoint import CheckpointError
    from repro.harness import run_experiment, run_serial_baseline

    tracer = None
    sample_interval = None
    if args.trace:
        from repro.trace import Tracer

        tracer = Tracer()
        sample_interval = args.trace_interval or 10_000
    checkpoint = None
    if args.checkpoint:
        checkpoint = {
            "path": args.checkpoint,
            "interval": args.checkpoint_interval or 50_000,
            "resume": args.resume,
            "keep": args.keep_checkpoint,
        }
    try:
        result = run_experiment(
            args.app, args.config, args.scale, serial=args.serial,
            tracer=tracer, sample_interval=sample_interval,
            faults=args.faults, sanitize=args.sanitize, watchdog=args.watchdog,
            checkpoint=checkpoint,
        )
    except CheckpointError as exc:
        # A refused mode combination or unusable snapshot: a usage error.
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    if tracer is not None:
        from repro.trace import export_chrome_trace

        export_chrome_trace(tracer, args.trace)
        print(f"trace written  : {args.trace} ({tracer.n_events()} events)",
              file=sys.stderr)
    if args.json:
        import json

        from repro.harness.export import result_to_dict

        print(json.dumps(result_to_dict(result), indent=2, sort_keys=True))
        return 0
    print(f"app            : {result.app}")
    print(f"config         : {result.kind} @ {result.scale}")
    print(f"cycles         : {result.cycles}")
    print(f"instructions   : {result.instructions}")
    print(f"tasks/spawns   : {result.tasks}/{result.spawns}")
    print(f"steals (tries) : {result.steals} ({result.steal_attempts})")
    print(f"tiny L1 hit    : {result.l1_hit_rate_tiny:.3f}")
    print(f"inv/flush lines: {result.lines_invalidated}/{result.lines_flushed}")
    print(f"traffic bytes  : {result.total_traffic}")
    print(f"energy (pJ)    : {result.energy.total_pj:.3e}")
    if "faults_fired" in result.extras:
        print(f"faults fired   : {int(result.extras['faults_fired'])}")
    if "sanitizer_walks" in result.extras:
        print(f"sanitizer walks: {int(result.extras['sanitizer_walks'])} "
              "(0 violations)")
    if "ckpt_resumed_from" in result.extras:
        print(f"resumed from   : cycle {int(result.extras['ckpt_resumed_from'])}")
    if "ckpt_snapshots" in result.extras:
        print(f"snapshots taken: {int(result.extras['ckpt_snapshots'])}")
    if args.baseline:
        serial = run_serial_baseline(args.app, args.scale)
        print(f"speedup vs serial-IO: {serial.cycles / result.cycles:.2f}x")
    return 0


def _cmd_trace(args) -> int:
    from repro.harness import run_experiment
    from repro.trace import (
        Tracer,
        export_chrome_trace,
        format_activity_report,
        samples_to_csv,
    )

    tracer = Tracer()
    result = run_experiment(
        args.app, args.config, args.scale, serial=args.serial,
        tracer=tracer, sample_interval=args.interval,
    )
    export_chrome_trace(tracer, args.out)
    if args.csv:
        with open(args.csv, "w", newline="\n") as fh:
            fh.write(samples_to_csv(tracer.samples))
    print(format_activity_report(tracer))
    print(f"cycles : {result.cycles}")
    print(f"trace  : {args.out} ({tracer.n_events()} events; "
          f"load in https://ui.perfetto.dev or chrome://tracing)")
    if args.csv:
        print(f"csv    : {args.csv} ({len(tracer.samples)} samples)")
    return 0


def _cmd_table(args) -> int:
    from repro import harness

    scale = args.scale
    if args.number == 1:
        print(harness.format_table1(harness.table1_taxonomy()))
    elif args.number == 3:
        print(harness.format_table3(harness.table3(scale)))
    elif args.number == 4:
        print(harness.format_table4(harness.table4(scale)))
    elif args.number == 5:
        print(harness.format_table5(harness.table5("large")))
    else:
        print(f"no table {args.number} in the paper's evaluation", file=sys.stderr)
        return 2
    return 0


def _cmd_fig(args) -> int:
    from repro import harness
    from repro.cores.core import TIME_CATEGORIES
    from repro.mem.traffic import CATEGORIES

    scale = args.scale
    if args.number == 4:
        print(harness.format_fig4(harness.fig4_granularity(scale)))
    elif args.number == 5:
        print(harness.format_series(
            "Figure 5: speedup vs big.TINY/MESI", harness.fig5_speedup(scale)))
    elif args.number == 6:
        print(harness.format_series(
            "Figure 6: tiny-core L1D hit rate", harness.fig6_hitrate(scale)))
    elif args.number == 7:
        print(harness.format_stacked(
            "Figure 7: tiny-core time breakdown (normalized to MESI)",
            harness.fig7_breakdown(scale), TIME_CATEGORIES))
    elif args.number == 8:
        print(harness.format_stacked(
            "Figure 8: NoC traffic by category (normalized to MESI)",
            harness.fig8_traffic(scale), CATEGORIES))
    else:
        print(f"no figure {args.number} in the paper's evaluation", file=sys.stderr)
        return 2
    return 0


def _cmd_fuzz(args) -> int:
    from repro.harness.fuzz import run_fuzz

    report = run_fuzz(
        app_name=args.app,
        kind=args.config,
        scale=args.scale,
        seeds=range(args.seed_base, args.seed_base + args.seeds),
        plan=args.plan,
        sanitize=not args.no_sanitize,
        watchdog=args.watchdog,
        break_coherence=args.break_coherence,
    )
    print(report.summary())
    if args.out:
        import json

        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=1, sort_keys=True)
        print(f"report written : {args.out}", file=sys.stderr)
    if args.expect_violations:
        # Positive-control mode: the sweep must FIND something.
        if report.n_violations == 0:
            print("FAIL: expected violations, found none", file=sys.stderr)
            return 1
        return 0
    return 0 if report.ok else 1


def _cmd_verify(args) -> int:
    from repro.verify.cli import run_verify

    return run_verify(
        mixes=args.mixes,
        cores=args.cores,
        words=args.words,
        ops=args.ops,
        scenario=args.scenario,
        break_coherence=args.break_coherence,
        expect_violations=args.expect_violations,
        max_states=args.max_states,
        out=args.out,
    )


def _cmd_checkpoint(args) -> int:
    from repro.engine.checkpoint import load_snapshot

    snap = load_snapshot(args.snapshot)
    if snap["kind"] != "run":
        print(f"repro checkpoint: {args.snapshot} is not a run snapshot",
              file=sys.stderr)
        return 2
    print(f"snapshot       : {args.snapshot}")
    print(f"kind           : {snap['kind']}")
    print(f"format version : {snap['version']}")
    print(f"cycle          : {snap['cycle']}")
    print(f"cores          : {len(snap['cores'])}")
    print(f"pending events : {len(snap['sim']['queue'])}")
    print(f"replay log     : {len(snap['log'])} entries")
    print(f"program done   : {snap['runtime']['done']}")
    print(f"traced         : {snap['tracer'] is not None}")
    return 0


def _cmd_report(args) -> int:
    from repro.obs.report import run_report

    return run_report(args.ledger_file, as_json=args.json)


def _cmd_workspan(args) -> int:
    from repro.harness import workspan

    report = workspan(args.app, args.scale)
    print(f"work        : {report.work}")
    print(f"span        : {report.span}")
    print(f"parallelism : {report.parallelism:.2f}")
    print(f"tasks       : {report.n_tasks}")
    print(f"IPT         : {report.instructions_per_task:.1f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="big.TINY / HCC / DTS reproduction harness (ISCA 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        return value

    harness_flags = argparse.ArgumentParser(add_help=False)
    harness_flags.add_argument(
        "--jobs", type=positive_int, default=None, metavar="N",
        help="fan experiment grids out over N worker processes (default: "
             "REPRO_JOBS or 1)")
    harness_flags.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="persist results to DIR so warm reruns skip simulation "
             "(default: REPRO_RESULTS_DIR)")
    harness_flags.add_argument(
        "--no-store", action="store_true",
        help="disable the on-disk result store even if REPRO_RESULTS_DIR is set")
    harness_flags.add_argument(
        "--ledger", nargs="?", const="1", default=None, metavar="FILE",
        help="append one JSONL manifest line per run_experiment; with no "
             "FILE, the ledger lives next to the result store "
             "(ledger.jsonl); equivalent to REPRO_LEDGER")

    sub.add_parser("list", help="list apps, configurations, and scales")

    run_parser = sub.add_parser(
        "run", help="run one app on one configuration", parents=[harness_flags])
    run_parser.add_argument("app", type=_app_arg, metavar="APP",
                            help=f"one of {', '.join(sorted(PAPER_APPS))} (or an alias "
                                 "like 'cilksort')")
    run_parser.add_argument("--config", "--kind", dest="config", type=_kind_arg,
                            default="bt-hcc-dts-gwb", metavar="KIND")
    run_parser.add_argument("--scale", default="quick", choices=sorted(SCALES))
    run_parser.add_argument("--serial", action="store_true", help="serial elision")
    run_parser.add_argument("--baseline", action="store_true",
                            help="also run the serial-IO baseline and report speedup")
    run_parser.add_argument("--json", action="store_true",
                            help="emit the full ExperimentResult as JSON on stdout")
    run_parser.add_argument("--trace", default=None, metavar="FILE",
                            help="record a cycle-accurate trace to FILE "
                                 "(Chrome trace-event JSON; bypasses the result "
                                 "store and memo cache)")
    run_parser.add_argument("--trace-interval", type=positive_int, default=None,
                            metavar="N", help="stat sampling interval in cycles "
                                              "for --trace (default: 10000)")
    run_parser.add_argument("--faults", default=None, metavar="SPEC",
                            help="inject faults: a preset (timing, full, evict, "
                                 "steal) optionally followed by key=value "
                                 "overrides, e.g. 'timing,seed=7' "
                                 "(bypasses nothing; faulted runs get their own "
                                 "cache/store keys)")
    run_parser.add_argument("--sanitize", action="store_true",
                            help="run the coherence-invariant sanitizer; any "
                                 "violation fails the run")
    run_parser.add_argument("--watchdog", type=positive_int, default=None,
                            metavar="CYCLES",
                            help="deadlock watchdog grace: raise a diagnostic "
                                 "DeadlockError after CYCLES cycles without "
                                 "runtime progress")
    run_parser.add_argument("--checkpoint", default=None, metavar="FILE",
                            help="periodically snapshot the full simulation "
                                 "state to FILE; the file is removed after a "
                                 "successful run unless --keep-checkpoint")
    run_parser.add_argument("--checkpoint-interval", type=positive_int,
                            default=None, metavar="N",
                            help="cycles between snapshots for --checkpoint "
                                 "(default: 50000)")
    run_parser.add_argument("--resume", action="store_true",
                            help="if the --checkpoint file exists, restore it "
                                 "and resume instead of starting cold")
    run_parser.add_argument("--keep-checkpoint", action="store_true",
                            help="keep the --checkpoint file after a "
                                 "successful run")
    trace_parser = sub.add_parser(
        "trace",
        help="run one experiment with full tracing and export it for Perfetto",
        parents=[harness_flags])
    trace_parser.add_argument("app", type=_app_arg, metavar="APP",
                              help="application (registry name or alias)")
    trace_parser.add_argument("--config", "--kind", dest="config", type=_kind_arg,
                              default="bt-hcc-dts-gwb", metavar="KIND")
    trace_parser.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    trace_parser.add_argument("--serial", action="store_true", help="serial elision")
    trace_parser.add_argument("--out", default="trace.json", metavar="FILE",
                              help="Chrome trace-event JSON output (default: "
                                   "trace.json)")
    trace_parser.add_argument("--csv", default=None, metavar="FILE",
                              help="also write the interval stat samples as CSV")
    trace_parser.add_argument("--interval", type=positive_int, default=10_000,
                              metavar="N",
                              help="stat sampling interval in cycles (default: "
                                   "10000)")

    table_parser = sub.add_parser(
        "table", help="regenerate a paper table", parents=[harness_flags])
    table_parser.add_argument("number", type=int, choices=(1, 3, 4, 5))
    table_parser.add_argument("--scale", default="quick", choices=sorted(SCALES))

    fig_parser = sub.add_parser(
        "fig", help="regenerate a paper figure", parents=[harness_flags])
    fig_parser.add_argument("number", type=int, choices=(4, 5, 6, 7, 8))
    fig_parser.add_argument("--scale", default="quick", choices=sorted(SCALES))

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="sweep fault-injection seeds under the sanitizer and assert "
             "nothing breaks (timing-only plans must not change the answer)")
    fuzz_parser.add_argument("--app", type=_app_arg, default="cilk5-cs",
                             metavar="APP", help="application (default: cilk5-cs)")
    fuzz_parser.add_argument("--config", "--kind", dest="config", type=_kind_arg,
                             default="bt-hcc-dts-gwb", metavar="KIND")
    fuzz_parser.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    fuzz_parser.add_argument("--seeds", type=positive_int, default=5, metavar="N",
                             help="number of fault seeds to sweep (default: 5)")
    fuzz_parser.add_argument("--seed-base", type=int, default=1, metavar="S",
                             help="first seed of the sweep (default: 1)")
    fuzz_parser.add_argument("--plan", default="timing", metavar="SPEC",
                             help="fault plan preset/spec (default: timing; "
                                  "'full' adds forced evictions + steal aborts)")
    fuzz_parser.add_argument("--no-sanitize", action="store_true",
                             help="skip the invariant sanitizer (faults only)")
    fuzz_parser.add_argument("--watchdog", type=positive_int,
                             default=2_000_000, metavar="CYCLES",
                             help="watchdog grace per run (default: 2000000)")
    fuzz_parser.add_argument("--break-coherence", default=None,
                             choices=("no-thief-flush", "no-parent-invalidate"),
                             help="deliberately break the runtime's flush "
                                  "discipline (sanitizer positive control)")
    fuzz_parser.add_argument("--expect-violations", action="store_true",
                             help="invert the verdict: fail unless the sweep "
                                  "finds at least one violation")
    fuzz_parser.add_argument("--out", default=None, metavar="FILE",
                             help="write the full fuzz report as JSON")

    verify_parser = sub.add_parser(
        "verify",
        help="exhaustively model-check the real coherence protocols on a "
             "1-line micro-machine (BFS over canonicalized states); "
             "violations yield minimal Perfetto-exportable counterexamples")
    verify_parser.add_argument(
        "--cores", type=int, default=2, choices=(2, 3, 4),
        help="cores in the micro-machine (default: 2; heterogeneous mixes "
             "use 1 MESI big core + the rest tiny)")
    verify_parser.add_argument(
        "--words", type=int, default=1, choices=(1, 2, 3),
        help="words of the line under test in free mode (default: 1; more "
             "words square the state space); the handoff scenario always "
             "uses at least 2 (payload + flag)")
    verify_parser.add_argument(
        "--mixes", default="all", metavar="LIST",
        help="comma-separated protocol mixes, or 'all' (default): "
             "mesi, denovo, gpu-wt, gpu-wb, hcc-dnv, hcc-gwt, hcc-gwb")
    verify_parser.add_argument(
        "--ops", default="all", metavar="LIST",
        help="comma-separated free-mode op alphabet, or 'all' (default): "
             "load, store, amo, flush, invalidate, l1evict, l2evict, bypass")
    verify_parser.add_argument(
        "--scenario", default="all", choices=("all", "free", "handoff"),
        help="'free' = full asynchronous interleaving of --ops; 'handoff' = "
             "the scripted DTS parent/thief handoff (default: both)")
    verify_parser.add_argument(
        "--break-coherence", default=None,
        choices=("no-thief-flush", "no-parent-invalidate"),
        help="drop one discipline step from the handoff scripts (positive "
             "control; implies --scenario handoff)")
    verify_parser.add_argument(
        "--expect-violations", action="store_true",
        help="invert the verdict: fail unless a counterexample is found")
    verify_parser.add_argument(
        "--max-states", type=positive_int, default=500_000, metavar="N",
        help="abort (and FAIL) an exploration past N states (default: "
             "500000); an incomplete run proves nothing")
    verify_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write counterexample JSON + Perfetto trace artifacts to DIR")

    ckpt_parser = sub.add_parser(
        "checkpoint",
        help="inspect a simulation snapshot file (repro.engine.checkpoint)")
    ckpt_parser.add_argument("snapshot", metavar="FILE",
                             help="snapshot written by 'run --checkpoint' or "
                                  "run_grid(checkpoint_dir=...)")

    ws_parser = sub.add_parser(
        "workspan", help="Cilkview work/span analysis", parents=[harness_flags])
    ws_parser.add_argument("app", choices=sorted(PAPER_APPS))
    ws_parser.add_argument("--scale", default="quick", choices=sorted(SCALES))

    report_parser = sub.add_parser(
        "report",
        help="aggregate a run ledger into per-sweep summaries "
             "(hit/miss/failure counts, wall-time breakdown)",
        parents=[harness_flags])
    report_parser.add_argument(
        "ledger_file", nargs="?", default=None, metavar="LEDGER",
        help="ledger JSONL file (default: ledger.jsonl next to the "
             "configured result store)")
    report_parser.add_argument(
        "--json", action="store_true",
        help="emit the summary as JSON on stdout")

    args = parser.parse_args(argv)
    if args.command == "run":
        if not args.checkpoint and (
                args.resume or args.keep_checkpoint
                or args.checkpoint_interval is not None):
            run_parser.error("--resume, --keep-checkpoint and "
                             "--checkpoint-interval need --checkpoint")
        if not args.trace and args.trace_interval is not None:
            run_parser.error("--trace-interval needs --trace")
    _apply_harness_flags(args)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "trace": _cmd_trace,
        "table": _cmd_table,
        "fig": _cmd_fig,
        "workspan": _cmd_workspan,
        "fuzz": _cmd_fuzz,
        "verify": _cmd_verify,
        "checkpoint": _cmd_checkpoint,
        "report": _cmd_report,
    }[args.command]
    code = handler(args)
    if args.command in ("run", "table", "fig", "workspan"):
        _report_store()
    return code


if __name__ == "__main__":
    raise SystemExit(main())
