"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``generate`` — run DATAGEN, print Table 3-style statistics, and
  optionally export CSV bulk files;
* ``validate`` — load a CSV export and run the integrity validator, or
  (``--create`` / ``--check``) record and replay golden validation
  datasets against either SUT;
* ``benchmark`` — run the full SNB-Interactive benchmark on a SUT and
  print the full-disclosure report;
* ``explain`` — show the optimizer's plan for the Figure 4 query (Q9);
* ``curate`` — print curated parameter bindings for one query template;
* ``crosscheck`` — validate the two SUTs against each other
  (``--updates`` replays the update stream with interleaved reads and
  state checkpoints);
* ``chaos`` — run the update workload under a seeded fault plan
  (transient aborts, latency spikes, MVCC write conflicts) and
  assert the perturbed run converges to the fault-free state digest;
* ``serve`` — bulk-load a SUT and front it with the wire-protocol
  server, so ``benchmark --remote`` / ``chaos --remote`` drive it from
  another process over TCP.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, telemetry
from .datagen import DatagenConfig, generate
from .datagen.serializer import read_csv, write_csv
from .datagen.stats import DatasetStatistics
from .schema import validate_network


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LDBC SNB Interactive reproduction (SIGMOD 2015)")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="run DATAGEN")
    gen.add_argument("--persons", type=int, default=300)
    gen.add_argument("--scale-factor", type=float, default=None,
                     help="derive the person count from a scale factor")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", default=None,
                     help="directory for CSV bulk export")
    gen.add_argument("--no-events", action="store_true",
                     help="disable event-driven post spikes")
    _add_trace_flag(gen)

    val = commands.add_parser(
        "validate",
        help="validate a CSV export, or create/check a golden "
             "validation dataset")
    val.add_argument("directory", nargs="?", default=None,
                     help="CSV export directory (integrity mode)")
    val.add_argument("--create", metavar="PATH", default=None,
                     help="record a golden validation dataset "
                          "(JSONL) from the reference SUT")
    val.add_argument("--check", metavar="PATH", default=None,
                     help="replay a golden dataset against a SUT "
                          "and diff every expectation")
    val.add_argument("--sut",
                     choices=("store", "engine", "sharded", "both"),
                     default="both",
                     help="which SUT --check replays (default both; "
                          "'sharded' replays against the multi-process "
                          "sharded store)")
    val.add_argument("--shards", type=int, default=2,
                     help="--check --sut sharded: worker process count")
    val.add_argument("--persons", type=int, default=80,
                     help="--create: datagen person count")
    val.add_argument("--seed", type=int, default=7,
                     help="--create: datagen seed")
    val.add_argument("-k", type=int, default=2,
                     help="--create: bindings per query template")
    val.add_argument("--batch", type=int, default=100,
                     help="--create: updates per batch")
    val.add_argument("--canary", action="store_true",
                     help="--check: seed a known query bug and "
                          "require the check to FAIL (exit 0 iff the "
                          "harness caught it)")
    val.add_argument("--canary-faults", action="store_true",
                     help="--check: run the chaos soak with retry "
                          "classification disabled and require it to "
                          "FAIL (exit 0 iff the fault injector fired "
                          "and the soak caught the broken run)")
    val.add_argument("--replay-out", metavar="PATH", default=None,
                     help="--check: write the (shrunk) replay bundle "
                          "of the first mismatch here")

    bench = commands.add_parser("benchmark",
                                help="run the interactive benchmark")
    bench.add_argument("--persons", type=int, default=200)
    bench.add_argument("--seed", type=int, default=42)
    bench.add_argument("--sut", choices=("store", "engine"),
                       default="store")
    bench.add_argument("--partitions", type=int, default=4)
    bench.add_argument("--acceleration", type=float, default=None,
                       help="simulation/real time ratio "
                            "(default: as fast as possible)")
    bench.add_argument("--mode",
                       choices=("parallel", "sequential", "windowed"),
                       default="sequential")
    _add_deployment_flags(bench, remote=True)
    bench.add_argument(
        "--digest", action="store_true",
        help="print the SUT's final-state digest after the run (the "
             "remote/in-process equivalence oracle)")
    _add_trace_flag(bench)

    explain = commands.add_parser(
        "explain", help="EXPLAIN the Figure 4 plan for Q9")
    explain.add_argument("--persons", type=int, default=300)
    explain.add_argument("--seed", type=int, default=42)

    curate = commands.add_parser(
        "curate", help="print curated parameters for a query")
    curate.add_argument("--persons", type=int, default=300)
    curate.add_argument("--seed", type=int, default=42)
    curate.add_argument("--query", type=int, default=9,
                        choices=range(1, 15), metavar="1-14")
    curate.add_argument("-k", type=int, default=10,
                        help="number of bindings")
    curate.add_argument("--uniform", action="store_true",
                        help="uniform baseline instead of curated")

    crosscheck = commands.add_parser(
        "crosscheck",
        help="validate the two SUTs against each other")
    crosscheck.add_argument("--persons", type=int, default=200)
    crosscheck.add_argument("--seed", type=int, default=42)
    crosscheck.add_argument("-k", type=int, default=4,
                            help="bindings per query template")
    crosscheck.add_argument(
        "--updates", action="store_true",
        help="update-aware differential mode: replay the update "
             "stream on both SUTs with interleaved reads and state "
             "checkpoints")
    crosscheck.add_argument("--batch", type=int, default=100,
                            help="--updates: updates per batch")
    crosscheck.add_argument(
        "--replay-out", metavar="PATH", default=None,
        help="--updates: write the replay bundle of the first "
             "mismatch here")
    _add_deployment_flags(crosscheck)

    chaos = commands.add_parser(
        "chaos",
        help="run the update workload under injected faults and "
             "assert convergence to the fault-free state digest")
    chaos.add_argument("--persons", type=int, default=60)
    chaos.add_argument("--seed", type=int, default=11,
                       help="datagen seed")
    chaos.add_argument("--plan-seed", type=int, default=0,
                       help="fault-plan seed (same (seed, plan) → "
                            "identical injections and retry counts)")
    chaos.add_argument("--sut", choices=("store", "engine", "both"),
                       default="both")
    chaos.add_argument("--partitions", type=int, default=4)
    chaos.add_argument("--abort-rate", type=float, default=0.05,
                       help="fraction of ops hit by a transient abort")
    chaos.add_argument("--abort-attempts", type=int, default=1,
                       help="failing attempts per injected abort")
    chaos.add_argument("--latency-rate", type=float, default=0.02,
                       help="fraction of ops hit by a latency spike")
    chaos.add_argument("--latency-ms", type=float, default=2.0,
                       help="injected latency spike duration")
    chaos.add_argument("--fatal-rate", type=float, default=0.0,
                       help="fraction of ops raising a fatal SUT error "
                            "(digest will diverge unless 0)")
    chaos.add_argument("--store-conflicts", type=float, default=0.0,
                       help="store SUT only: fraction of commits "
                            "raising a genuine WriteConflictError")
    chaos.add_argument("--max-retries", type=int, default=8)
    chaos.add_argument("--degrade", action="store_true",
                       help="skip ops that exhaust retries instead of "
                            "failing the run (graceful degradation)")
    _add_deployment_flags(chaos, remote=True, wal_dir=True)
    chaos.add_argument("--shard-abort-rate", type=float, default=0.0,
                       help="--shards: fraction of worker applies "
                            "aborted before any state change")
    chaos.add_argument("--shard-delay-rate", type=float, default=0.0,
                       help="--shards: fraction of worker applies "
                            "delayed past the router timeout")
    chaos.add_argument("--shard-delay-ms", type=float, default=50.0,
                       help="--shards: injected worker delay duration")
    chaos.add_argument("--shard-timeout", type=float, default=30.0,
                       help="--shards: router RPC timeout in seconds")
    chaos.add_argument("--shard-kill-rate", type=float, default=0.0,
                       help="--shards: fraction of worker writes that "
                            "kill -9 the worker (half before anything "
                            "durable, half after WAL+apply but before "
                            "the ack); requires a WAL dir (a tempdir "
                            "is used when --shard-wal-dir is omitted)")
    chaos.add_argument("--shard-kill-after-prepare", type=float,
                       default=0.0,
                       help="--shards: fraction of 2PC prepares that "
                            "ack and then kill the worker — the "
                            "in-doubt window the coordinator log must "
                            "resolve")
    chaos.add_argument("--shard-torn-wal-rate", type=float, default=0.0,
                       help="--shards: fraction of worker writes that "
                            "die mid-WAL-append, leaving a torn "
                            "trailing record recovery must skip")
    chaos.add_argument("--shard-max-restarts", type=int, default=64,
                       help="--shards: supervised worker respawn "
                            "budget before a dead shard degrades to "
                            "fatal (0 disables recovery — the canary "
                            "mode)")
    _add_trace_flag(chaos)

    serve = commands.add_parser(
        "serve",
        help="bulk-load a SUT and serve it over the wire protocol")
    serve.add_argument("--persons", type=int, default=200)
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--sut", choices=("store", "engine"),
                       default="store")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks an ephemeral port (printed on "
                            "startup)")
    serve.add_argument("--workers", type=int, default=64,
                       help="requests that may execute at once; one "
                            "more is refused busy with a retry hint")
    serve.add_argument("--retry-after", type=float, default=0.05,
                       help="retry hint (seconds) sent with busy "
                            "rejections")
    _add_deployment_flags(serve, wal_dir=True)
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0,
        help="SIGTERM grace: stop accepting, finish in-flight "
             "requests for up to this many seconds, then close")
    _add_trace_flag(serve)
    return parser


def _add_deployment_flags(subparser, *, remote: bool = False,
                          wal_dir: bool = False) -> None:
    """Where the SUT runs; :func:`repro.core.sut.load_sut` decides."""
    subparser.add_argument(
        "--shards", type=int, default=0,
        help="partition the graph store across N worker processes "
             "behind the shard router (0 = in-process, the default; "
             "crosscheck: with --updates, the side checked against the "
             "single-process store)")
    if remote:
        subparser.add_argument(
            "--remote", metavar="HOST:PORT", default=None,
            help="drive a 'repro serve' instance over the wire instead "
                 "of loading a SUT in-process (start it with the same "
                 "--persons/--seed and --sut)")
    if wal_dir:
        subparser.add_argument(
            "--shard-wal-dir", default=None,
            help="--shards: directory for per-shard WALs + the 2PC "
                 "coordinator log; arms supervised worker crash "
                 "recovery")


def _add_trace_flag(subparser) -> None:
    subparser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="enable telemetry and write a trace to PATH on exit "
             "(Chrome trace-event JSON for about:tracing/Perfetto, or "
             "JSON-lines spans if PATH ends in .jsonl)")


class _TraceSession:
    """Enables telemetry for one command, exports on close."""

    def __init__(self, path: str | None) -> None:
        self.path = path
        if path:
            # Fail before the (possibly long) run, not at export time.
            parent = os.path.dirname(os.path.abspath(path))
            if not os.path.isdir(parent):
                raise SystemExit(
                    f"--trace: directory does not exist: {parent}")
            telemetry.enable(fresh_registry=True)

    def finish(self) -> None:
        if not self.path:
            return
        tracer = telemetry.disable()
        if str(self.path).endswith(".jsonl"):
            written = telemetry.write_spans_jsonl(tracer, self.path)
            kind = "JSON-lines span log"
        else:
            written = telemetry.write_chrome_trace(tracer, self.path)
            kind = "Chrome trace (load in about:tracing or ui.perfetto.dev)"
        print()
        print(telemetry.render_span_summary(tracer))
        breakdown = telemetry.wait_time_breakdown(tracer)
        if breakdown:
            print()
            print(telemetry.render_wait_breakdown(tracer))
        registry = telemetry.get_registry()
        if len(registry):
            print()
            print(telemetry.render_metrics(registry))
        print()
        print(f"trace written: {self.path} — {kind}, "
              f"{written} spans")


def _cmd_generate(args) -> int:
    if args.scale_factor is not None:
        config = DatagenConfig.for_scale_factor(
            args.scale_factor, seed=args.seed,
            event_driven_posts=not args.no_events)
    else:
        config = DatagenConfig(num_persons=args.persons, seed=args.seed,
                               event_driven_posts=not args.no_events)
    print(f"generating {config.num_persons} persons "
          f"(≈ SF {config.scale_factor:.4f}, seed {config.seed}) ...")
    trace = _TraceSession(args.trace)
    network = generate(config)
    for name, value in DatasetStatistics.of(network).as_row().items():
        print(f"  {name:<10} {value}")
    report = validate_network(network)
    print(f"integrity: {'clean' if report.ok else 'VIOLATIONS'} "
          f"({report.checked} checks)")
    if args.out:
        write_csv(network, args.out)
        print(f"CSV export written to {args.out}")
    trace.finish()
    return 0 if report.ok else 1


def _cmd_validate(args) -> int:
    if args.canary_faults:
        return _cmd_canary_faults(args)
    if args.create or args.check:
        return _cmd_validate_golden(args)
    if args.directory is None:
        raise SystemExit(
            "validate: pass a CSV directory, or --create/--check "
            "for golden-dataset mode")
    network = read_csv(args.directory)
    report = validate_network(network)
    print(f"entities checked: {report.checked}")
    if report.ok:
        print("integrity: clean")
        return 0
    print(f"integrity: {len(report.violations)} violations")
    for violation in report.violations[:20]:
        print(f"  {violation}")
    return 1


def _cmd_validate_golden(args) -> int:
    from .validation import check_golden, create_golden, \
        render_golden_check
    from .validation.canary import canary_bug

    if args.create:
        records = create_golden(
            args.create, persons=args.persons, seed=args.seed,
            bindings_per_query=args.k, batch_size=args.batch)
        print(f"golden dataset written: {args.create} "
              f"({records} records, persons={args.persons}, "
              f"seed={args.seed})")
        if not args.check:
            return 0

    suts = ("store", "engine") if args.sut == "both" else (args.sut,)

    def run_checks() -> tuple[bool, list]:
        all_ok = True
        reports = []
        for sut_name in suts:
            report = check_golden(args.check, sut_name, shards=args.shards)
            reports.append(report)
            print(render_golden_check(report))
            all_ok = all_ok and report.ok
        return all_ok, reports

    if args.canary:
        target = "engine" if args.sut == "both" else args.sut
        if target == "sharded":
            print("canary: seeding a shard-router bug (shard 0 "
                  "dropped from every scatter-gather) — the check "
                  "below MUST fail")
        else:
            print(f"canary: seeding a Q2/S4 result bug into the "
                  f"{target} SUT — the check below MUST fail")
        with canary_bug(target):
            ok, reports = run_checks()
        if ok:
            print("CANARY NOT DETECTED — the validation harness "
                  "failed to catch a seeded query bug")
            return 1
        caught = next(r for r in reports if not r.ok)
        detail = f"{len(caught.mismatches)} mismatches"
        if caught.shrunk is not None:
            detail += (f", counterexample shrunk to "
                       f"{caught.shrunk.shrunk_updates} updates in "
                       f"{caught.shrunk.probes} probes")
        print(f"canary detected ({detail}) — harness is live")
        return 0

    ok, reports = run_checks()
    if args.replay_out:
        bundle = next(
            (r.shrunk.bundle if r.shrunk is not None else r.bundle
             for r in reports if r.bundle is not None), None)
        if bundle is not None:
            bundle.save(args.replay_out)
            print(f"replay bundle written: {args.replay_out}")
    return 0 if ok else 1


def _cmd_canary_faults(args) -> int:
    """``validate --check FILE --canary-faults``: the chaos canary.

    Anchors the network on the golden header's (persons, seed) so the
    canary exercises the same configuration CI validates, then runs the
    chaos soak with retry classification disabled — which MUST fail.
    """
    import json

    from .datagen.update_stream import split_network
    from .faults import FaultPlan
    from .validation import GOLDEN_FORMAT, chaos_canary, render_chaos

    if not args.check:
        print("--canary-faults requires --check PATH "
              "(the golden header pins the configuration)",
              file=sys.stderr)
        return 2
    with open(args.check, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
    if header.get("format") != GOLDEN_FORMAT:
        raise SystemExit(
            f"{args.check}: not a {GOLDEN_FORMAT} golden dataset")
    sut = "store" if args.sut == "both" else args.sut
    print(f"chaos canary: injecting transient aborts into the {sut} "
          f"SUT with retry classification DISABLED — the soak below "
          f"MUST fail")
    network = generate(DatagenConfig(num_persons=header["persons"],
                                     seed=header["seed"]))
    split = split_network(network)
    plan = FaultPlan.uniform(abort=0.10)
    caught, report = chaos_canary(split, sut, plan)
    print(render_chaos(report))
    if not caught:
        print("CHAOS CANARY NOT DETECTED — either the fault injector "
              "no longer fires or the soak no longer notices a driver "
              "that cannot retry")
        return 1
    print(f"chaos canary detected ({report.injected_total} faults "
          f"injected, unprotected run failed) — chaos harness is live")
    return 0


def _cmd_benchmark(args) -> int:
    from .core import BenchmarkConfig, InteractiveBenchmark, \
        render_report
    from .driver.clock import AS_FAST_AS_POSSIBLE
    from .driver.modes import ExecutionMode

    config = BenchmarkConfig(
        num_persons=args.persons,
        seed=args.seed,
        sut=args.sut,
        num_partitions=args.partitions,
        mode=ExecutionMode(args.mode),
        acceleration=(args.acceleration if args.acceleration is not None
                      else AS_FAST_AS_POSSIBLE),
        remote=args.remote,
        shards=args.shards,
    )
    benchmark = InteractiveBenchmark(config)
    try:
        # Preparation (datagen, bulk load, curation) happens untraced so
        # the trace covers the measured run only.
        benchmark.prepare()
        trace = _TraceSession(args.trace)
        report = benchmark.run()
        print(render_report(report))
        if args.digest:
            print(f"final-state digest: {benchmark.final_state_digest()}")
    finally:
        # Shard workers drain their span buffers into the router's
        # telemetry on close, so close before exporting the trace.
        benchmark.close()
    trace.finish()
    return 0


def _cmd_explain(args) -> int:
    from .curation import ParameterCurator
    from .engine import snb_queries
    from .engine.catalog import load_catalog
    from .engine.explain import explain_pipeline

    network = generate(DatagenConfig(num_persons=args.persons,
                                     seed=args.seed))
    catalog = load_catalog(network)
    params = ParameterCurator(network, seed=args.seed) \
        .curate(3).by_query[9][0]
    pipeline = snb_queries.q9_pipeline(catalog, params)
    pipeline.execute()
    print(explain_pipeline(pipeline, show_actuals=True))
    return 0


def _cmd_curate(args) -> int:
    from .curation import ParameterCurator

    network = generate(DatagenConfig(num_persons=args.persons,
                                     seed=args.seed))
    curator = ParameterCurator(network, seed=args.seed)
    params = curator.curate(args.k, uniform=args.uniform)
    label = "uniform" if args.uniform else "curated"
    print(f"{label} bindings for Q{args.query}:")
    for binding in params.by_query[args.query]:
        print(f"  {binding}")
    return 0


def _cmd_crosscheck(args) -> int:
    from .core import cross_validate, render_validation

    if args.shards and not args.updates:
        raise SystemExit(
            "--shards: the sharded crosscheck is the update-aware "
            "differential mode; add --updates")
    network = generate(DatagenConfig(num_persons=args.persons,
                                     seed=args.seed))
    if args.updates:
        from .curation import ParameterCurator
        from .datagen.update_stream import split_network
        from .validation import render_differential, run_differential

        split = split_network(network)
        params = ParameterCurator(split.bulk, seed=args.seed) \
            .curate(args.k)
        right_factory = None
        if args.shards:
            from functools import partial

            from .core.sut import load_sut

            right_factory = partial(load_sut, "store", shards=args.shards)
            print(f"crosscheck: single-process store vs "
                  f"{args.shards}-shard multi-process store")
        report, bundle = run_differential(
            split, params, persons=args.persons, seed=args.seed,
            batch_size=args.batch, right_factory=right_factory)
        print(render_differential(report))
        if bundle is not None and args.replay_out:
            bundle.save(args.replay_out)
            print(f"replay bundle written: {args.replay_out}")
        return 0 if report.ok else 1
    report = cross_validate(network, bindings_per_query=args.k,
                            seed=args.seed)
    print(render_validation(report))
    return 0 if report.ok else 1


def _cmd_chaos(args) -> int:
    from .datagen.update_stream import split_network
    from .driver.resilience import DegradePolicy, RetryPolicy
    from .faults import FaultPlan
    from .validation import render_chaos, run_chaos

    plan = FaultPlan.uniform(
        abort=args.abort_rate, latency=args.latency_rate,
        fatal=args.fatal_rate, abort_attempts=args.abort_attempts,
        latency_seconds=args.latency_ms / 1000.0)
    policy = RetryPolicy(
        max_retries=args.max_retries, base_backoff=0.0005,
        max_backoff=0.05,
        on_exhaustion=(DegradePolicy.DEGRADE if args.degrade
                       else DegradePolicy.FAIL_FAST))
    print(f"chaos soak: {args.persons} persons (seed {args.seed}), "
          f"plan seed {args.plan_seed}, abort={args.abort_rate} "
          f"latency={args.latency_rate} fatal={args.fatal_rate} "
          f"conflicts={args.store_conflicts}")
    if args.remote and args.sut == "both":
        raise SystemExit(
            "--remote: pass --sut store or --sut engine matching "
            "the server (the clean digest is computed locally)")
    if args.shards and args.sut == "both":
        args.sut = "store"  # only the store shards
    shard_faults = None
    if args.shards and (args.shard_abort_rate or args.shard_delay_rate
                        or args.shard_kill_rate
                        or args.shard_kill_after_prepare
                        or args.shard_torn_wal_rate):
        from .shard import ShardFaultPlan

        shard_faults = ShardFaultPlan(
            abort_rate=args.shard_abort_rate,
            delay_rate=args.shard_delay_rate,
            delay_seconds=args.shard_delay_ms / 1000.0,
            kill_rate=args.shard_kill_rate,
            kill_after_prepare=args.shard_kill_after_prepare,
            torn_wal_rate=args.shard_torn_wal_rate,
            seed=args.plan_seed)
    shard_wal_dir = args.shard_wal_dir
    wal_tempdir = None
    if args.shards and shard_wal_dir is None and shard_faults is not None \
            and shard_faults.has_crash_faults:
        import tempfile

        wal_tempdir = tempfile.TemporaryDirectory(prefix="repro-shard-wal-")
        shard_wal_dir = wal_tempdir.name
        print(f"crash faults armed, no --shard-wal-dir given: "
              f"using {shard_wal_dir}")
    network = generate(DatagenConfig(num_persons=args.persons,
                                     seed=args.seed))
    split = split_network(network)
    trace = _TraceSession(args.trace)
    suts = ("store", "engine") if args.sut == "both" else (args.sut,)
    all_ok = True
    try:
        for sut_name in suts:
            report = run_chaos(
                split, sut_name, plan, seed=args.plan_seed, policy=policy,
                num_partitions=args.partitions,
                conflict_rate=(args.store_conflicts
                               if sut_name == "store" else 0.0),
                remote=args.remote, shards=args.shards,
                shard_faults=shard_faults,
                shard_timeout=args.shard_timeout,
                shard_wal_dir=shard_wal_dir,
                shard_max_restarts=args.shard_max_restarts)
            print(render_chaos(report))
            all_ok = all_ok and report.ok
    finally:
        if wal_tempdir is not None:
            wal_tempdir.cleanup()
    trace.finish()
    return 0 if all_ok else 1


def _cmd_serve(args) -> int:
    from .core.sut import load_sut
    from .datagen.update_stream import split_network
    from .net import ReproServer, ServerConfig

    shard_note = f", {args.shards} shards" if args.shards else ""
    print(f"loading {args.sut} SUT: {args.persons} persons "
          f"(seed {args.seed}{shard_note}) ...")
    network = generate(DatagenConfig(num_persons=args.persons,
                                     seed=args.seed))
    split = split_network(network)
    sut = load_sut(args.sut, split.bulk, shards=args.shards,
                   wal_dir=args.shard_wal_dir)
    try:
        config = ServerConfig(
            host=args.host, port=args.port, workers=args.workers,
            retry_after=args.retry_after,
            drain_timeout=args.drain_timeout)
        trace = _TraceSession(args.trace)
        server = ReproServer(sut, config)
        host, port = server.start()

        # SIGTERM = graceful drain: stop accepting, let in-flight
        # requests finish, then close.  A client mid-request gets its
        # answer instead of a reset socket.
        import signal

        def _drain_handler(signum, frame):
            print(f"\nSIGTERM: draining (timeout "
                  f"{args.drain_timeout:.1f}s)")
            completed = server.drain(args.drain_timeout)
            print("drain " + ("complete" if completed else "timed out"))

        signal.signal(signal.SIGTERM, _drain_handler)
        print(f"serving {sut.name} on {host}:{port} "
              f"(at most {args.workers} executing)")
        print("drive it with: repro benchmark "
              f"--persons {args.persons} --seed {args.seed} "
              f"--remote {host}:{port}")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
            server.shutdown()
        stats = server.stats()
        print("served: " + ", ".join(
            f"{k}={v}" for k, v in sorted(stats.items()) if v))
    finally:
        sut.close()  # stops shard workers (they drain spans first)
    trace.finish()
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "benchmark": _cmd_benchmark,
    "explain": _cmd_explain,
    "curate": _cmd_curate,
    "crosscheck": _cmd_crosscheck,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from .errors import BenchmarkError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BenchmarkError as exc:
        raise SystemExit(f"repro {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
