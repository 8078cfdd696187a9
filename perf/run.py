#!/usr/bin/env python3
"""The benchmark of record: ``python3 perf/run.py``.

Two ways in:

* ``--workload W --seed N --seconds T --trace 0|1`` is one measured
  invocation.  It prints every metric by name with its unit and sample
  count, and ends with one JSON line ``{"correct", "attempted",
  "failed", "metrics"}`` — the end-to-end metrics of ``BENCHMARK.json``
  with ``--trace 0``, the per-layer ones with ``--trace 1``.
* Without ``--trace`` it is the suite: every workload (or the one
  named) ``--runs`` times untraced and once traced, each in its own
  process, collected into ``perf/out/results.json`` for
  ``perf/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(PERF_DIR, "out")

if not os.path.isdir(os.path.join(SRC, "repro")):
    raise SystemExit("perf: src/repro not found next to perf/ — "
                     "nothing to measure")
sys.path.insert(0, SRC)

import harness  # noqa: E402  (needs src/ on the path)
import tracing  # noqa: E402
#: One invocation must end within the driver's 180 s.
HARD_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        return json.load(source)


def parse_args(argv=None) -> argparse.Namespace:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, default=None)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="given: one invocation; absent: the suite")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full",
                        help="smoke: ~60 persons, for perf/tests")
    parser.add_argument("--runs", type=int, default=5,
                        help="suite: untraced invocations per workload")
    parser.add_argument("--out", default=None,
                        help="suite: results file "
                             "(default perf/out/results.json)")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    args.spec = spec
    return args


# -- one invocation ---------------------------------------------------------

def measure(args) -> dict:
    """Set up, play passes for ``--seconds``, check, compute metrics."""
    w = harness.workload(args.workload, args.scale)
    traced = bool(args.trace)
    timers = harness.Timers()
    setup_seconds = []
    inputs = None
    for __ in range(harness.SETUPS):
        inputs = None  # one dataset alive at a time (rss_mb)
        gc.collect()
        start = time.perf_counter()
        inputs = harness.make_inputs(w, args.seed, timers)
        with harness.deployed(w, inputs, timers):
            setup_seconds.append(time.perf_counter() - start)
    expected = harness.expected_digest(inputs)

    plain, traces, noop_seconds = [], [], []
    extras: dict[str, list[float]] = {}
    children_rss = 0.0
    notes = []

    def check(one, deployment, final: bool) -> None:
        """Outside the timed region, before the deployment closes."""
        nonlocal children_rss
        children_rss = max(children_rss, deployment.children_rss_mb())
        if one.error:
            notes.append(one.error)
        elif final and deployment.digest() != expected:
            notes.append("final-state digest differs from the "
                         "in-process store replay")

    def note(name: str, value: float) -> None:
        extras.setdefault(name, []).append(value)

    # The budget covers the passes and the deployments between them.
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        first = not plain
        with harness.deployed(w, inputs, timers) as deployment:
            one = harness.play(w, inputs, deployment, args.seed,
                               keep_exchanges=inputs.read_only and first)
            plain.append(one)
            if one.exchanges and not one.error and \
                    not harness.reads_match_engine(inputs, one.exchanges):
                notes.append("store reads differ from the engine's")
            one.exchanges = []
            if w.sut == "sharded" and traced:
                # From the untraced deployment: on the traced one the
                # stats RPCs would be recorded as part of the pass.
                stats = deployment.sut.stats()
                note("shard.multi_shard_update_share",
                     stats["multi_shard_updates"] / max(stats["updates"], 1))
                note("shard.router_timeouts",
                     sum(s.get("router_timeouts", 0)
                         for s in stats["shards"]))
            check(one, deployment,
                  final=not traced and time.perf_counter() >= deadline)
        if not traced:
            continue
        with harness.deployed(w, inputs, timers) as deployment:
            one = harness.play(w, inputs, deployment, args.seed, traced=True,
                               keep_exchanges=(w.sut == "remote"))
            traces.append(one)
            if w.sut == "remote":
                note("net.ping_rtt_us", harness.ping_rtt_us(deployment.sut))
                note("net.server.rejected_busy",
                     deployment.sut.server_stats()["rejected_busy"])
                for name, value in harness.codec_replay(
                        one.exchanges).items():
                    note(name, value)
                one.exchanges = []
            check(one, deployment, final=time.perf_counter() >= deadline)
        noop_seconds.append(harness.noop_driver_seconds(inputs))

    attempted = sum(p.scheduled + p.tail[0] for p in plain + traces)
    done = sum(p.completed + p.tail[1] for p in plain + traces)
    result = {
        "workload": w.name, "seed": args.seed, "persons": w.persons,
        "scale": args.scale, "traced": traced,
        "correct": not notes, "attempted": attempted,
        "failed": attempted - done, "notes": notes,
        "passes": len(plain), "pass_wall_s": [p.wall for p in plain],
        "exact": harness.exact_counts(plain[0]),
    }
    if traced:
        values, result["layer_self_share"] = per_layer(
            w, timers, plain, traces, noop_seconds, extras)
        result["counts"] = {name: len(traces) for name in values}
        os.makedirs(OUT_DIR, exist_ok=True)
        tracing.write_chrome_trace(
            traces[-1].spans,
            os.path.join(OUT_DIR, f"trace-{w.name}.json"))
    else:
        values, result["counts"] = harness.end_to_end(
            plain, setup_seconds,
            harness.peak_rss_mb("self") + children_rss)
    result["values"] = values
    return result


def per_layer(w, timers, plain, traces, noop_seconds, extras,
              ) -> tuple[dict[str, float], dict[str, float]]:
    """Medians over the invocation's traced passes (and set-ups), and
    the last traced pass's self-time share per layer."""
    per_pass = [harness.layer_metrics_of_pass(w, one) for one in traces]
    values = {name: statistics.median(m[name] for m, __ in per_pass)
              for name in per_pass[0][0]}
    for name in ("datagen.generate_s", "datagen.split_s",
                 "curation.curate_s", "workload.build_stream_s",
                 "store.load_s", "engine.load_s", "shard.spawn_s",
                 "net.server_ready_s"):
        values[name] = timers.median(name)
    ops = plain[0].scheduled
    values["driver.noop_us_per_op"] = \
        statistics.median(noop_seconds) * 1e6 / ops
    # CPU from the untraced passes: tracing inflates the harness side.
    cpu_self = statistics.median(p.cpu_self for p in plain) * 1e3 / ops
    cpu_children = statistics.median(
        p.cpu_children for p in plain) * 1e3 / ops
    values["net.client.cpu_ms_per_op"] = \
        cpu_self if w.sut == "remote" else 0.0
    values["net.server.cpu_ms_per_op"] = \
        cpu_children if w.sut == "remote" else 0.0
    values["shard.router_cpu_ms_per_op"] = \
        cpu_self if w.sut == "sharded" else 0.0
    values["shard.worker_cpu_ms_per_op"] = \
        cpu_children if w.sut == "sharded" else 0.0
    for name in ("net.ping_rtt_us", "net.server.rejected_busy",
                 "shard.multi_shard_update_share", "shard.router_timeouts",
                 *harness.CODEC_NAMES):
        values[name] = statistics.median(extras[name]) \
            if name in extras else 0.0
    values["demoted.short_p99_us"] = harness.short_p99_us(
        harness.quietest(plain))
    values["demoted.cpu_ms_per_op"] = harness.best_cpu_ms_per_op(plain)
    values["trace.overhead_share"] = \
        harness.quiet_wall(traces) / harness.quiet_wall(plain) - 1.0
    return values, per_pass[-1][1]


def run_invocation(args) -> int:
    # One core for the generator and everything it starts: on this
    # 2-vCPU VM a wake-up that crosses cores costs anything from 60 to
    # 600 us depending on where the scheduler last left the peer, which
    # made same-code runs of the IPC workloads differ by 3x.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    harness.arm_hard_timeout(HARD_TIMEOUT_S)
    result = measure(args)
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in args.spec[section]}
    values = result["values"]
    if set(values) != set(wanted):
        raise SystemExit(
            f"metric names differ from BENCHMARK.json {section}: "
            f"missing {sorted(set(wanted) - set(values))}, "
            f"extra {sorted(set(values) - set(wanted))}")
    bad = [name for name, value in values.items()
           if not math.isfinite(value)]
    if bad:
        raise SystemExit(f"non-finite metrics: {bad}")
    print(f"# {result['workload']} seed={result['seed']} "
          f"persons={result['persons']} passes={result['passes']} "
          f"traced={int(result['traced'])}")
    for name, unit in wanted.items():
        print(f"{name:40s} {values[name]:14.4f} {unit:6s} "
              f"n={result['counts'][name]}")
    if result["traced"]:
        print("# self time by layer, share of the traced driver wall: "
              + ", ".join(f"{k}={v:.3f}" for k, v in
                          sorted(result["layer_self_share"].items())))
    for note in result["notes"]:
        print(f"# NOTE {note}")
    os.makedirs(OUT_DIR, exist_ok=True)
    detail = os.path.join(
        OUT_DIR, f"run-{result['workload']}-trace{int(result['traced'])}"
                 ".json")
    with open(detail, "w") as out:
        json.dump(result, out, indent=1)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


# -- the suite --------------------------------------------------------------

def header() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    loc = 0
    for directory, __, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name)) as source:
                    loc += sum(1 for __ in source)
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(), "src_loc": loc,
            "date": time.strftime("%Y-%m-%dT%H:%M:%S")}


def invoke(args, name: str, trace: int) -> dict:
    """One invocation in its own process; its detail file, parsed."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", args.scale]
    completed = subprocess.run(command, cwd=ROOT, text=True,
                               capture_output=True,
                               timeout=HARD_TIMEOUT_S + 10)
    if completed.returncode != 0:
        raise SystemExit(f"{name} trace={trace} failed "
                         f"({completed.returncode}):\n{completed.stderr}")
    with open(os.path.join(OUT_DIR,
                           f"run-{name}-trace{trace}.json")) as source:
        return json.load(source)


def run_suite(args) -> int:
    spec = args.spec
    names = [args.workload] if args.workload \
        else [w["name"] for w in spec["workloads"]]
    results = {"header": header(), "seed": args.seed,
               "seconds": args.seconds, "scale": args.scale,
               "workloads": {}}
    print("# " + json.dumps(results["header"]))
    ok = True
    for name in names:
        runs = [invoke(args, name, 0) for __ in range(args.runs)]
        traced = invoke(args, name, 1)
        ok = ok and all(r["correct"] and not r["failed"]
                        for r in runs + [traced])
        entry = {
            "persons": runs[0]["persons"],
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "exact": runs[0]["exact"],
            "exact_traced": traced["exact"],
            "end_to_end": {}, "per_layer": traced["values"],
            "layer_self_share": traced["layer_self_share"],
        }
        print(f"\n## {name} ({entry['persons']} persons, "
              f"{args.runs} runs + 1 traced, seed {args.seed})")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = [r["values"][key] for r in runs]
            entry["end_to_end"][key] = {
                "unit": metric["unit"], "values": values,
                "samples": runs[0]["counts"][key]}
            print(f"{key:40s} {statistics.median(values):14.4f} "
                  f"{metric['unit']:6s} n={runs[0]['counts'][key]} "
                  f"runs={len(values)}")
        for metric in spec["per_layer"]:
            key = metric["name"]
            if traced["values"][key]:
                print(f"{key:40s} {traced['values'][key]:14.4f} "
                      f"{metric['unit']}")
        results["workloads"][name] = entry
    out = args.out or os.path.join(OUT_DIR, "results.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as target:
        json.dump(results, target, indent=1)
    print(f"\n# wrote {out}; all correct: {ok}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace is None:
        return run_suite(args)
    return run_invocation(args)


if __name__ == "__main__":
    sys.exit(main())
