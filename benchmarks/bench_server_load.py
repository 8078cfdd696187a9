"""Server load A/B — wire, sharded, and in-process SUTs, same stream.

Runs the full interactive workload three times — in process, against
the multi-process sharded store (``--shards``), and over the loopback
wire against a ``ReproServer`` — with the driver applying concurrent
load (parallel mode, several partitions).  Digest equality across all
three legs is the hard gate: every run must leave byte-identical final
state or this harness exits 1.  On top of the gate it reports the
latency cost of the wire per operation class (mean/p99, both sides),
the server's request/busy counters and the served store's replay
count, and writes the
sharded-vs-single throughput row to the committed
``BENCH_server_load.json`` (the tracked perf trajectory).

Standalone (the CI smoke gate)::

    PYTHONPATH=src python benchmarks/bench_server_load.py --quick
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.bench import emit_artifact, emit_headline, format_table
from repro.core.benchmark import BenchmarkConfig, InteractiveBenchmark
from repro.core.sut import StoreSUT
from repro.datagen import DatagenConfig, generate
from repro.datagen.update_stream import split_network
from repro.driver.modes import ExecutionMode
from repro.net import ReproServer, ServerConfig
from repro.store import load_network


def _config(persons: int, seed: int, partitions: int,
            remote: str | None = None,
            shards: int = 0) -> BenchmarkConfig:
    return BenchmarkConfig(num_persons=persons, seed=seed, sut="store",
                           num_partitions=partitions,
                           mode=ExecutionMode.PARALLEL,
                           bindings_per_query=4, remote=remote,
                           shards=shards)


def _run(config: BenchmarkConfig):
    bench = InteractiveBenchmark(config)
    report = bench.run()
    digest = bench.final_state_digest()
    bench.close()
    return report, digest


def _latency_rows(local, remote) -> list[list]:
    """Per-class mean/p99 side by side; classes ordered Q, S, updates."""
    rows = []
    local_all = {**local.complex_stats, **local.short_stats,
                 **local.update_stats}
    remote_all = {**remote.complex_stats, **remote.short_stats,
                  **remote.update_stats}

    def key(name: str) -> tuple:
        order = {"Q": 0, "S": 1}.get(name[0], 2)
        digits = "".join(c for c in name if c.isdigit())
        return (order, int(digits) if order < 2 else 0, name)

    for name in sorted(set(local_all) | set(remote_all), key=key):
        here, there = local_all.get(name), remote_all.get(name)
        rows.append([
            name,
            here.count if here else 0,
            f"{here.mean_ms:.3f}" if here else "-",
            f"{here.p99_ms:.3f}" if here else "-",
            f"{there.mean_ms:.3f}" if there else "-",
            f"{there.p99_ms:.3f}" if there else "-",
        ])
    return rows


def measure_recovery(split, shards: int, rounds: int = 5):
    """Worker-restart-to-first-successful-read, measured directly.

    Applies a prefix of the update stream to a crash-tolerant sharded
    store, then ``rounds`` times kill -9s a worker and times the next
    supervised read on that shard — respawn + bulk reload + WAL replay
    + re-issue, the full recovery episode as a caller experiences it.
    Returns ``(p50_ms, p95_ms, digest_held, supervisor_stats)`` where
    ``digest_held`` asserts the post-recovery digest still matches the
    pre-kill state (no acked update lost, none double-applied).
    """
    import shutil
    import tempfile
    import time

    from repro import telemetry
    from repro.core.operation import Update
    from repro.shard import ShardedStoreSUT

    wal_dir = tempfile.mkdtemp(prefix="repro-bench-wal-")
    sut = ShardedStoreSUT.for_network(split.bulk, shards,
                                      wal_dir=wal_dir,
                                      max_restarts=rounds + shards)
    samples_ms: list[float] = []
    try:
        for op in split.updates[:60]:
            sut.execute(Update(op))
        expected = sut.digest()
        for round_index in range(rounds):
            handle = sut.router.handles[round_index % shards]
            handle.process.kill()
            handle.process.join(timeout=5.0)
            started = time.perf_counter()
            sut.router.call(handle.index, "count_vertices", "person")
            samples_ms.append((time.perf_counter() - started) * 1000.0)
        digest_held = sut.digest() == expected
        supervisor = sut.router.stats()["supervisor"]
    finally:
        sut.close()
        shutil.rmtree(wal_dir, ignore_errors=True)
    return (round(telemetry.percentile(samples_ms, 0.50), 3),
            round(telemetry.percentile(samples_ms, 0.95), 3),
            digest_held, supervisor)


def run_ab(persons: int, seed: int, partitions: int, workers: int,
           shards: int = 2):
    """In-process vs loopback-remote vs sharded run, same stream.

    Returns ``(rows, summary, checks, headline)``; digest equality
    across all three legs is the hard gate, and the headline dict is
    the sharded-vs-single row the committed ``BENCH_server_load.json``
    tracks, alongside the worker-recovery-time row.
    """
    local_report, local_digest = _run(_config(persons, seed, partitions))
    sharded_report, sharded_digest = _run(
        _config(persons, seed, partitions, shards=shards))

    # The server owns its own bulk-loaded store, built from the same
    # deterministic generation the in-process run bulk-loads locally.
    split = split_network(generate(DatagenConfig(num_persons=persons,
                                                 seed=seed)))
    server = ReproServer(StoreSUT(load_network(split.bulk)),
                         ServerConfig(workers=workers))
    host, port = server.start()
    try:
        remote_report, remote_digest = _run(
            _config(persons, seed, partitions, remote=f"{host}:{port}"))
        stats = server.stats()
        replays = server.sut.store.replay_count
    finally:
        server.shutdown()

    recovery_p50, recovery_p95, recovery_digest_held, supervisor = \
        measure_recovery(split, shards)

    rows = _latency_rows(local_report, remote_report)
    rows.append(["TOTAL ops", local_report.operations, "", "",
                 "", ""])
    summary = [
        f"in-process: {local_report.operations} ops in "
        f"{local_report.wall_seconds:.2f}s "
        f"({local_report.throughput:.0f} op/s)",
        f"sharded x{shards}: {sharded_report.operations} ops in "
        f"{sharded_report.wall_seconds:.2f}s "
        f"({sharded_report.throughput:.0f} op/s) via "
        f"{sharded_report.sut_name}",
        f"remote:     {remote_report.operations} ops in "
        f"{remote_report.wall_seconds:.2f}s "
        f"({remote_report.throughput:.0f} op/s) via "
        f"{remote_report.sut_name}",
        f"server:     requests={stats['requests']} "
        f"executed={stats['executed']} busy={stats['rejected_busy']} "
        f"replays={replays}",
        f"recovery:   restart-to-first-read p50={recovery_p50}ms "
        f"p95={recovery_p95}ms over {supervisor['restarts']} kills "
        f"(digest {'held' if recovery_digest_held else 'DIVERGED'})",
        f"digest in-process: {local_digest}",
        f"digest sharded:    {sharded_digest}",
        f"digest remote:     {remote_digest}",
    ]
    checks = {
        "digests equal": local_digest == remote_digest,
        "sharded digest equal": local_digest == sharded_digest,
        "same operation count":
            local_report.operations == remote_report.operations
            == sharded_report.operations,
        "remote latencies measured": all(
            s.count > 0 and s.p99_ms > 0.0
            for s in remote_report.complex_stats.values()),
        "short walk ran over the wire": remote_report.short_reads > 0,
        "recovery digest held": recovery_digest_held,
        "recovery times measured": recovery_p50 > 0.0
            and recovery_p95 >= recovery_p50,
    }
    headline = {
        "persons": persons,
        "seed": seed,
        "partitions": partitions,
        "operations": local_report.operations,
        "single_ops_per_second": round(local_report.throughput, 1),
        "sharded": {
            "shards": shards,
            "ops_per_second": round(sharded_report.throughput, 1),
            "over_single": round(sharded_report.throughput
                                 / local_report.throughput, 2),
        },
        "remote_ops_per_second": round(remote_report.throughput, 1),
        "digests_equal": local_digest == sharded_digest == remote_digest,
        "recovery": {
            "restarts": supervisor["restarts"],
            "restart_to_first_read_p50_ms": recovery_p50,
            "restart_to_first_read_p95_ms": recovery_p95,
            "supervisor_p50_ms": supervisor.get("recovery_p50_ms"),
            "supervisor_p95_ms": supervisor.get("recovery_p95_ms"),
            "digest_held": recovery_digest_held,
        },
    }
    return rows, summary, checks, headline


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="in-process vs loopback-remote workload A/B")
    parser.add_argument("--persons", type=int, default=300)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--shards", type=int, default=2,
                        help="shard count for the sharded leg")
    parser.add_argument("--quick", action="store_true",
                        help="small network (the CI smoke size)")
    args = parser.parse_args(argv)
    persons = 120 if args.quick else args.persons

    rows, summary, checks, headline = run_ab(
        persons, args.seed, args.partitions, args.workers,
        shards=args.shards)

    headers = ["class", "count", "local mean ms", "local p99 ms",
               "remote mean ms", "remote p99 ms"]
    verdicts = [f"{'PASS' if ok else 'FAIL'}  {name}"
                for name, ok in checks.items()]
    emit_artifact("server_load", format_table(
        headers, rows,
        title=f"Server load A/B — {persons} persons, seed {args.seed}, "
              f"{args.partitions} partitions, {args.workers} workers")
        + "\n" + "\n".join(summary) + "\n" + "\n".join(verdicts))
    emit_headline("server_load", {
        "bench": "server_load",
        "cores": os.cpu_count() or 1,
        **headline,
        "checks": checks,
    })
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
