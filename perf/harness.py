"""Workloads, set-up, measured passes and the metrics computed from them.

One *invocation* (one ``run.py --workload W --seed S --seconds T``)
sets up the workload ``SETUPS`` times, keeps the last set-up's inputs,
and then plays whole *passes* of the operation stream — each on a
freshly deployed SUT, because the stream inserts — until ``T`` seconds
of driver wall time have been measured.

The dataset and its curated query parameters are part of a workload's
definition (as the scale factor and the substitution parameters are in
the paper): DATAGEN and the curator always run with
:data:`DATASET_SEED`.  The ``--seed`` argument drives what the paper
leaves to the run: the short-read random walks that follow every
complex read.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from repro.core.connector import InteractiveConnector
from repro.core.operation import ComplexRead, ShortRead, Update
from repro.core.sut import EngineSUT, StoreSUT
from repro.curation.curator import ParameterCurator
from repro.datagen.config import DatagenConfig
from repro.datagen.pipeline import generate
from repro.datagen.stats import FrequencyStatistics
from repro.datagen.update_stream import UpdateKind, split_network
from repro.driver.modes import ExecutionMode
from repro.driver.scheduler import DriverConfig, WorkloadDriver
from repro.engine.catalog import load_catalog
from repro.net import codec
from repro.net.client import RemoteConnector
from repro.shard import ShardedStoreSUT
from repro.store.loader import load_network
from repro.validation.canonical import comparable
from repro.validation.snapshot import (
    snapshot_catalog,
    snapshot_digest,
    snapshot_store,
)
from repro.workload.mix import QueryMix, build_mixed_stream
from repro.workload.operations import ReadOperation

import tracing

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(PERF_DIR, "out")

DATASET_SEED = 42
#: Full set-ups (generate → ready to play) per invocation; ``setup_s``
#: is their median.
SETUPS = 3
BINDINGS_PER_QUERY = 10
SHARDS = 2
SERVER_WORKERS = 2

LIGHT = frozenset({1, 2, 4, 7, 8, 10, 11, 12, 13})
HEAVY = frozenset({3, 5, 6, 9, 14})
COMPLEX = tuple(f"Q{i}" for i in range(1, 15))
SHORT = tuple(f"S{i}" for i in range(1, 8))
UPDATE = tuple(kind.name for kind in UpdateKind)
OP_CLASSES = COMPLEX + SHORT + UPDATE


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``store`` | ``engine`` | ``remote`` | ``sharded``
    sut: str
    persons: int
    #: ``store_reads``: every Q1–Q14 once per this many updates, and the
    #: updates themselves held back until the read phase is over.
    read_frequency: int | None = None


WORKLOADS = {w.name: w for w in (
    Workload("store_mix", "store", 300),
    Workload("engine_mix", "engine", 300),
    Workload("store_reads", "store", 300, read_frequency=60),
    Workload("remote_mix", "remote", 120),
    Workload("sharded_mix", "sharded", 120),
)}
SMOKE_PERSONS = 60


def workload(name: str, scale: str) -> Workload:
    chosen = WORKLOADS[name]
    if scale == "smoke":
        frequency = 200 if chosen.read_frequency else None
        chosen = Workload(chosen.name, chosen.sut, SMOKE_PERSONS,
                          frequency)
    return chosen


# -- /proc ------------------------------------------------------------------

_TICKS = os.sysconf("SC_CLK_TCK")


def child_cpu_seconds(pids: list[int]) -> float:
    """user+sys of the given processes (all their threads)."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])
    return total / _TICKS


def peak_rss_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- inputs -----------------------------------------------------------------

class Timers:
    """Named lists of measured seconds (the set-up layer metrics)."""

    def __init__(self) -> None:
        self.seconds: dict[str, list[float]] = {}

    def time(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.seconds.setdefault(name, []).append(
            time.perf_counter() - start)
        return result

    def median(self, name: str) -> float:
        values = self.seconds.get(name)
        return statistics.median(values) if values else 0.0


@dataclass
class Inputs:
    bulk: object
    #: What the driver plays.
    stream: list
    #: Every update of the split, in due-time order (the digest oracle
    #: replays these; ``store_reads`` applies them after its read phase).
    updates: list
    #: Whether the updates are held back out of ``stream``.
    read_only: bool


def make_inputs(w: Workload, seed: int, timers: Timers) -> Inputs:
    network = timers.time("datagen.generate_s", generate, DatagenConfig(
        num_persons=w.persons, seed=DATASET_SEED))
    split = timers.time("datagen.split_s", split_network, network)

    def curate():
        curator = ParameterCurator(
            network, FrequencyStatistics.of(network), seed=DATASET_SEED)
        return curator.curate(BINDINGS_PER_QUERY)

    params = timers.time("curation.curate_s", curate)
    mix = QueryMix({q: w.read_frequency for q in range(1, 15)}
                   if w.read_frequency else None)
    stream = timers.time("workload.build_stream_s", build_mixed_stream,
                         split.updates, params, mix, walk_seed=seed)
    if w.read_frequency:
        stream = [op for op in stream if isinstance(op, ReadOperation)]
    return Inputs(split.bulk, stream, split.updates,
                  read_only=bool(w.read_frequency))


# -- deployments ------------------------------------------------------------

#: Pids of the server and shard-worker processes now alive, for the
#: hard timeout to reap.
_live_children: set[int] = set()


#: SUT kind → the layer ``sut.execute`` belongs to, in traces and
#: metric names.
LAYERS = {"store": "store", "engine": "engine", "remote": "net",
          "sharded": "shard"}


class Deployment:
    """A SUT that is ready to play, and the processes it owns."""

    def __init__(self, sut, pids: list[int]) -> None:
        self.sut = sut
        self.pids = pids
        _live_children.update(pids)

    def digest(self) -> str:
        return self.sut.digest()

    def children_rss_mb(self) -> float:
        """Summed peak RSS of the owned processes (read before close)."""
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def close(self) -> None:
        self.sut.close()
        _live_children.difference_update(self.pids)


class StoreDeployment(Deployment):
    def digest(self) -> str:
        return snapshot_digest(snapshot_store(self.sut.store))


class EngineDeployment(Deployment):
    def digest(self) -> str:
        return snapshot_digest(snapshot_catalog(self.sut.catalog))


class RemoteDeployment(Deployment):
    def __init__(self, sut, process: subprocess.Popen) -> None:
        super().__init__(sut, [process.pid])
        self.process = process

    def close(self) -> None:
        try:
            super().close()
        finally:
            stop_process(self.process)


def stop_process(process: subprocess.Popen) -> None:
    """SIGTERM (the server drains), then SIGKILL; always waits."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()
    if process.stdout is not None:
        process.stdout.close()


def _serve(w: Workload) -> RemoteDeployment:
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--sut", "store",
         "--workers", str(SERVER_WORKERS), "--persons", str(w.persons),
         "--seed", str(DATASET_SEED), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=ROOT)
    _live_children.add(process.pid)
    try:
        seen = []
        for line in process.stdout:
            seen.append(line)
            match = re.match(r"serving .* on ([\d.]+):(\d+) ", line)
            if match:
                break
        else:
            raise RuntimeError("server exited before listening:\n"
                               + "".join(seen))
        client = RemoteConnector(match.group(1), int(match.group(2)),
                                 pool_size=1)
        client.ping()
        return RemoteDeployment(client, process)
    except BaseException:
        stop_process(process)
        _live_children.discard(process.pid)
        raise


def deploy(w: Workload, inputs: Inputs, timers: Timers) -> Deployment:
    if w.sut == "store":
        return StoreDeployment(StoreSUT(timers.time(
            "store.load_s", load_network, inputs.bulk)), [])
    if w.sut == "engine":
        return EngineDeployment(EngineSUT(timers.time(
            "engine.load_s", load_catalog, inputs.bulk)), [])
    if w.sut == "sharded":
        sut = timers.time("shard.spawn_s", ShardedStoreSUT.for_network,
                          inputs.bulk, SHARDS)
        return Deployment(
            sut, [handle.process.pid for handle in sut.router.handles])
    if w.sut == "remote":
        return timers.time("net.server_ready_s", _serve, w)
    raise ValueError(f"unknown SUT kind {w.sut!r}")


@contextlib.contextmanager
def deployed(w: Workload, inputs: Inputs, timers: Timers):
    """A fresh deployment, closed (children reaped) on the way out."""
    deployment = deploy(w, inputs, timers)
    try:
        yield deployment
    finally:
        deployment.close()
        del deployment
        # Peak RSS is one dataset and one SUT, not however many dead
        # SUTs the cycle collector had not got to yet.
        gc.collect()


def expected_digest(inputs: Inputs) -> str:
    """Final state of an in-process store replay of the same updates."""
    sut = StoreSUT(load_network(inputs.bulk))
    for update in inputs.updates:
        sut.execute(Update(update))
    return snapshot_digest(snapshot_store(sut.store))


# -- one pass ---------------------------------------------------------------

@dataclass
class Pass:
    wall: float
    #: Scheduled stream operations (fixed per seed).
    scheduled: int
    #: Driver start → first operation, then each operation's start →
    #: the next one's start (the last one's → driver end); sums to
    #: ``wall``.
    periods: list[float]
    completed: int
    cpu_self: float
    cpu_children: float
    #: op class → ``sut.execute`` latencies in seconds, walk excluded
    #: for the complex reads (short reads are their own classes).
    samples: dict[str, list[float]]
    #: Updates the stream held back (``store_reads``): attempted, done.
    tail: tuple[int, int] = (0, 0)
    spans: list = field(default_factory=list)
    rpc_payloads: list = field(default_factory=list)
    #: (operation, result) of every ``sut.execute`` (traced remote runs
    #: replay the codec over these; ``store_reads`` checks them).
    exchanges: list = field(default_factory=list)
    error: str | None = None


class NoopConnector:
    """The paper's Table 5 dummy connector, without the sleep."""

    supports_reads = True
    is_remote = False

    def execute(self, operation) -> None:
        pass

    def close(self) -> None:
        pass


def driver_config() -> DriverConfig:
    """One closed-loop client: the next operation is sent when the
    previous one (and its short-read walk) has completed."""
    return DriverConfig(num_partitions=1, mode=ExecutionMode.SEQUENTIAL)


def _time_execute(sut, samples: dict[str, list[float]],
                  exchanges: list | None) -> None:
    """The untraced instrumentation: two clock reads per operation."""
    inner, clock = sut.execute, time.perf_counter

    def execute(op):
        start = clock()
        result = inner(op)
        samples[op.op_class].append(clock() - start)
        if exchanges is not None:
            exchanges.append((op, result))
        return result

    sut.execute = execute


def _record_starts(connector) -> list[float]:
    """When the driver handed each scheduled operation over."""
    starts: list[float] = []
    inner, clock = connector.execute, time.perf_counter

    def execute(operation):
        starts.append(clock())
        return inner(operation)

    connector.execute = execute
    return starts


def play(w: Workload, inputs: Inputs, deployment: Deployment, seed: int,
         *, traced: bool = False, keep_exchanges: bool = False) -> Pass:
    """Play the stream once on a fresh deployment."""
    sut = deployment.sut
    samples: dict[str, list[float]] = {name: [] for name in OP_CLASSES}
    exchanges: list | None = [] if keep_exchanges else None
    _time_execute(sut, samples, exchanges)
    connector = InteractiveConnector(sut, seed=seed)
    starts = _record_starts(connector)
    driver = WorkloadDriver(connector, driver_config())
    run = driver.run
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.instrument_sut(sut, LAYERS[w.sut])
        if w.sut == "sharded":
            tracer.instrument_router(sut.router)
        tracer.instrument_connector(connector)
        run = tracer.root(driver.run, "driver.run", "driver")
    scheduled = len(inputs.stream)
    error = None
    gc.collect()
    cpu_children = child_cpu_seconds(deployment.pids)
    cpu_self = time.process_time()
    start = time.perf_counter()
    try:
        run(inputs.stream)
    except Exception as exc:  # a failed op aborts the fail-fast driver
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    wall = end - start
    cpu_self = time.process_time() - cpu_self
    cpu_children = child_cpu_seconds(deployment.pids) - cpu_children
    completed = sum(len(samples[name]) for name in COMPLEX + UPDATE)
    marks = [start, *starts, end]
    tail = (0, 0)
    if inputs.read_only and error is None:
        tail, error = _apply_tail(inputs, connector, tracer)
    periods = [later - earlier for earlier, later in zip(marks, marks[1:])]
    result = Pass(wall, scheduled, periods, completed, cpu_self,
                  cpu_children, samples, tail, exchanges=exchanges or [],
                  error=error)
    if tracer is not None:
        # Copies: the proxies stay installed, and the digest check that
        # follows would otherwise add its own RPCs to the pass.
        result.spans = list(tracer.spans)
        result.rpc_payloads = list(tracer.rpc_payloads)
    return result


def _apply_tail(inputs: Inputs, connector, tracer):
    """``store_reads``: the held-back updates, after the read phase.

    Returns ``((attempted, done), error)``.
    """
    def apply():
        done = 0
        try:
            for update in inputs.updates:
                connector.execute(update)
                done += 1
        except Exception as exc:
            return done, f"{type(exc).__name__}: {exc}"
        return done, None

    if tracer is not None:
        apply = tracer.root(apply, "harness.tail", "harness")
    done, error = apply()
    return (len(inputs.updates), done), error


def noop_driver_seconds(inputs: Inputs) -> float:
    driver = WorkloadDriver(NoopConnector(), driver_config())
    gc.collect()
    start = time.perf_counter()
    driver.run(inputs.stream)
    return time.perf_counter() - start


# -- correctness ------------------------------------------------------------

def reads_match_engine(inputs: Inputs, exchanges: list) -> bool:
    """``store_reads``: every distinct read equals the engine's answer,
    and repeats of a read on the static store equal each other."""
    engine = EngineSUT(load_catalog(inputs.bulk))
    answers: dict = {}
    for op, result in exchanges:
        if not isinstance(op, (ComplexRead, ShortRead)):
            continue
        target = op.params if isinstance(op, ComplexRead) else op.entity
        key = (op.op_class, repr(target))
        mine = comparable(op.query_id, result.value)
        if key not in answers:
            reference = ComplexRead(op.query_id, op.params) \
                if isinstance(op, ComplexRead) else op
            answers[key] = comparable(
                op.query_id, engine.execute(reference).value)
        if answers[key] != mine:
            return False
    return True


# -- metrics ----------------------------------------------------------------

def percentile(values: list[float], share: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tier(query_ids) -> tuple[str, ...]:
    return tuple(f"Q{i}" for i in sorted(query_ids))


#: Latency metric → (op classes, percentile, scale).
LATENCY_METRICS = {
    "complex_light_p50_ms": (tier(LIGHT), 0.50, 1e3),
    "complex_light_p99_ms": (tier(LIGHT), 0.99, 1e3),
    "complex_heavy_p50_ms": (tier(HEAVY), 0.50, 1e3),
    "complex_heavy_p80_ms": (tier(HEAVY), 0.80, 1e3),
    "update_p50_us": (UPDATE, 0.50, 1e6),
    "update_p99_us": (UPDATE, 0.99, 1e6),
}


def quietest(passes: list[Pass]) -> dict[str, list[float]]:
    """Op class → each operation's fastest latency over the passes.

    Every pass replays the same operations in the same order, so the
    i-th sample of a class is the same operation in every pass; what
    differs between passes is the machine, and its noise only ever
    adds.  Taking each operation's minimum leaves the latency
    distribution of the operations themselves.
    """
    return {name: [min(column) for column in
                   zip(*(one.samples[name] for one in passes))]
            for name in OP_CLASSES}


def quiet_wall(passes: list[Pass]) -> float:
    """Driver wall of the quietest replay: every period at its shortest."""
    return sum(min(column) for column in
               zip(*(one.periods for one in passes)))


def short_p50_us(samples: dict[str, list[float]]) -> float:
    """Geometric mean of the seven short-read types' median latencies.

    Which entities a walk visits is the seed's choice, and S2 costs up
    to forty times what S1 does: a median over the pooled samples moves
    with the mix of types the seed drew, and an arithmetic mean of the
    medians is S2's median (which depends on whose messages were read)
    in disguise.  In the geometric mean a given relative change in any
    one type moves the metric by the same amount.
    """
    medians = [percentile(samples[name], 0.50)
               for name in SHORT if samples[name]]
    return math.exp(sum(map(math.log, medians)) / len(medians)) * 1e6


def short_p99_us(samples: dict[str, list[float]]) -> float:
    """Demoted from end-to-end: a pass has a few hundred short reads of
    seed-chosen types, too few for a p99 that holds a bound."""
    return percentile([value for name in SHORT
                       for value in samples[name]], 0.99) * 1e6


def end_to_end(passes: list[Pass], setup_seconds: list[float],
               rss_mb: float) -> tuple[dict[str, float], dict[str, int]]:
    """The end-to-end metric values and the sample count behind each.

    Latencies are percentiles over :func:`quietest`, so their sample
    count is that of one pass.  Throughput is that of the quietest
    replay, by the same argument: the driver wall is the sum of the
    operations' periods, and each period is taken from the pass in
    which it was shortest.
    """
    samples = quietest(passes)
    values = {
        "setup_s": statistics.median(setup_seconds),
        "ops_per_s": passes[0].scheduled / quiet_wall(passes),
        "short_p50_us": short_p50_us(samples),
        "rss_mb": rss_mb,
    }
    counts = {"setup_s": len(setup_seconds), "rss_mb": 1,
              "ops_per_s": passes[0].scheduled,
              "short_p50_us": sum(len(samples[name]) for name in SHORT)}
    for name, (classes, share, scale) in LATENCY_METRICS.items():
        pooled = [value for op_class in classes
                  for value in samples[op_class]]
        values[name] = percentile(pooled, share) * scale
        counts[name] = len(pooled)
    return values, counts


def exact_counts(one: Pass) -> dict[str, int]:
    """Per-pass counts that repeat exactly for a seed."""
    def count(classes) -> int:
        return sum(len(one.samples[name]) for name in classes)

    return {"scheduled": one.scheduled,
            "complex_light": count(tier(LIGHT)),
            "complex_heavy": count(tier(HEAVY)),
            "update": count(UPDATE), "short": count(SHORT)}


def best_cpu_ms_per_op(passes: list[Pass]) -> float:
    """Demoted from end-to-end: /proc CPU ticks cannot be split by
    operation, so this is the best whole pass and moves with the
    machine's slow minutes; on one core it also repeats ``ops_per_s``."""
    return min((p.cpu_self + p.cpu_children) * 1e3 / p.scheduled
               for p in passes)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _kind(name: str) -> str:
    """Span/op class name → ``update`` | ``short`` | ``complex_*``."""
    op_class = name.rsplit(".", 1)[-1]
    if op_class.startswith("S"):
        return "short"
    if op_class.startswith("Q"):
        return "complex_light" if int(op_class[1:]) in LIGHT \
            else "complex_heavy"
    return "update"


def layer_metrics_of_pass(w: Workload, one: Pass,
                          ) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer numbers one traced pass yields (no set-up, no CPU), and
    each layer's self time as a share of the traced driver wall."""
    layer = LAYERS[w.sut]
    root = next(s for s in one.spans if s.name == "driver.run")
    spans = tracing.descendants_of(one.spans, root.id)
    own = tracing.self_times(spans)
    ops = one.scheduled
    by_layer = tracing.layer_self_times(spans, own)
    shares = {name: seconds / root.duration
              for name, seconds in by_layer.items()}
    metrics = {
        "driver.self_us_per_op": by_layer.get("driver", 0.0) * 1e6 / ops,
        "core.connector_self_us_per_op":
            by_layer.get("core", 0.0) * 1e6 / ops,
    }
    # store/engine: mean of sut.execute per class, from every traced
    # span of that layer (the store_reads tail included).
    executes: dict[str, list[float]] = {}
    for span in one.spans:
        if span.layer == layer and ":" not in span.name:
            executes.setdefault(span.name.split(".")[1], []).append(
                span.duration)
    for sut_layer in ("store", "engine"):
        for name in OP_CLASSES:
            unit, scale = ("mean_ms", 1e3) if name.startswith("Q") \
                else ("mean_us", 1e6)
            metrics[f"{sut_layer}.{name}.{unit}"] = \
                _mean(executes.get(name, [])) * scale \
                if layer == sut_layer else 0.0
    by_kind: dict[str, list[float]] = {}
    for name, durations in executes.items():
        by_kind.setdefault(_kind(name).split("_")[0], []).extend(durations)
    net = layer == "net"
    metrics["net.client.update_mean_us"] = \
        _mean(by_kind.get("update", [])) * 1e6 if net else 0.0
    metrics["net.client.short_mean_us"] = \
        _mean(by_kind.get("short", [])) * 1e6 if net else 0.0
    metrics["net.client.complex_mean_ms"] = \
        _mean(by_kind.get("complex", [])) * 1e3 if net else 0.0
    metrics.update(_shard_metrics(spans, own, one, ops)
                   if layer == "shard" else dict.fromkeys(SHARD_NAMES, 0.0))
    return metrics, shares


SHARD_NAMES = (
    "shard.rpcs_per_op.update", "shard.rpcs_per_op.short",
    "shard.rpcs_per_op.complex_light", "shard.rpcs_per_op.complex_heavy",
    "shard.rpc_mean_us", "shard.router_self_us_per_op",
    "shard.request_bytes_per_op", "shard.response_bytes_per_op",
)


def _shard_metrics(spans, own, one: Pass, ops: int) -> dict[str, float]:
    from multiprocessing.reduction import ForkingPickler

    by_id = {span.id: span for span in spans}
    executes = {}      # sut.execute span id → kind
    rpcs = []
    for span in spans:
        if span.layer != "shard":
            continue
        if span.name.startswith("shard.rpc:"):
            rpcs.append(span)
        elif not span.name.startswith("shard.router."):
            executes[span.id] = _kind(span.name)
    rpc_counts = dict.fromkeys(
        ("update", "short", "complex_light", "complex_heavy"), 0)
    for rpc in rpcs:
        ancestor = rpc
        while ancestor.id not in executes:
            ancestor = by_id[ancestor.parent]
        rpc_counts[executes[ancestor.id]] += 1
    op_counts = dict.fromkeys(rpc_counts, 0)
    for kind in executes.values():
        op_counts[kind] += 1
    request_bytes = response_bytes = 0
    for sequence, (method, args, result) in enumerate(one.rpc_payloads):
        request_bytes += len(ForkingPickler.dumps((sequence, method, args)))
        response_bytes += len(ForkingPickler.dumps((sequence, "ok", result)))
    metrics = {f"shard.rpcs_per_op.{kind}":
               rpc_counts[kind] / op_counts[kind] if op_counts[kind] else 0.0
               for kind in rpc_counts}
    metrics["shard.rpc_mean_us"] = \
        _mean([rpc.duration for rpc in rpcs]) * 1e6
    metrics["shard.router_self_us_per_op"] = \
        sum(own[span_id] for span_id in executes) * 1e6 / ops
    metrics["shard.request_bytes_per_op"] = request_bytes / ops
    metrics["shard.response_bytes_per_op"] = response_bytes / ops
    return metrics


CODEC_NAMES = (
    "net.codec.encode_request_us", "net.codec.decode_request_us",
    "net.codec.encode_response_us", "net.codec.decode_response_us",
    "net.codec.request_bytes", "net.codec.response_bytes",
)


def codec_replay(exchanges: list) -> dict[str, float]:
    """Encode and decode the run's own requests and responses again.

    Per-message means; the byte counts are per message too and repeat
    exactly for a seed.
    """
    clock = time.perf_counter
    seconds = dict.fromkeys(CODEC_NAMES[:4], 0.0)
    request_bytes = response_bytes = 0
    reader = codec.FrameReader()
    for index, (op, result) in enumerate(exchanges, start=1):
        start = clock()
        frame = codec.encode_frame({
            "v": codec.PROTOCOL_VERSION, "kind": "execute", "id": index,
            "op": codec.encode_operation(op)})
        encoded = clock()
        reader.feed(frame)
        codec.decode_operation(reader.next()["op"])
        seconds["net.codec.encode_request_us"] += encoded - start
        seconds["net.codec.decode_request_us"] += clock() - encoded
        request_bytes += len(frame)
        start = clock()
        frame = codec.encode_frame({
            "v": codec.PROTOCOL_VERSION, "id": index, "kind": "result",
            "result": codec.encode_result(result)})
        encoded = clock()
        reader.feed(frame)
        codec.decode_result(reader.next()["result"])
        seconds["net.codec.encode_response_us"] += encoded - start
        seconds["net.codec.decode_response_us"] += clock() - encoded
        response_bytes += len(frame)
    count = max(len(exchanges), 1)
    metrics = {name: total * 1e6 / count
               for name, total in seconds.items()}
    metrics["net.codec.request_bytes"] = request_bytes / count
    metrics["net.codec.response_bytes"] = response_bytes / count
    return metrics


def ping_rtt_us(client: RemoteConnector, count: int = 200) -> float:
    samples = []
    for __ in range(count):
        start = time.perf_counter()
        client.ping()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


# -- hard timeout -----------------------------------------------------------

def arm_hard_timeout(seconds: int) -> None:
    """Reap every live child and exit 3 if the invocation overstays.

    Covers the hangs a ``finally`` never reaches: a server that never
    prints its port, a driver thread wedged on a dead worker.
    """
    def expire(signum, frame):
        sys.stderr.write(f"perf: hard timeout after {seconds}s\n")
        sys.stderr.flush()
        for pid in list(_live_children):
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except OSError:
                pass  # already gone, or reaped by its owner
        os._exit(3)

    signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
