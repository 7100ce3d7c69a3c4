"""One benchmark run: set-up, warm-up, measured phase, output check, metrics.

A run with ``trace=False`` measures for a fixed number of seconds and
reports the end-to-end metrics.  A run with ``trace=True`` runs a fixed
number of operations untraced and then as many again traced, and reports
the per-layer metrics; fixed counts make every per-layer count repeat
exactly for a seed.  End-to-end numbers never come from a traced phase.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

import repro.frontend.cypher as cypher
from repro import GES, EngineConfig
from repro.durability import DurabilityManager
from repro.engine.registry import ModuleRegistry, default_registry
from repro.engine.service import GraphEngineService
from repro.errors import GesError
from repro.exec.base import ExecStats
from repro.frontend.cypher import Binder
from repro.ldbc import bags_equal
from repro.ldbc.queries import REGISTRY
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import REGISTRY as METRICS
from repro.parallel import (
    ParallelCoordinator,
    SnapshotExporter,
    WorkerPool,
    shutdown_shared_pools,
    system_segment_names,
)
from repro.storage.adjacency import AdjacencyList
from repro.storage.catalog import AdjacencyKey, Direction
from repro.storage.graph import GraphReadView
from repro.txn.transaction import Transaction

import prepare
from hostprobe import HostNormalizer
from sampling import mix_weights, weighted_mean, weighted_percentile
from spans import ROOT, Tracer, patched
from workloads import Op, Workload, adhoc_schedule, first_query_text, ldbc_schedule

HERE = Path(__file__).resolve().parent

#: Engine opens timed per run; ``setup_s`` is their median.
SETUPS = 7
#: Operations run before anything is measured: fills the plan cache and
#: the probe window, and on snb-mixed commits the first writes.
WARMUP_OPS = 1000
#: Operations of each phase of a traced run.
TRACE_OPS = 4000
#: Schedule operations per measured second; a schedule that runs out ends
#: the measured phase early.
SCHEDULE_OPS_PER_S = 2000
#: Every this-many-th read of a measured phase is replayed by the check.
CHECK_EVERY = 40
CHECK_MAX = 200

#: Percentiles behind the latency metrics.
P_MID = 50
P_TAIL = 95

_CLOCK = time.perf_counter


# -- per-operation logs ----------------------------------------------------------


@dataclass
class ExecTotals:
    """``ExecStats`` of one phase's operations, summed."""

    op_s: dict[str, float] = field(default_factory=dict)
    peak_bytes: list[int] = field(default_factory=list)
    defactor: int = 0
    degraded: int = 0
    flat_tuples: int = 0
    ftree_slots: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def add(self, stats: ExecStats, factor: float) -> None:
        for name, seconds in stats.op_times.items():
            self.op_s[name] = self.op_s.get(name, 0.0) + seconds * factor
        self.peak_bytes.append(stats.peak_intermediate_bytes)
        self.defactor += stats.defactor_count
        self.degraded += stats.degrade_count
        self.flat_tuples += stats.flat_tuples
        self.ftree_slots += stats.ftree_slots
        self.cache_hits += stats.plan_cache_hits
        self.cache_misses += stats.plan_cache_misses


@dataclass
class PhaseLog:
    """What one phase ran and how long each operation took."""

    names: list[str] = field(default_factory=list)
    categories: list[str] = field(default_factory=list)
    raw_s: list[float] = field(default_factory=list)
    norm_s: list[float] = field(default_factory=list)
    errors: dict[str, int] = field(default_factory=dict)
    checked: list[tuple[Op, list]] = field(default_factory=list)
    updates: list[Op] = field(default_factory=list)
    execs: ExecTotals = field(default_factory=ExecTotals)
    wall_s: float = 0.0

    @property
    def ops(self) -> int:
        return len(self.raw_s)

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def samples(
        self, category: str | None = None, normalized: bool = True
    ) -> tuple[list[str], list[float]]:
        """Query names and latencies of one class (all with ``None``)."""
        values = self.norm_s if normalized else self.raw_s
        picked = [
            (n, v)
            for n, v, c in zip(self.names, values, self.categories)
            if category is None or c == category
        ]
        return [n for n, _ in picked], [v for _, v in picked]

    def throughput(self, shares: Mapping[str, float], normalized: bool = True) -> float:
        """Operations per second of service time of the spec mix (one
        client, closed loop): the reciprocal of the mix-weighted mean."""
        names, values = self.samples(normalized=normalized)
        return 1.0 / weighted_mean(values, mix_weights(names, shares))

    def class_latency(
        self,
        category: str,
        shares: Mapping[str, float],
        pct: float,
        normalized: bool = True,
    ) -> float:
        """Mix-weighted ``pct`` percentile of one class, in seconds."""
        names, values = self.samples(category, normalized)
        return weighted_percentile(values, mix_weights(names, shares), pct)


def run_phase(
    engine: GES,
    ops: list[Op],
    normalizer: HostNormalizer,
    seconds: float | None = None,
    tracer: Tracer | None = None,
    check_every: int | None = None,
) -> PhaseLog:
    """Send ``ops`` one at a time; stop early after ``seconds`` if given.

    A typed ``GesError`` is counted against the operation; any other
    exception means the run is broken and propagates.
    """
    log = PhaseLog()
    queries: Mapping[str, Callable[..., list]] = {
        name: (tracer.wrap("ldbc.query", d.fn) if tracer is not None else d.fn)
        for name, d in REGISTRY.items()
    }
    started = _CLOCK()
    for op in ops:
        if seconds is not None and _CLOCK() - started >= seconds:
            break
        stats = ExecStats()
        root = tracer.begin_op() if tracer is not None else None
        rows: list | None = None
        error: str | None = None
        normalizer.in_flight = True
        op_started = _CLOCK()
        try:
            rows = op.run(engine, stats, queries)
        except GesError as exc:
            error = type(exc).__name__
        elapsed = _CLOCK() - op_started
        normalizer.in_flight = False
        factor = normalizer.factor
        if tracer is not None:
            tracer.end_op(root, elapsed, factor)
            log.execs.add(stats, factor)
        log.names.append(op.name)
        log.categories.append(op.category)
        log.raw_s.append(elapsed)
        log.norm_s.append(elapsed * factor)
        if error is not None:
            log.errors[f"{op.name}:{error}"] = log.errors.get(f"{op.name}:{error}", 0) + 1
        elif not op.reads:
            log.updates.append(op)
        elif (
            check_every is not None
            and op.index % check_every == 0
            and len(log.checked) < CHECK_MAX
        ):
            log.checked.append((op, rows))
        normalizer.account(elapsed)
    log.wall_s = _CLOCK() - started
    return log


# -- set-up --------------------------------------------------------------------


def close_engine(engine: GES) -> None:
    engine.close()
    shutdown_shared_pools()


def _child_pids() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Field 4 is the parent pid; the command name before it may hold spaces.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_child_processes() -> list[int]:
    """Stop every process this one started and wait for each to end.

    Pool workers end with ``close_engine``.  Creating a shared-memory
    segment also starts multiprocessing's resource tracker, which would
    outlive the benchmark by seconds; it is stopped and reaped here.  Any
    other child still alive is a leak: it is killed, reaped and returned.
    """
    resource_tracker._resource_tracker._stop()
    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
    stray = _child_pids()
    for pid in stray:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass
    return stray


def time_setups(
    workload: Workload,
    files: Path,
    registry: ModuleRegistry | None,
    normalizer: HostNormalizer,
    setups: int,
) -> tuple[GES, list[float], list[float]]:
    """Open the engine from files ``setups`` times, each until its first
    answer; returns the last engine and the raw and normalized seconds."""
    raw: list[float] = []
    norm: list[float] = []
    engine: GES | None = None
    text = first_query_text()
    for _ in range(setups):
        if engine is not None:
            close_engine(engine)
            engine = None
        gc.collect()
        normalizer.warm(3)
        started = _CLOCK()
        engine = workload.open_engine(files, registry)
        engine.execute(text)
        elapsed = _CLOCK() - started
        raw.append(elapsed)
        norm.append(elapsed * normalizer.factor)
    assert engine is not None
    return engine, raw, norm


_SPAN_OF_COMPONENT = {
    ("frontend", "parser"): "frontend.parse",
    ("execution", "optimizer"): "plan.optimize",
    ("execution", "executor"): "exec.executor",
}


def timed_registry(tracer: Tracer) -> ModuleRegistry:
    """The default modules, with parser, optimizer and executor timed."""
    base = default_registry()
    registry = ModuleRegistry()
    for slot, names in base.describe().items():
        layer, component = slot.split(".")
        span = _SPAN_OF_COMPONENT.get((layer, component))
        for name in names:
            module = base.resolve(layer, component, name)
            registry.register(
                layer, component, name, tracer.wrap(span, module) if span else module
            )
    return registry


def trace_targets(tracer: Tracer) -> list[tuple[Any, ...]]:
    """The public entry points wrapped during a traced phase."""

    def count_worker_time(try_execute: Callable[..., Any]) -> Callable[..., Any]:
        # Operator time the pool merges into op_times, to split the pooled
        # call into worker time and dispatch overhead.
        def counted(self, query, physical, view, params, stats):
            before = sum(stats.op_times.values())
            try:
                return try_execute(self, query, physical, view, params, stats)
            finally:
                tracer.add_value(
                    "parallel.worker_op_s", sum(stats.op_times.values()) - before
                )

        return counted

    return [
        (GraphEngineService, "execute", "engine.execute"),
        (GraphEngineService, "plan", "engine.plan"),
        (GraphEngineService, "read_view", "storage.read_view"),
        (cypher, "parse_cypher", "frontend.parse"),
        (Binder, "bind", "frontend.bind"),
        (AdjacencyList, "neighbors", "storage.neighbors"),
        (AdjacencyList, "neighbor_slots", "storage.neighbors"),
        (AdjacencyList, "meta_for", "storage.meta_for"),
        (GraphReadView, "gather_properties", "storage.gather"),
        (GraphReadView, "gather_properties_with_validity", "storage.gather"),
        (Transaction, "commit", "txn.commit"),
        (DurabilityManager, "log_commit", "durability.log_commit"),
        (ParallelCoordinator, "try_execute", "parallel.try_execute", count_worker_time),
        (WorkerPool, "run", "parallel.pool_run"),
        (WorkerPool, "run_many", "parallel.pool_run"),
        (SnapshotExporter, "acquire", "parallel.shm_acquire"),
        (FlightRecorder, "record", "obs.flightrec"),
    ]


# -- output check --------------------------------------------------------------------


@dataclass
class CheckReport:
    replayed: int = 0
    mismatches: list[str] = field(default_factory=list)
    updates_checked: int = 0
    updates_missing: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches and not self.updates_missing


def check_outputs(engine: GES, samples: list[tuple[Op, list]], replay: bool) -> CheckReport:
    """Replay sampled reads on the flat GES variant over the measured
    engine's own read view and compare bags.

    With ``replay`` the measured engine answers the sample again on its
    final view (reads taken before later writes saw an older view);
    otherwise the rows it returned while measured are compared.
    """
    reference = GES(engine.store, EngineConfig.ges())
    reference.txn_manager = engine.txn_manager
    report = CheckReport()
    plain = {name: d.fn for name, d in REGISTRY.items()}
    for op, rows in samples:
        expected = op.run(reference, ExecStats(), plain)
        actual = op.run(engine, ExecStats(), plain) if replay else rows
        report.replayed += 1
        if not bags_equal(actual, expected):
            report.mismatches.append(f"{op.name}#{op.index}")
    return report


_IU_VERTEX = {"IU1": ("Person", "personId"), "IU4": ("Forum", "forumId"),
              "IU6": ("Message", "postId"), "IU7": ("Message", "commentId")}
_IU_EDGE = {
    "IU2": (("Person", "personId"), "LIKES", ("Message", "messageId")),
    "IU3": (("Person", "personId"), "LIKES", ("Message", "messageId")),
    "IU5": (("Forum", "forumId"), "HAS_MEMBER", ("Person", "personId")),
    "IU8": (("Person", "person1Id"), "KNOWS", ("Person", "person2Id")),
}


def check_updates(engine: GES, updates: list[Op], report: CheckReport) -> None:
    """Every acknowledged insert is visible in the engine's final view."""
    view = engine.read_view()
    for op in updates:
        report.updates_checked += 1
        params = op.params or {}
        if op.name in _IU_VERTEX:
            label, key = _IU_VERTEX[op.name]
            visible = view.vertex_by_key(label, int(params[key])) is not None
        else:
            (src_label, src_key), edge, (dst_label, dst_key) = _IU_EDGE[op.name]
            src = view.vertex_by_key(src_label, int(params[src_key]))
            dst = view.vertex_by_key(dst_label, int(params[dst_key]))
            key = AdjacencyKey(src_label, edge, dst_label, Direction.OUT)
            visible = (
                src is not None
                and dst is not None
                and dst in view.neighbors(key, src).tolist()
            )
        if not visible:
            report.updates_missing.append(f"{op.name}#{op.index}")


# -- the run -----------------------------------------------------------------------


def _vm_hwm_mb(pid: int | str) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def peak_rss_mb(engine: GES) -> float:
    """This process's peak RSS plus that of every live pool worker."""
    total = _vm_hwm_mb("self")
    if engine.parallel is not None:
        for pid in engine.parallel.pool.worker_pids():
            total += _vm_hwm_mb(pid)
    return total


@dataclass
class RunResult:
    workload: str
    seed: int
    setup_raw_s: list[float]
    setup_norm_s: list[float]
    phases: dict[str, PhaseLog]
    check: CheckReport
    leaked_segments: list[str]
    normalizer: HostNormalizer
    peak_rss_mb: float
    shares: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None
    route: dict[str, int] = field(default_factory=dict)
    wal: dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(log.ops for log in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(log.failed for log in self.phases.values())

    @property
    def failed_by_kind(self) -> dict[str, int]:
        kinds: dict[str, int] = {}
        for log in self.phases.values():
            for kind, count in log.errors.items():
                kinds[kind] = kinds.get(kind, 0) + count
        return kinds

    @property
    def correct(self) -> bool:
        return self.check.passed and not self.leaked_segments


def _route_counts(engine: GES) -> dict[str, int]:
    parallel = engine.parallel
    if parallel is None:
        return {"whole": 0, "scatter": 0, "fallback": 0}
    return {
        "whole": parallel.whole_queries,
        "scatter": parallel.scatter_queries,
        "fallback": parallel.fallbacks,
    }


def _wal_counts() -> dict[str, float]:
    return {
        name: METRICS.counter(f"ges_wal_{name}_total").value
        for name in ("bytes", "fsyncs")
    }


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    scale: str = "SF100",
    setups: int = SETUPS,
    warmup_ops: int = WARMUP_OPS,
    trace_ops: int = TRACE_OPS,
) -> RunResult:
    work = root / ".snbbench_work" / f"{workload.name}-{os.getpid()}"
    shm_before = set(system_segment_names())
    engine: GES | None = None
    try:
        if work.exists():
            shutil.rmtree(work)
        command = [sys.executable, "-B", str(HERE / "prepare.py"), str(work), "--scale", scale]
        if workload.durable:
            command.append("--durable")
        subprocess.run(command, check=True, stdout=sys.stderr, timeout=600)
        info = prepare.read_info(work)

        normalizer = HostNormalizer()
        normalizer.warm()
        tracer = Tracer() if trace else None
        registry = timed_registry(tracer) if tracer is not None else None
        engine, setup_raw, setup_norm = time_setups(
            workload, work, registry, normalizer, setups
        )
        length = warmup_ops + int(max(2 * trace_ops, seconds * SCHEDULE_OPS_PER_S))
        if workload.adhoc:
            schedule = adhoc_schedule(engine, info, seed, length)
        else:
            schedule = ldbc_schedule(engine, info, seed, workload.updates, length)

        gc.collect()
        phases = {"warmup": run_phase(engine, schedule[:warmup_ops], normalizer)}
        rest = schedule[warmup_ops:]
        route: dict[str, int] = {}
        wal: dict[str, float] = {}
        if tracer is None:
            phases["timed"] = run_phase(
                engine, rest, normalizer, seconds=seconds, check_every=CHECK_EVERY
            )
        else:
            phases["untraced"] = run_phase(
                engine, rest[:trace_ops], normalizer, check_every=CHECK_EVERY
            )
            route_before, wal_before = _route_counts(engine), _wal_counts()
            with patched(tracer, trace_targets(tracer)):
                phases["traced"] = run_phase(
                    engine, rest[trace_ops : 2 * trace_ops], normalizer, tracer=tracer
                )
            route = {k: v - route_before[k] for k, v in _route_counts(engine).items()}
            wal = {k: v - wal_before[k] for k, v in _wal_counts().items()}

        samples = [s for log in phases.values() for s in log.checked]
        check = check_outputs(engine, samples, replay=workload.updates)
        check_updates(engine, [u for log in phases.values() for u in log.updates], check)
        rss = peak_rss_mb(engine)
    finally:
        if engine is not None:
            close_engine(engine)
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".snbbench_work").rmdir()
        except OSError:
            pass
    leaked = sorted(set(system_segment_names()) - shm_before)
    return RunResult(
        workload.name, seed, setup_raw, setup_norm, phases, check, leaked,
        normalizer, rss, workload.shares(), tracer, route, wal,
    )


# -- metrics -------------------------------------------------------------------------

#: The kept end-to-end metrics.  Tails are printed but not kept.  The IC
#: tail on snb-mixed sits where IC5 (a twentieth of the IC mix, ~110 ms
#: after writes) meets the rest and moved by 11-18 % between runs; the IS
#: tail moved by up to 10 % on snb-read, more than a third of the largest
#: bound a metric may have.
END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    f"ic_p{P_MID}_ms": "ms",
    f"is_p{P_MID}_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(result: RunResult, normalized: bool = True) -> dict[str, float]:
    """The end-to-end metrics of a timed run (raw ones with ``normalized=False``)."""
    log = result.phases["timed"]
    shares = result.shares
    metrics = {"throughput_ops_s": log.throughput(shares, normalized)}
    for category in ("IC", "IS"):
        for pct in (P_MID, P_TAIL):
            metrics[f"{category.lower()}_p{pct}_ms"] = (
                log.class_latency(category, shares, pct, normalized) * 1e3
            )
    if "IU" in log.categories:
        for pct in (P_MID, P_TAIL):
            metrics[f"iu_p{pct}_ms"] = log.class_latency("IU", shares, pct, normalized) * 1e3
    setups = result.setup_norm_s if normalized else result.setup_raw_s
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = result.peak_rss_mb
    return metrics


#: Operators whose ``ExecStats.op_times`` are reported one by one; the rest
#: are summed under ``other``.
OPERATORS = (
    "NodeByIdSeek", "NodeScan", "Expand", "VertexExpand", "GetProperty",
    "Filter", "Project", "TopK", "AggregateTopK", "Aggregate", "OrderBy",
    "Limit", "Distinct", "ProcedureCall",
)

LAYER_UNITS: dict[str, str] = {
    "ldbc.glue_ms_per_op": "ms",
    "engine.execute_calls_per_op": "count",
    "engine.execute_self_us": "us",
    "engine.plan_us": "us",
    "engine.plan_cache_hit_ratio": "ratio",
    "frontend.parse_us": "us",
    "frontend.bind_us": "us",
    "frontend.calls_per_op": "count",
    "plan.optimize_us": "us",
    "exec.executor_ms_per_op": "ms",
    **{f"exec.op_ms_per_op.{name}": "ms" for name in OPERATORS},
    "exec.op_ms_per_op.other": "ms",
    "exec.defactor_per_op": "count",
    "exec.compression_ratio": "ratio",
    "exec.degraded_per_kop": "count",
    "exec.peak_intermediate_kb_p50": "KiB",
    "storage.neighbors_calls_per_op": "count",
    "storage.neighbors_ms_per_op": "ms",
    "storage.meta_for_calls_per_op": "count",
    "storage.meta_for_ms_per_op": "ms",
    "storage.gather_ms_per_op": "ms",
    "storage.read_view_us": "us",
    "txn.commit_us": "us",
    "txn.commit_self_us": "us",
    "durability.log_commit_us": "us",
    "durability.wal_bytes_per_commit": "B",
    "durability.fsyncs_per_commit": "count",
    "parallel.try_execute_us": "us",
    "parallel.pool_run_us": "us",
    "parallel.dispatch_overhead_us": "us",
    "parallel.route_whole_ratio": "ratio",
    "parallel.route_scatter_ratio": "ratio",
    "parallel.fallback_ratio": "ratio",
    "parallel.shm_acquire_us": "us",
    "obs.flightrec_record_us": "us",
    "host.probe_ms": "ms",
    "host.raw_throughput_ops_s": "1/s",
    "trace.overhead_pct": "%",
    "trace.unattributed_ms_per_op": "ms",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(result: RunResult) -> dict[str, float]:
    """The per-layer metrics of a traced run."""
    tracer = result.tracer
    assert tracer is not None
    traced = result.phases["traced"]
    untraced = result.phases["untraced"]
    ops = traced.ops
    execs = traced.execs

    def per_call_us(name: str, own: bool = False) -> float:
        span = tracer.span(name)
        return _ratio((span.self_s if own else span.total_s) * 1e6, span.calls)

    def per_op_ms(name: str, own: bool = False) -> float:
        span = tracer.span(name)
        return (span.self_s if own else span.total_s) * 1e3 / ops

    commits = tracer.span("txn.commit").calls
    pooled = tracer.span("parallel.try_execute")
    op_ms = {name: 0.0 for name in OPERATORS}
    other = 0.0
    for name, seconds in execs.op_s.items():
        if name in op_ms:
            op_ms[name] += seconds * 1e3 / ops
        else:
            other += seconds * 1e3 / ops
    metrics = {
        "ldbc.glue_ms_per_op": per_op_ms("ldbc.query", own=True),
        "engine.execute_calls_per_op": tracer.span("engine.execute").calls / ops,
        "engine.execute_self_us": per_call_us("engine.execute", own=True),
        "engine.plan_us": per_call_us("engine.plan"),
        "engine.plan_cache_hit_ratio": _ratio(
            execs.cache_hits, execs.cache_hits + execs.cache_misses
        ),
        "frontend.parse_us": per_call_us("frontend.parse"),
        "frontend.bind_us": per_call_us("frontend.bind"),
        "frontend.calls_per_op": tracer.span("frontend.parse").calls / ops,
        "plan.optimize_us": per_call_us("plan.optimize"),
        "exec.executor_ms_per_op": per_op_ms("exec.executor"),
        **{f"exec.op_ms_per_op.{name}": value for name, value in op_ms.items()},
        "exec.op_ms_per_op.other": other,
        "exec.defactor_per_op": execs.defactor / ops,
        "exec.compression_ratio": _ratio(execs.flat_tuples, execs.ftree_slots),
        "exec.degraded_per_kop": execs.degraded * 1e3 / ops,
        "exec.peak_intermediate_kb_p50": float(np.median(execs.peak_bytes)) / 1024,
        "storage.neighbors_calls_per_op": tracer.span("storage.neighbors").calls / ops,
        "storage.neighbors_ms_per_op": per_op_ms("storage.neighbors"),
        "storage.meta_for_calls_per_op": tracer.span("storage.meta_for").calls / ops,
        "storage.meta_for_ms_per_op": per_op_ms("storage.meta_for"),
        "storage.gather_ms_per_op": per_op_ms("storage.gather"),
        "storage.read_view_us": per_call_us("storage.read_view"),
        "txn.commit_us": per_call_us("txn.commit"),
        "txn.commit_self_us": per_call_us("txn.commit", own=True),
        "durability.log_commit_us": per_call_us("durability.log_commit"),
        "durability.wal_bytes_per_commit": _ratio(result.wal.get("bytes", 0.0), commits),
        "durability.fsyncs_per_commit": _ratio(result.wal.get("fsyncs", 0.0), commits),
        "parallel.try_execute_us": per_call_us("parallel.try_execute"),
        "parallel.pool_run_us": per_call_us("parallel.pool_run"),
        "parallel.dispatch_overhead_us": _ratio(
            (pooled.total_s - tracer.values.get("parallel.worker_op_s", 0.0)) * 1e6,
            pooled.calls,
        ),
        "parallel.route_whole_ratio": _ratio(result.route.get("whole", 0), pooled.calls),
        "parallel.route_scatter_ratio": _ratio(result.route.get("scatter", 0), pooled.calls),
        "parallel.fallback_ratio": _ratio(result.route.get("fallback", 0), pooled.calls),
        "parallel.shm_acquire_us": per_call_us("parallel.shm_acquire"),
        "obs.flightrec_record_us": per_call_us("obs.flightrec"),
        "host.probe_ms": result.normalizer.probe_ms(),
        "host.raw_throughput_ops_s": untraced.throughput(result.shares, normalized=False),
        "trace.overhead_pct": (
            untraced.throughput(result.shares) / traced.throughput(result.shares) - 1
        ) * 100,
        "trace.unattributed_ms_per_op": per_op_ms(ROOT, own=True),
    }
    if set(metrics) != set(LAYER_UNITS):
        raise RuntimeError("per-layer metrics and their units disagree")
    return metrics


def self_time_table(result: RunResult) -> list[tuple[str, int, float]]:
    """(span, calls, self ms per op) for every span, largest first; the
    self times add up to the traced time per operation."""
    tracer = result.tracer
    assert tracer is not None
    ops = tracer.ops
    rows = [
        (name, span.calls, span.self_s * 1e3 / ops)
        for name, span in tracer.totals.items()
    ]
    return sorted(rows, key=lambda row: -row[2])


def class_counts(result: RunResult) -> dict[str, tuple[int, int]]:
    """Samples per latency class and how many lie beyond its tail percentile."""
    log = result.phases["timed"]
    counts = {}
    for category in ("IC", "IS", "IU"):
        names, values = log.samples(category)
        if values:
            tail = log.class_latency(category, result.shares, P_TAIL)
            counts[category] = (len(values), sum(v > tail for v in values))
    return counts
