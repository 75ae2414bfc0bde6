"""The benchmark's three workloads over the calibrated hour.

Every pass goes through the program's public entry points and returns
its wall time, the packets it processed, its lag samples, its outputs
(for the correctness digest) and exact counts read after the pass.
Passed a :class:`tracing.SpanRecorder`, the same pass wraps the objects
it hands to the program in timing proxies; with the default null
recorder nothing is wrapped.

* ``online-flows-warm`` -- warm ``TraceStore.load`` -> ``run_monitor``
  with the stratified 1-in-50 chunk kernel, flow accounting on the
  parent and sampled side, 30 s quality windows, the CLI's default
  alert rules and one textfile export per window.
* ``online-adapt-cold`` -- ``iter_pcap`` -> ``AdaptivePipeline.
  process_chunk`` (accuracy-first, stratified) -> the same alerts and
  exposition.  No flow accounting.
* ``batch-grid`` -- ``run_grid`` on the paper grid (5 methods x 15
  granularities) over the warm store's memmap transport, ``jobs=2``.
"""

import dataclasses
import gc
import hashlib
import json
import operator
import os
from typing import Any, Callable, Dict, List

import numpy as np

from repro.adaptive import (
    AccuracyFirstPolicy,
    AdaptiveController,
    AdaptivePipeline,
    ControllerConfig,
)
from repro.cli import DEFAULT_MONITOR_RULES
from repro.core.evaluation.experiment import ExperimentGrid
from repro.core.sampling.streaming import StreamingStratified
from repro.engine import (
    GridPlanner,
    MemmapTraceBuffer,
    ShardContext,
    execute_shard,
    publish_trace,
    record_to_json,
    run_grid,
)
from repro.fastpath import (
    FlowAccountantKernel,
    chunk_kernel_for,
    iter_trace_chunks,
    run_monitor,
)
from repro.flows.sampled import StreamFlowAccountant
from repro.flows.table import FlowRecord
from repro.obs.live import (
    AlertEngine,
    AlertRule,
    QualityMonitor,
    TextfileExporter,
    render_live_metrics,
)
from repro.trace.pcap import iter_pcap
from repro.trace.store import TraceStore

from tracing import (
    NULL_RECORDER,
    PullClock,
    TimedAccountant,
    TimedKernel,
    clock,
)

WORKLOADS = ("online-flows-warm", "online-adapt-cold", "batch-grid")
#: Workloads that read a warm ``TraceStore`` built during set-up.
STORE_WORKLOADS = ("online-flows-warm", "batch-grid")

WINDOW_US = 30_000_000
GRANULARITY = 50
#: Replications of the paper grid per batch pass: 75 shards, about
#: 1.5 s at ``jobs=2`` on the hour, so a run holds several passes and
#: reports their median.
GRID_REPLICATIONS = 1
GRID_JOBS = 2
SAMPLING_METHODS = (
    "systematic",
    "stratified",
    "random",
    "timer-systematic",
    "timer-stratified",
)


#: A flow record as a plain tuple (``dataclasses.astuple`` deep-copies,
#: which is slow on a hundred thousand records).
flow_tuple = operator.attrgetter(
    *(field.name for field in dataclasses.fields(FlowRecord))
)


def paper_grid(seed: int) -> ExperimentGrid:
    return ExperimentGrid(replications=GRID_REPLICATIONS, seed=seed)


def alert_rules() -> List[AlertRule]:
    return [AlertRule.from_spec(spec) for spec in DEFAULT_MONITOR_RULES]


@dataclasses.dataclass
class PassResult:
    wall_s: float
    packets: int
    lags: List[float]
    outputs: Dict[str, Any]
    counts: Dict[str, float]
    #: The attempt number, which keys the pass's spans when traced.
    pass_id: int = 0


#: Chunk size of a cross-check pass (``Workspace(cross_check=True)``):
#: not the program's default, so its outputs test chunking invariance.
CROSS_CHECK_CHUNK_PACKETS = 10_000


class Workspace:
    """One run's inputs and scratch: the pcap, a store, an export path.

    ``cross_check`` runs the same workload another way whose outputs
    must be identical: online workloads in chunks of
    ``CROSS_CHECK_CHUNK_PACKETS``, the grid at ``jobs=1``.
    """

    def __init__(
        self,
        workload: str,
        seed: int,
        pcap: str,
        work_dir: str,
        cross_check: bool = False,
    ):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self.seed = seed
        self.pcap = pcap
        self.work_dir = work_dir
        self.chunk_kwargs = (
            {"chunk_packets": CROSS_CHECK_CHUNK_PACKETS} if cross_check else {}
        )
        self.jobs = 1 if cross_check else GRID_JOBS
        self.metrics_path = os.path.join(work_dir, "metrics.prom")
        self.store = TraceStore(os.path.join(work_dir, "store"))
        self.store_build_s = 0.0

    def prepare(self) -> None:
        """One-time set-up: build the warm store where the workload uses one."""
        if self.workload in STORE_WORKLOADS:
            started = clock()
            self.store.build(self.pcap)
            self.store_build_s = clock() - started

    def load(self, recorder=NULL_RECORDER):
        with recorder.span("ingest"):
            trace = self.store.load(self.pcap)
        if trace is None:
            raise RuntimeError("warm trace store missed %s" % self.pcap)
        return trace


class FlipFirstKeepBit:
    """A deliberately wrong kernel: the first keep decision is inverted."""

    def __init__(self, kernel) -> None:
        self._keep_mask = kernel.keep_mask
        self._flipped = False

    def keep_mask(self, timestamps_us):
        mask = self._keep_mask(timestamps_us)
        if not self._flipped and len(mask):
            mask = mask.copy()
            mask[0] = not mask[0]
            self._flipped = True
        return mask


class WindowSink:
    """The window callback: alerts, one export, lag bookkeeping."""

    def __init__(self, monitor, exporter, chunks: PullClock, recorder) -> None:
        self.engine = AlertEngine(alert_rules())
        self.monitor = monitor
        self.exporter = exporter
        self.chunks = chunks
        self.recorder = recorder
        self.windows: List[Any] = []
        self.alerts: List[Any] = []
        self.lags: List[float] = []
        self.draining = False

    def __call__(self, stats) -> None:
        recorder = self.recorder
        window = recorder.begin("window")
        alerts = recorder.begin("alerts")
        self.alerts.extend(self.engine.observe(stats))
        recorder.end(alerts)
        expose = recorder.begin("expose")
        self.exporter.export(self.monitor.store)
        recorder.end(expose)
        recorder.end(window)
        self.windows.append(stats)
        if not self.draining:
            self.lags.append(clock() - self.chunks.started)

    def outputs(self) -> Dict[str, Any]:
        return {
            "windows": [
                [
                    stats.index,
                    stats.start_us,
                    stats.end_us,
                    stats.offered,
                    stats.sampled,
                    dict(stats.metrics),
                ]
                for stats in self.windows
            ],
            "alerts": [dataclasses.astuple(event) for event in self.alerts],
            "exposition": render_live_metrics(self.monitor.store),
        }

    def counts(self) -> Dict[str, float]:
        return {
            "windows_closed": float(self.monitor.windows_closed),
            "alerts_raised": float(self.engine.raised_total),
            "expose_bytes": float(os.path.getsize(self.exporter.path)),
        }


def flows_warm_pass(
    ws: Workspace, recorder=NULL_RECORDER, perturb: bool = False
) -> PassResult:
    started = clock()
    root = recorder.begin("pass")
    trace = ws.load(recorder)
    monitor = QualityMonitor(window_us=WINDOW_US)
    exporter = TextfileExporter(ws.metrics_path)
    accountant = StreamFlowAccountant(store=monitor.store)
    kernel: Any = chunk_kernel_for(
        StreamingStratified(GRANULARITY, rng=np.random.default_rng(ws.seed))
    )
    if perturb:
        kernel = FlipFirstKeepBit(kernel)
    flows: Any = FlowAccountantKernel(accountant)
    if recorder is not NULL_RECORDER:
        kernel = TimedKernel(kernel, recorder)
        flows = TimedAccountant(flows, recorder)
    chunks = PullClock(iter_trace_chunks(trace, **ws.chunk_kwargs), recorder)
    sink = WindowSink(monitor, exporter, chunks, recorder)
    offered = run_monitor(chunks, kernel, monitor, on_window=sink, accountant=flows)
    sink.draining = True
    with recorder.span("flush"):
        flows.flush()
        final = monitor.flush()
        if final is not None:
            sink(final)
    wall = clock() - started
    recorder.end(root)

    parent = accountant.parent().records
    sampled = accountant.sampled().records
    outputs = sink.outputs()
    outputs["parent_flows"] = [flow_tuple(r) for r in parent]
    outputs["sampled_flows"] = [flow_tuple(r) for r in sampled]
    counts = sink.counts()
    counts.update(
        chunks=float(chunks.pulls),
        ingested=float(offered),
        kept=float(sum(stats.sampled for stats in sink.windows)),
        records_exported=float(len(parent) + len(sampled)),
        peak_occupancy=float(accountant.parent_table.peak_occupancy),
    )
    return PassResult(wall, offered, sink.lags, outputs, counts)


def adapt_cold_pass(
    ws: Workspace, recorder=NULL_RECORDER, perturb: bool = False
) -> PassResult:
    started = clock()
    root = recorder.begin("pass")
    monitor = QualityMonitor(window_us=WINDOW_US)
    exporter = TextfileExporter(ws.metrics_path)
    chunks = PullClock(iter_pcap(ws.pcap, **ws.chunk_kwargs), recorder)
    sink = WindowSink(monitor, exporter, chunks, recorder)
    controller = AdaptiveController(
        AccuracyFirstPolicy(), ControllerConfig(seed=ws.seed)
    )
    pipeline = AdaptivePipeline(
        "stratified", controller, monitor, fastpath=True, on_window=sink
    )
    # The pipeline re-keys its selector in place, so a proxy would be
    # bypassed: the flip and the span go on the instance instead.
    selector: Any = pipeline.selector
    if perturb:
        selector.keep_mask = FlipFirstKeepBit(selector).keep_mask
    if recorder is not NULL_RECORDER:
        selector.keep_mask = TimedKernel(selector, recorder).keep_mask
    for chunk in chunks:
        with recorder.span("adaptive"):
            pipeline.process_chunk(chunk)
    sink.draining = True
    with recorder.span("flush"):
        pipeline.flush()
    wall = clock() - started
    recorder.end(root)

    outputs = sink.outputs()
    outputs["decisions"] = [d.as_dict() for d in controller.decisions]
    outputs["kept"] = [pipeline.offered, pipeline.kept]
    counts = sink.counts()
    counts.update(
        chunks=float(chunks.pulls),
        ingested=float(pipeline.offered),
        kept=float(pipeline.kept),
        rate_changes=float(controller.changes),
    )
    return PassResult(wall, pipeline.offered, sink.lags, outputs, counts)


def batch_pass(
    ws: Workspace, recorder=NULL_RECORDER, perturb: bool = False
) -> PassResult:
    """One ``run_grid`` call; its lag samples are shard completion times."""
    started = clock()
    root = recorder.begin("pass")
    trace = ws.load(recorder)
    grid = paper_grid(ws.seed + 1 if perturb else ws.seed)
    done: List[float] = []

    def progress(key: str, completed: int, total: int) -> None:
        done.append(clock() - started)

    with recorder.span("run_grid"):
        result = run_grid(grid, trace, jobs=ws.jobs, progress=progress)
    wall = clock() - started
    recorder.end(root)
    shards = len(done)
    outputs = {"records": [record_to_json(r) for r in result.records]}
    counts = {
        "chunks": 1.0,
        "ingested": float(len(trace)),
        "shards": float(shards),
    }
    return PassResult(wall, len(trace) * shards, done, outputs, counts)


PASSES: Dict[str, Callable[..., PassResult]] = {
    "online-flows-warm": flows_warm_pass,
    "online-adapt-cold": adapt_cold_pass,
    "batch-grid": batch_pass,
}


def run_pass(ws: Workspace, recorder=NULL_RECORDER, perturb=False) -> PassResult:
    gc.collect()
    return PASSES[ws.workload](ws, recorder, perturb)


def publish_probe(ws: Workspace) -> Dict[str, float]:
    """Time ``publish_trace`` on the warm trace, as ``run_grid`` calls it."""
    trace = ws.load()
    started = clock()
    buffer = publish_trace(trace)
    elapsed = clock() - started
    zero_copy = isinstance(buffer, MemmapTraceBuffer)
    buffer.close()
    return {"publish_s": elapsed, "zero_copy": float(zero_copy)}


@dataclasses.dataclass
class SerialGrid:
    phases: Dict[str, float]
    busy: Dict[str, float]
    outputs: Dict[str, Any]


def serial_grid(ws: Workspace) -> SerialGrid:
    """The grid serially through ``execute_shard`` with its ``phases``.

    Returns per-phase and per-method busy seconds plus the records, so
    the traced serial pass is checked like any other.
    """
    gc.collect()
    trace = ws.load()
    grid = paper_grid(ws.seed)
    context = ShardContext(trace, grid)
    phases: Dict[str, float] = {}
    busy = {method: 0.0 for method in SAMPLING_METHODS}
    records = []
    for shard in GridPlanner(grid).shards():
        started = clock()
        shard_records, _packets, _flows = execute_shard(context, shard, phases)
        busy[shard.spec.method] += clock() - started
        records.extend(shard_records)
    outputs = {"records": [record_to_json(r) for r in records]}
    return SerialGrid(phases, busy, outputs)


# ----------------------------------------------------------------------
# digests


def _plain(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError("cannot digest %r" % type(value))


#: List items JSON-encoded at a time while digesting.
DIGEST_BATCH = 1024


def _component_digest(value: Any) -> str:
    """SHA-256 over canonical JSON, a batch of list items at a time.

    Hashing in batches keeps the digest from building one large string,
    so checking a pass adds little to the process's peak memory.
    """
    if not isinstance(value, list):
        value = ["value", value]
    hasher = hashlib.sha256()
    for start in range(0, len(value), DIGEST_BATCH):
        batch = value[start : start + DIGEST_BATCH]
        hasher.update(
            json.dumps(batch, sort_keys=True, default=_plain).encode("utf-8")
        )
    return hasher.hexdigest()


def digest(outputs: Dict[str, Any]) -> Dict[str, str]:
    """One SHA-256 per output component."""
    return {
        name: _component_digest(value)
        for name, value in sorted(outputs.items())
    }


def mismatches(outputs: Dict[str, Any], expected: Dict[str, str]) -> List[str]:
    """Components whose digest differs from the reference (or is missing)."""
    got = digest(outputs)
    return sorted(
        name
        for name in set(got) | set(expected)
        if got.get(name) != expected.get(name)
    )
