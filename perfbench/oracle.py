"""Reference outputs from the program's retained per-packet paths.

Each function returns the same output components a workload pass
digests, computed the slow way: the per-record pcap decoder
(``fastpath="off"``), the streaming sampler offered one packet at a
time, ``QualityMonitor.observe``, ``StreamFlowAccountant.observe`` and
``AdaptivePipeline.offer``; for the grid, ``run_grid`` with ``jobs=1``.
The fast paths are pinned bit-identical to these by the repository's
own tests.  The pinned digests for seed 1993 on the full hour, and the
smoke slice's, come from here (``reference.py --oracle``).
"""

import os
from typing import Any, Dict

import numpy as np

from repro.adaptive import (
    AccuracyFirstPolicy,
    AdaptiveController,
    AdaptivePipeline,
    ControllerConfig,
)
from repro.core.sampling.streaming import StreamingStratified
from repro.engine import record_to_json, run_grid
from repro.flows.sampled import StreamFlowAccountant
from repro.flows.table import iter_flow_keys
from repro.obs.live import QualityMonitor, TextfileExporter
from repro.trace.pcap import read_pcap

from tracing import NULL_RECORDER, PullClock
from workloads import GRANULARITY, WINDOW_US, WindowSink, flow_tuple, paper_grid


def _sink(monitor, work_dir: str) -> WindowSink:
    exporter = TextfileExporter(os.path.join(work_dir, "oracle.prom"))
    return WindowSink(monitor, exporter, PullClock(()), NULL_RECORDER)


def flows_warm(pcap: str, seed: int, work_dir: str) -> Dict[str, Any]:
    trace = read_pcap(pcap, fastpath="off")
    monitor = QualityMonitor(window_us=WINDOW_US)
    sink = _sink(monitor, work_dir)
    accountant = StreamFlowAccountant(store=monitor.store)
    selector = StreamingStratified(
        GRANULARITY, rng=np.random.default_rng(seed)
    )
    for timestamp, size, key in iter_flow_keys(trace):
        kept = selector.offer(timestamp)
        accountant.observe(timestamp, size, key, kept)
        for stats in monitor.observe(timestamp, float(size), kept):
            sink(stats)
    accountant.flush()
    final = monitor.flush()
    if final is not None:
        sink(final)
    outputs = sink.outputs()
    outputs["parent_flows"] = [
        flow_tuple(r) for r in accountant.parent().records
    ]
    outputs["sampled_flows"] = [
        flow_tuple(r) for r in accountant.sampled().records
    ]
    return outputs


def adapt_cold(pcap: str, seed: int, work_dir: str) -> Dict[str, Any]:
    trace = read_pcap(pcap, fastpath="off")
    monitor = QualityMonitor(window_us=WINDOW_US)
    sink = _sink(monitor, work_dir)
    controller = AdaptiveController(
        AccuracyFirstPolicy(), ControllerConfig(seed=seed)
    )
    pipeline = AdaptivePipeline(
        "stratified", controller, monitor, fastpath=False, on_window=sink
    )
    for timestamp, size in zip(
        trace.timestamps_us.tolist(), trace.sizes.tolist()
    ):
        pipeline.offer(timestamp, float(size))
    pipeline.flush()
    outputs = sink.outputs()
    outputs["decisions"] = [d.as_dict() for d in controller.decisions]
    outputs["kept"] = [pipeline.offered, pipeline.kept]
    return outputs


def batch_grid(pcap: str, seed: int, work_dir: str) -> Dict[str, Any]:
    trace = read_pcap(pcap, fastpath="off")
    result = run_grid(paper_grid(seed), trace, jobs=1)
    return {"records": [record_to_json(r) for r in result.records]}


ORACLES = {
    "online-flows-warm": flows_warm,
    "online-adapt-cold": adapt_cold,
    "batch-grid": batch_grid,
}
