"""One measured run of one workload, in a fresh process.

``run.py`` starts this script; it is not meant to be run by hand.  It
imports the program, prepares the workload (``TraceStore.build`` where
the workload reads a warm store), reports how long that took since
``--spawned-at`` (a ``time.monotonic`` reading taken just before the
process was started), then runs closed-loop passes until ``--seconds``
have passed.  Every pass's outputs are digested and compared with the
reference digests; a pass that raises or differs counts as failed.

With ``--trace 0`` it reports the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics from the traced ones; the spans are written to
``--spans`` when the run ends.  ``--setup-only`` stops after set-up.
The last line of standard output is one JSON object.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from tracing import NULL_RECORDER, SpanRecorder, clock
from workloads import (
    SAMPLING_METHODS,
    WORKLOADS,
    PassResult,
    Workspace,
    mismatches,
    publish_probe,
    run_pass,
    serial_grid,
)

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END_UNITS = {
    "throughput_pps": "pkt/s",
    "window_lag_p50_s": "s",
    "window_lag_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.  A layer that does
#: not run on a workload reports 0.
PER_LAYER_UNITS = {
    "trace.ingest_s": "s",
    "trace.ingest_pps": "pkt/s",
    "trace.chunks": "count",
    "trace.store_build_s": "s",
    "fastpath.select_s": "s",
    "fastpath.select_kept": "count",
    "fastpath.flows_s": "s",
    "fastpath.flows_chunk_p50_s": "s",
    "fastpath.flows_chunk_max_s": "s",
    "fastpath.monitor_s": "s",
    "flows.records_exported": "count",
    "flows.peak_occupancy": "count",
    "obs.live.windows_closed": "count",
    "obs.live.alerts_s": "s",
    "obs.live.alerts_raised": "count",
    "obs.live.expose_s": "s",
    "obs.live.expose_bytes": "B",
    "adaptive.process_s": "s",
    "adaptive.rate_changes": "count",
    "adaptive.kept": "count",
    "engine.publish_s": "s",
    "engine.zero_copy": "count",
    "engine.worker_window_s": "s",
    "engine.worker_sample_s": "s",
    "engine.worker_score_s": "s",
    "engine.shards": "count",
    "engine.utilization": "ratio",
    **{"core.sampling.%s_s" % method: "s" for method in SAMPLING_METHODS},
    "bench.trace_overhead": "ratio",
}


class Checker:
    """Runs passes, checks each against the reference, counts failures."""

    def __init__(self, expected: Dict[str, str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, attempt: Callable[[], Any]) -> Tuple[Any, bool]:
        """The attempt's result (``None`` if it raised) and whether its
        outputs matched.  The outputs are dropped once digested."""
        self.attempted += 1
        try:
            result = attempt()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None, False
        bad = mismatches(result.outputs, self.expected)
        result.outputs = None
        if bad:
            self.failed += 1
            print(
                "%s: outputs differ from the reference in %s"
                % (label, ", ".join(bad)),
                file=sys.stderr,
            )
        return result, not bad


def _usable(results: List[Tuple[PassResult, bool]]) -> List[PassResult]:
    """The passes that matched; all of them if none did, so that a
    run with failures still reports numbers."""
    matched = [result for result, ok in results if ok]
    return matched or [result for result, _ok in results]


def timed_passes(
    ws: Workspace,
    checker: Checker,
    seconds: float,
    perturb: bool,
    recorder: Optional[SpanRecorder] = None,
) -> Tuple[List[PassResult], List[PassResult]]:
    """Closed-loop passes until ``seconds`` have passed.

    Untraced passes only, or, given a recorder, an untraced and a
    traced pass in turn.  Returns (untraced, traced).
    """
    runs: Dict[bool, List[Tuple[PassResult, bool]]] = {False: [], True: []}
    plan = [(False, NULL_RECORDER)]
    if recorder is not None:
        plan.append((True, recorder))
    deadline = clock() + seconds
    while True:
        for is_traced, rec in plan:
            done = runs[is_traced]
            label = "%s pass %d" % (
                "traced" if is_traced else "untraced", checker.attempted
            )
            if is_traced:
                rec.pass_id = checker.attempted
            result, ok = checker.run(label, lambda: run_pass(ws, rec, perturb))
            if result is None:
                rec.abandon()
            else:
                result.pass_id = checker.attempted - 1
                done.append((result, ok))
        if clock() >= deadline:
            return _usable(runs[False]), _usable(runs[True])


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of this process, plus its largest worker on the grid."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "batch-grid":
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end(ws: Workspace, passes: List[PassResult]) -> Dict[str, float]:
    lags = [lag for result in passes for lag in result.lags]
    return {
        "throughput_pps": statistics.median(
            result.packets / result.wall_s for result in passes
        ),
        "window_lag_p50_s": float(np.percentile(lags, 50)),
        "window_lag_p90_s": float(np.percentile(lags, 90)),
        "peak_rss_mb": peak_rss_mb(ws.workload),
    }


def layers_of_pass(
    ws: Workspace, result: PassResult, recorder: SpanRecorder
) -> Dict[str, float]:
    """The per-layer numbers of one traced pass, from its spans."""
    pass_id = result.pass_id
    totals = recorder.totals(pass_id)

    def total(name: str) -> float:
        return totals.get(name, {}).get("total", 0.0)

    def own(name: str) -> float:
        return totals.get(name, {}).get("self", 0.0)

    counts = result.counts
    ingest = total("ingest")
    flows = recorder.durations("flows", pass_id)
    adaptive = ws.workload == "online-adapt-cold"
    return {
        "trace.ingest_s": ingest,
        "trace.ingest_pps": counts["ingested"] / ingest if ingest else 0.0,
        "trace.chunks": counts["chunks"],
        "fastpath.select_s": total("select"),
        "fastpath.select_kept": counts.get("kept", 0.0),
        "fastpath.flows_s": float(sum(flows)),
        "fastpath.flows_chunk_p50_s": statistics.median(flows) if flows else 0.0,
        "fastpath.flows_chunk_max_s": max(flows) if flows else 0.0,
        "fastpath.monitor_s": own("step"),
        "flows.records_exported": counts.get("records_exported", 0.0),
        "flows.peak_occupancy": counts.get("peak_occupancy", 0.0),
        "obs.live.windows_closed": counts.get("windows_closed", 0.0),
        "obs.live.alerts_s": total("alerts"),
        "obs.live.alerts_raised": counts.get("alerts_raised", 0.0),
        "obs.live.expose_s": total("expose"),
        "obs.live.expose_bytes": counts.get("expose_bytes", 0.0),
        "adaptive.process_s": own("adaptive"),
        "adaptive.rate_changes": counts.get("rate_changes", 0.0),
        "adaptive.kept": counts["kept"] if adaptive else 0.0,
    }


def engine_layers(
    ws: Workspace, checker: Checker, untraced_wall: float
) -> Dict[str, float]:
    """The grid's engine and sampler layers: ``publish_trace`` once and
    one serial pass through ``execute_shard`` with phase timing."""
    probe = publish_probe(ws)
    metrics = {
        "engine.publish_s": probe["publish_s"],
        "engine.zero_copy": probe["zero_copy"],
    }
    serial, _ok = checker.run("serial grid pass", lambda: serial_grid(ws))
    if serial is not None:
        for phase in ("window", "sample", "score"):
            metrics["engine.worker_%s_s" % phase] = serial.phases.get(phase, 0.0)
        for method, busy in serial.busy.items():
            metrics["core.sampling.%s_s" % method] = busy
        metrics["engine.utilization"] = sum(serial.busy.values()) / (
            ws.jobs * untraced_wall
        )
    return metrics


def per_layer(
    ws: Workspace,
    checker: Checker,
    seconds: float,
    perturb: bool,
    spans_path: str,
) -> Dict[str, float]:
    recorder = SpanRecorder()
    untraced, traced = timed_passes(ws, checker, seconds, perturb, recorder)
    if not untraced or not traced:
        raise RuntimeError("no pass of the traced run completed")
    per_pass = [layers_of_pass(ws, result, recorder) for result in traced]
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for name in per_pass[0]:
        metrics[name] = statistics.median(values[name] for values in per_pass)
    metrics["trace.store_build_s"] = ws.store_build_s
    metrics["bench.trace_overhead"] = (
        statistics.median(r.wall_s for r in traced) / untraced_wall
    )
    if ws.workload == "batch-grid":
        metrics["engine.shards"] = traced[0].counts["shards"]
        metrics.update(engine_layers(ws, checker, untraced_wall))
    recorder.write(spans_path)
    return metrics


def emit(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pcap", required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(args.work_dir, exist_ok=True)
    try:
        ws = Workspace(args.workload, args.seed, args.pcap, args.work_dir)
        ws.prepare()
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            emit({"setup_s": setup_s})
            return 0
        with open(args.reference) as stream:
            checker = Checker(json.load(stream))
        if args.trace:
            metrics = per_layer(
                ws, checker, args.seconds, args.perturb, args.spans
            )
            lag_samples = 0
        else:
            untraced, _ = timed_passes(ws, checker, args.seconds, args.perturb)
            if not untraced:
                raise RuntimeError("no pass completed")
            metrics = end_to_end(ws, untraced)
            metrics["setup_s"] = setup_s
            lag_samples = sum(len(result.lags) for result in untraced)
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    emit(
        {
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: metrics[name] for name in units},
            "units": units,
            "lag_samples": lag_samples,
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
