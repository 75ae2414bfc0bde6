"""The chunked pipeline end to end, and the CLI against the oracles.

``repro-traffic monitor`` and ``flows`` run on the chunk kernels; their
window events, metrics files, flow CSVs and printed counts must equal
what the per-packet oracles produce on the same capture — the
user-visible face of the bit-identity contract.  The pipeline
primitives are covered directly too: :func:`iter_trace_chunks`
reassembly and :func:`run_monitor` against the hand-rolled per-packet
loop it replaces.
"""

import contextlib
import csv
import io
import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.sampling.factory import make_sampler
from repro.core.sampling.streaming import (
    StreamingStratified,
    StreamingSystematic,
    StreamingTimerSystematic,
)
from repro.core.sampling.timer import TimerSystematicSampler
from repro.fastpath import (
    DEFAULT_CHUNK_PACKETS,
    FlowAccountantKernel,
    chunk_kernel_for,
    iter_trace_chunks,
    run_monitor,
)
from repro.flows.sampled import FlowSet, FlowStudy, StreamFlowAccountant
from repro.flows.table import FlowTable, aggregate_trace, iter_flow_keys
from repro.obs.live import render_live_metrics
from repro.obs.live.monitor import QualityMonitor
from repro.trace.pcap import read_pcap, write_pcap
from repro.trace.trace import Trace


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def pcap_path(tmp_path_factory):
    rng = np.random.default_rng(31)
    n = 4000
    gaps = rng.integers(0, 3000, size=n)
    trace = Trace(
        timestamps_us=np.cumsum(gaps).astype(np.int64),
        sizes=rng.integers(28, 1500, size=n).astype(np.int32),
        protocols=rng.choice([6, 17], size=n).tolist(),
        src_nets=rng.integers(1, 8, size=n).tolist(),
        dst_nets=rng.integers(1000, 1010, size=n).tolist(),
        src_ports=rng.integers(1024, 1100, size=n).tolist(),
        dst_ports=rng.choice([23, 53, 80], size=n).tolist(),
    )
    path = tmp_path_factory.mktemp("trace") / "stream.pcap"
    write_pcap(trace, str(path))
    return str(path)


class TestIterTraceChunks:
    def test_reassembles_exactly(self, tiny_trace):
        chunks = list(iter_trace_chunks(tiny_trace, chunk_packets=3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        assert Trace.concat(chunks) == tiny_trace

    def test_single_chunk_default(self, tiny_trace):
        chunks = list(iter_trace_chunks(tiny_trace))
        assert len(chunks) == 1
        assert chunks[0] == tiny_trace
        assert DEFAULT_CHUNK_PACKETS >= len(tiny_trace)

    def test_empty_trace_yields_nothing(self):
        assert list(iter_trace_chunks(Trace.empty())) == []

    def test_rejects_nonpositive_chunk(self, tiny_trace):
        with pytest.raises(ValueError, match="chunk_packets"):
            list(iter_trace_chunks(tiny_trace, chunk_packets=0))


class TestRunMonitor:
    def test_matches_per_packet_loop(self, minute_trace):
        subset = minute_trace.slice_packets(0, 6000)

        reference_selector = StreamingStratified(
            20, rng=np.random.default_rng(5)
        )
        reference_monitor = QualityMonitor(window_us=2_000_000)
        reference_accountant = StreamFlowAccountant()
        expected_windows = []
        for timestamp, size, key in iter_flow_keys(subset):
            kept = reference_selector.offer(timestamp)
            expected_windows.extend(
                reference_monitor.observe(timestamp, float(size), kept)
            )
            reference_accountant.observe(timestamp, size, key, kept)
        reference_accountant.flush()

        subject_selector = StreamingStratified(
            20, rng=np.random.default_rng(5)
        )
        subject_monitor = QualityMonitor(window_us=2_000_000)
        subject_accountant = StreamFlowAccountant()
        actual_windows = []
        offered = run_monitor(
            iter_trace_chunks(subset, chunk_packets=1024),
            chunk_kernel_for(subject_selector),
            subject_monitor,
            on_window=actual_windows.append,
            accountant=FlowAccountantKernel(subject_accountant),
        )
        subject_accountant.flush()

        assert offered == len(subset)
        assert [w.as_dict() for w in actual_windows] == [
            w.as_dict() for w in expected_windows
        ]
        assert (
            subject_monitor.store.snapshot()
            == reference_monitor.store.snapshot()
        )
        assert subject_accountant.parent() == reference_accountant.parent()
        assert subject_accountant.sampled() == reference_accountant.sampled()


def window_events(run_dir):
    """The ``window`` events of a run directory, as window records."""
    records = []
    for line in (run_dir / "events.jsonl").read_text().splitlines():
        event = json.loads(line)
        if event.pop("kind") == "window":
            del event["v"], event["seq"]
            records.append(event)
    return records


def csv_text(header, rows):
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def oracle_monitor_selector(method, trace):
    """The selector ``monitor --granularity 10`` builds, by hand."""
    if method == "systematic":
        return StreamingSystematic(10)
    if method == "stratified":
        return StreamingStratified(10, rng=np.random.default_rng(0))
    period_us = TimerSystematicSampler.for_granularity(trace, 10).period_us
    return StreamingTimerSystematic(period_us=period_us)


class TestCliEquivalence:
    """The CLI's chunked output equals the per-packet oracles', end to end."""

    @pytest.mark.parametrize(
        "method", ["systematic", "stratified", "timer-systematic"]
    )
    def test_monitor_output(self, method, pcap_path, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        run_dir = tmp_path / "run"
        code, _output = run_cli(
            [
                "monitor",
                pcap_path,
                "--method",
                method,
                "--granularity",
                "10",
                "--window",
                "1",
                "--status-every",
                "1",
                "--metrics-out",
                str(metrics_path),
                "--run-dir",
                str(run_dir),
            ]
        )
        assert code == 0

        trace = read_pcap(pcap_path)
        selector = oracle_monitor_selector(method, trace)
        monitor = QualityMonitor(window_us=1_000_000)
        windows = []
        for timestamp, size in zip(
            trace.timestamps_us.tolist(), trace.sizes.tolist()
        ):
            kept = selector.offer(timestamp)
            windows.extend(monitor.observe(timestamp, float(size), kept))
        windows.append(monitor.flush())

        assert len(windows) >= 5
        assert window_events(run_dir) == [w.as_dict() for w in windows]
        assert metrics_path.read_text() == render_live_metrics(monitor.store)

    @pytest.mark.parametrize("mode", ["aggregate", "sample"])
    def test_flows_output(self, mode, pcap_path, tmp_path):
        csv_path = tmp_path / "flows.csv"
        code, output = run_cli(
            [
                "flows",
                pcap_path,
                mode,
                "--method",
                "stratified",
                "--granularity",
                "10",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0

        trace = read_pcap(pcap_path)
        if mode == "aggregate":
            table = FlowTable()
            records = aggregate_trace(trace, table=table)
            stats = table.stats()
            assert (
                "%d packets -> %d flow records" % (len(trace), len(records))
                in output
            )
            for reason in ("idle", "active", "evicted", "flush"):
                assert (
                    "exported (%s): %d" % (reason, stats["exported_" + reason])
                    in output
                )
            assert csv_path.read_bytes().decode() == csv_text(
                [
                    "src_net", "dst_net", "src_port", "dst_port",
                    "protocol", "packets", "bytes", "first_us",
                    "last_us", "reason",
                ],
                [
                    [
                        r.src_net, r.dst_net, r.src_port, r.dst_port,
                        r.protocol, r.packets, r.bytes, r.first_us,
                        r.last_us, r.reason,
                    ]
                    for r in records
                ],
            )
            return

        rng = np.random.default_rng(0)
        sampler = make_sampler("stratified", 10, trace=trace, rng=rng)
        result = sampler.sample(trace, rng=rng)
        parent = FlowSet(records=tuple(aggregate_trace(trace)))
        sampled = FlowSet(records=tuple(aggregate_trace(result.apply(trace))))
        assert "parent:  %6d flows" % len(parent) in output
        assert "sampled: %6d flows" % len(sampled) in output
        study = FlowStudy("stratified", 10.0, result.fraction, parent, sampled)
        assert csv_path.read_bytes().decode() == csv_text(
            ["population", "metric", "value"],
            [
                ["parent", "flows", len(parent)],
                ["parent", "mean_packets", parent.mean_size()],
                ["parent", "total_packets", parent.total_packets],
                ["sampled", "flows", len(sampled)],
                ["sampled", "mean_packets", sampled.mean_size()],
                ["sampled", "total_packets", sampled.total_packets],
                ["sampled", "detected_fraction",
                 study.summary()["detected_fraction"]],
            ],
        )
