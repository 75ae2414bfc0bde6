"""The columnar flow populations against row-built references.

Every summary a flow-level consumer reads — sizes, byte sizes, keys,
size counts, mean size, detected fraction — and the lazy ``records``
view of a kernel-built :class:`FlowSet` must equal what the rows of the
per-packet references give: :func:`aggregate_trace` for whole-trace
populations and :meth:`StreamFlowAccountant.observe` for the online
accountant.  The traces are chunked at random and drive the costly
regimes: active timeouts, LRU eviction storms and backwards time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling.streaming import StreamingStratified
from repro.fastpath import (
    FlowAccountantKernel,
    fast_aggregate_trace,
    run_monitor,
)
from repro.fastpath.pipeline import chunk_kernel_for, iter_trace_chunks
from repro.flows import table as flow_table
from repro.flows.sampled import (
    FLOW_SIZE_BINS,
    FlowSet,
    FlowStudy,
    StreamFlowAccountant,
)
from repro.flows.table import FlowTable, aggregate_trace, iter_flow_keys
from repro.obs.live import QualityMonitor
from repro.trace.trace import Trace

#: Flow-cache settings and traffic shape per regime.
SCENARIOS = {
    "idle-expiry": dict(
        table=dict(idle_timeout_us=200_000), keys=40, gap_hi=60_000
    ),
    "active-timeout": dict(
        table=dict(idle_timeout_us=500_000, active_timeout_us=1_000_000),
        keys=6,
        gap_hi=20_000,
    ),
    "eviction-storm": dict(table=dict(max_flows=8), keys=40, gap_hi=5_000),
    "backwards-time": dict(
        table=dict(idle_timeout_us=200_000), keys=20, gap_hi=60_000
    ),
}


def scenario_trace(name: str, n: int, seed: int, origin_us: int = 0) -> Trace:
    """``n`` packets from ``origin_us`` over a small 5-tuple population."""
    shape = SCENARIOS[name]
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, shape["gap_hi"], size=n)
    which = rng.integers(0, shape["keys"], size=n)
    return Trace(
        timestamps_us=(origin_us + np.cumsum(gaps)).astype(np.int64),
        sizes=rng.integers(28, 1500, size=n).astype(np.int32),
        protocols=np.where(which % 3 == 0, 17, 6).astype(np.int64),
        src_nets=(which % 7).astype(np.int64),
        dst_nets=(1000 + which % 11).astype(np.int64),
        src_ports=(1024 + which).astype(np.int64),
        dst_ports=np.where(which % 3 == 0, 53, 23).astype(np.int64),
    )


def scenario_chunks(name: str, n: int, seed: int, chunk_sizes):
    """The scenario's stream as chunks; in the backwards-time scenario a
    last chunk starts before the stream's latest timestamp."""
    trace = scenario_trace(name, n, seed)
    chunks = [
        trace.slice_packets(start, stop)
        for start, stop in chunk_bounds(n, chunk_sizes)
    ]
    if name == "backwards-time" and n > 1:
        late_origin = int(trace.timestamps_us[-1]) // 2
        chunks.append(scenario_trace(name, 20, seed + 1, late_origin))
    return chunks


def row_summary(records):
    """The summaries, computed from :class:`FlowRecord` rows alone."""
    sizes = [record.packets for record in records]
    return {
        "sizes": sizes,
        "byte_sizes": [record.bytes for record in records],
        "keys": frozenset(record.key for record in records),
        "size_counts": FLOW_SIZE_BINS.counts(
            np.asarray(sizes, dtype=np.float64)
        ).tolist(),
        "mean_size": sum(sizes) / len(sizes) if sizes else 0.0,
        "records": tuple(records),
    }


def set_summary(flows: FlowSet):
    return {
        "sizes": flows.sizes().tolist(),
        "byte_sizes": flows.byte_sizes().tolist(),
        "keys": flows.keys(),
        "size_counts": flows.size_counts().tolist(),
        "mean_size": flows.mean_size(),
        "records": flows.records,
    }


def row_detected_fraction(parent_records, sampled_records) -> float:
    parent_keys = frozenset(record.key for record in parent_records)
    if not parent_keys:
        return 0.0
    sampled_keys = frozenset(record.key for record in sampled_records)
    return len(sampled_keys & parent_keys) / len(parent_keys)


def feed_rows(trace: Trace, table: FlowTable):
    """Per-packet rows, no flush (the accountant's state mid-stream)."""
    records = []
    for timestamp_us, size, key in iter_flow_keys(trace):
        records.extend(table.observe(timestamp_us, size, key))
    return records


def chunk_bounds(n: int, chunk_sizes):
    start = 0
    for size in list(chunk_sizes) + [n]:
        stop = min(start + max(size, 1), n)
        if start >= n:
            break
        yield start, stop
        start = stop


def assert_columns_match_rows(parent, sampled, parent_rows, sampled_rows):
    assert set_summary(parent) == row_summary(parent_rows)
    assert set_summary(sampled) == row_summary(sampled_rows)
    study = FlowStudy("systematic", 1.0, 1.0, parent, sampled)
    assert study.detected_fraction == row_detected_fraction(
        parent_rows, sampled_rows
    )


@settings(max_examples=40, deadline=None)
@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    n=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=9999),
    chunk_sizes=st.lists(st.integers(min_value=1, max_value=90), max_size=12),
    keep_every=st.integers(min_value=1, max_value=5),
)
def test_accountant_populations_match_rows(
    scenario, n, seed, chunk_sizes, keep_every
):
    config = SCENARIOS[scenario]["table"]
    reference = StreamFlowAccountant(**config)
    subject = StreamFlowAccountant(**config)
    kernel = FlowAccountantKernel(subject)
    accepted, refused = [], False
    for chunk in scenario_chunks(scenario, n, seed, chunk_sizes):
        kept = np.arange(len(chunk)) % keep_every == 0
        try:
            for row, keep in zip(iter_flow_keys(chunk), kept.tolist()):
                reference.observe(*row, keep)
        except ValueError:
            # Backwards time: the kernel refuses the same chunk, having
            # published nothing from it.
            assert scenario == "backwards-time"
            with pytest.raises(ValueError, match="time went backwards"):
                kernel.observe_chunk(chunk, kept)
            assert kernel.demoted_packets["backwards_time"] == len(chunk)
            refused = True
            break
        kernel.observe_chunk(chunk, kept)
        accepted.append((chunk, kept))
    else:
        reference.flush()
        kernel.flush()
        assert subject.parent() == reference.parent()
        assert subject.sampled() == reference.sampled()
    parent_rows, sampled_rows = [], []
    parent_table, sampled_table = FlowTable(**config), FlowTable(**config)
    for chunk, kept in accepted:
        parent_rows += feed_rows(chunk, parent_table)
        sampled_rows += feed_rows(
            chunk.select(np.flatnonzero(kept)), sampled_table
        )
    if not refused:
        parent_rows += parent_table.flush()
        sampled_rows += sampled_table.flush()
    assert_columns_match_rows(
        subject.parent(), subject.sampled(), parent_rows, sampled_rows
    )


@settings(max_examples=30, deadline=None)
@given(
    scenario=st.sampled_from(sorted(set(SCENARIOS) - {"backwards-time"})),
    n=st.integers(min_value=0, max_value=300),
    seed=st.integers(min_value=0, max_value=9999),
    chunk_packets=st.integers(min_value=1, max_value=120),
)
def test_aggregate_populations_match_rows(scenario, n, seed, chunk_packets):
    trace = scenario_trace(scenario, n, seed)
    config = SCENARIOS[scenario]["table"]
    sample = trace.select(np.arange(0, n, 3))
    parent = FlowSet(
        columns=fast_aggregate_trace(
            trace, FlowTable(**config), chunk_packets=chunk_packets
        )
    )
    sampled = FlowSet(
        columns=fast_aggregate_trace(
            sample, FlowTable(**config), chunk_packets=chunk_packets
        )
    )
    assert_columns_match_rows(
        parent,
        sampled,
        aggregate_trace(trace, FlowTable(**config)),
        aggregate_trace(sample, FlowTable(**config)),
    )


def test_online_path_builds_no_flow_records(five_minute_trace, monkeypatch):
    """A monitored run exporting idle and active flows builds its
    :class:`FlowRecord` rows only when ``records`` is first read."""
    built = []
    original = flow_table.FlowRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(flow_table.FlowRecord, "__init__", counting_init)
    accountant = StreamFlowAccountant(active_timeout_us=60_000_000)
    kernel = FlowAccountantKernel(accountant)
    run_monitor(
        iter_trace_chunks(five_minute_trace, 4096),
        chunk_kernel_for(
            StreamingStratified(20, rng=np.random.default_rng(3))
        ),
        QualityMonitor(window_us=10_000_000),
        accountant=kernel,
    )
    kernel.flush()
    stats = accountant.parent_table.stats()
    assert stats["exported_idle"] > 0 and stats["exported_active"] > 0
    assert not any(kernel.demoted_packets.values())
    parent, sampled = accountant.parent(), accountant.sampled()
    parent.sizes(), parent.keys(), sampled.size_counts()
    assert built == []
    assert len(parent.records) == len(parent)
    assert len(built) == len(parent)
