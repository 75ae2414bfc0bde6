"""Flow-accounting parity: vectorized chunks vs the per-packet table.

:func:`repro.fastpath.flows.account_chunk` must leave the flow table —
entries, LRU order, counters, last timestamp — and the exported record
stream bit-identical to per-packet :meth:`FlowTable.observe` calls, for
any chunking.  Idle expiry and active timeouts are reconstructed
vectorially, so the eventful cases below exercise those exports
directly; only an emergency eviction or a backwards timestamp replays
the chunk per packet, and :attr:`FlowAccountantKernel.demoted_packets`
counts exactly those replays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath.flows import (
    FlowAccountantKernel,
    account_chunk,
    encode_flow_keys,
    fast_aggregate_trace,
)
from repro.flows.sampled import StreamFlowAccountant
from repro.flows.table import (
    REASON_ACTIVE,
    REASON_IDLE,
    FlowTable,
    aggregate_trace,
    iter_flow_keys,
)
from repro.trace.trace import Trace


def feed_per_packet(table: FlowTable, trace: Trace):
    records = []
    for timestamp_us, size, key in iter_flow_keys(trace):
        records.extend(table.observe(timestamp_us, size, key))
    return records


def chunk_bounds(n: int, chunk_sizes):
    """``(start, stop)`` per chunk; the remainder after the listed sizes
    is one final chunk."""
    start = 0
    for size in list(chunk_sizes) + [n]:
        stop = min(start + size, n)
        yield start, stop
        start = stop
        if start >= n:
            break


def feed_chunked(table: FlowTable, trace: Trace, chunk_sizes):
    records = []
    keys = encode_flow_keys(trace)
    for start, stop in chunk_bounds(len(trace), chunk_sizes):
        records.extend(
            account_chunk(
                table,
                trace.timestamps_us[start:stop],
                trace.sizes[start:stop],
                keys[start:stop],
            )
        )
    return records


def assert_tables_identical(reference: FlowTable, subject: FlowTable):
    assert subject.stats() == reference.stats()
    assert subject._last_timestamp == reference._last_timestamp
    # Same entries in the same LRU order, field for field.
    assert list(subject._entries.keys()) == list(reference._entries.keys())
    for key, expected in reference._entries.items():
        entry = subject._entries[key]
        assert (entry.packets, entry.bytes, entry.first_us, entry.last_us) == (
            expected.packets,
            expected.bytes,
            expected.first_us,
            expected.last_us,
        )


def run_accountants(trace: Trace, kept, chunk_sizes, **table_kwargs):
    """Per-packet ``observe`` vs :class:`FlowAccountantKernel` chunks.

    Returns ``(reference, subject, kernel)``; neither side is flushed.
    """
    reference = StreamFlowAccountant(**table_kwargs)
    for i, (timestamp_us, size, key) in enumerate(iter_flow_keys(trace)):
        reference.observe(timestamp_us, size, key, bool(kept[i]))
    subject = StreamFlowAccountant(**table_kwargs)
    kernel = FlowAccountantKernel(subject)
    for start, stop in chunk_bounds(len(trace), chunk_sizes):
        kernel.observe_chunk(
            trace.slice_packets(start, stop), kept[start:stop]
        )
    return reference, subject, kernel


def assert_accountants_identical(
    reference: StreamFlowAccountant, subject: StreamFlowAccountant
):
    assert subject.parent() == reference.parent()
    assert subject.sampled() == reference.sampled()
    assert_tables_identical(reference.parent_table, subject.parent_table)
    assert_tables_identical(reference.sampled_table, subject.sampled_table)
    assert subject.store.snapshot() == reference.store.snapshot()


def with_demotions(snapshot, kernel: FlowAccountantKernel):
    """A per-packet accountant's store snapshot plus the counters the
    kernel adds for its replays (one per cause that demoted packets)."""
    counters = dict(snapshot["counters"])
    for reason, packets in kernel.demoted_packets.items():
        if packets:
            counters["flow_cache_demoted_packets_" + reason] = packets
    return dict(snapshot, counters=dict(sorted(counters.items())))


def assert_not_demoted(kernel: FlowAccountantKernel):
    assert not any(kernel.demoted_packets.values()), kernel.demoted_packets


def keyed_trace(packets) -> Trace:
    """A trace from ``(timestamp_us, key_id)`` pairs; each id is its own
    5-tuple (source port ``1000 + id``) and packet size ``100 + id``."""
    timestamps, ids = (
        np.asarray(column, dtype=np.int64) for column in zip(*packets)
    )
    n = ids.size
    return Trace(
        timestamps_us=timestamps,
        sizes=(100 + ids).astype(np.int32),
        protocols=np.full(n, 6, dtype=np.int64),
        src_nets=np.ones(n, dtype=np.int64),
        dst_nets=np.full(n, 2, dtype=np.int64),
        src_ports=1000 + ids,
        dst_ports=np.full(n, 23, dtype=np.int64),
    )


def flow_trace(n: int, seed: int, keys: int = 40, gap_hi: int = 5000) -> Trace:
    """A synthetic stream over a small 5-tuple population."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, gap_hi, size=n)
    which = rng.integers(0, keys, size=n)
    return Trace(
        timestamps_us=np.cumsum(gaps).astype(np.int64),
        sizes=rng.integers(28, 1500, size=n).astype(np.int32),
        protocols=np.where(which % 3 == 0, 17, 6).astype(np.int64),
        src_nets=(which % 7).astype(np.int64),
        dst_nets=(1000 + which % 11).astype(np.int64),
        src_ports=(1024 + which).astype(np.int64),
        dst_ports=np.where(which % 3 == 0, 53, 23).astype(np.int64),
    )


class TestEventFreeChunks:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=9999),
        chunk_sizes=st.lists(
            st.integers(min_value=0, max_value=80), max_size=30
        ),
    )
    def test_chunking_invariance(self, n, seed, chunk_sizes):
        trace = flow_trace(n, seed)
        reference, subject = FlowTable(), FlowTable()
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, chunk_sizes)
        assert actual == expected
        assert_tables_identical(reference, subject)
        assert subject.flush() == reference.flush()

    def test_event_free_chunk_exports_nothing(self):
        trace = flow_trace(200, seed=1)
        table = FlowTable()
        records = account_chunk(
            table, trace.timestamps_us, trace.sizes, encode_flow_keys(trace)
        )
        assert records == []

    def test_repeat_packets_accumulate(self, tiny_trace):
        reference, subject = FlowTable(), FlowTable()
        expected = feed_per_packet(reference, tiny_trace)
        actual = feed_chunked(subject, tiny_trace, [1] * len(tiny_trace))
        assert actual == expected
        assert_tables_identical(reference, subject)


class TestEventfulFallback:
    """Eventful chunks: vectorized idle expiry and exact eviction replay."""

    def test_idle_expiry_interleaved(self):
        # Gaps larger than the idle timeout force intra-chunk expiries.
        trace = flow_trace(300, seed=2, gap_hi=400_000)
        timeouts = dict(idle_timeout_us=1_000_000, active_timeout_us=10**9)
        reference = FlowTable(**timeouts)
        subject = FlowTable(**timeouts)
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, [37] * 9)
        assert actual == expected
        assert_tables_identical(reference, subject)

    def test_lru_eviction_at_capacity(self):
        trace = flow_trace(400, seed=4, keys=60)
        reference = FlowTable(max_flows=16)
        subject = FlowTable(max_flows=16)
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, [50] * 8)
        assert actual == expected
        assert_tables_identical(reference, subject)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        chunk=st.integers(min_value=1, max_value=120),
        max_flows=st.integers(min_value=2, max_value=30),
        idle_ms=st.integers(min_value=50, max_value=2000),
    )
    def test_eventful_property(self, seed, chunk, max_flows, idle_ms):
        trace = flow_trace(250, seed=seed, gap_hi=100_000)
        kwargs = dict(
            idle_timeout_us=idle_ms * 1000,
            active_timeout_us=5_000_000,
            max_flows=max_flows,
        )
        reference = FlowTable(**kwargs)
        subject = FlowTable(**kwargs)
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, [chunk] * (250 // chunk + 1))
        assert actual == expected
        assert_tables_identical(reference, subject)


class TestActiveTimeouts:
    """Active-timeout restarts are reconstructed vectorially, never replayed."""

    #: Short timeouts for handmade traces: idle 10 us, active 20 us.
    SHORT = dict(idle_timeout_us=10, active_timeout_us=20)

    def test_active_timeout(self):
        trace = flow_trace(300, seed=3, keys=5, gap_hi=50_000)
        timeouts = dict(idle_timeout_us=2_000_000, active_timeout_us=2_000_000)
        reference = FlowTable(**timeouts)
        subject = FlowTable(**timeouts)
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, [64] * 5)
        assert actual == expected
        assert_tables_identical(reference, subject)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=300),
        seed=st.integers(min_value=0, max_value=9999),
        keys=st.integers(min_value=1, max_value=12),
        idle_ms=st.integers(min_value=1, max_value=50),
        active_factor=st.integers(min_value=1, max_value=6),
        active_permille=st.integers(min_value=0, max_value=999),
        gap_divisor=st.integers(min_value=1, max_value=40),
        keep_every=st.integers(min_value=1, max_value=4),
        chunk_sizes=st.lists(
            st.integers(min_value=0, max_value=120), max_size=20
        ),
    )
    def test_active_property(
        self,
        n,
        seed,
        keys,
        idle_ms,
        active_factor,
        active_permille,
        gap_divisor,
        keep_every,
        chunk_sizes,
    ):
        # active == idle when factor is 1 and permille 0; small gaps
        # relative to idle keep segments alive across many timeouts.
        idle_us = idle_ms * 1000
        timeouts = dict(
            idle_timeout_us=idle_us,
            active_timeout_us=idle_us * active_factor
            + idle_us * active_permille // 1000,
        )
        trace = flow_trace(
            n, seed, keys=keys, gap_hi=max(1, idle_us // gap_divisor)
        )
        kept = np.arange(n) % keep_every == 0
        reference, subject, kernel = run_accountants(
            trace, kept, chunk_sizes, **timeouts
        )
        assert_accountants_identical(reference, subject)
        reference.flush()
        kernel.flush()
        assert_accountants_identical(reference, subject)
        assert_not_demoted(kernel)

    def test_restart_at_first_chunk_packet(self):
        # Key 0's live entry (first_us 0) is still idle-fresh at 20 but
        # active-expired: it exports whole, reason active, at that packet.
        trace = keyed_trace([(0, 0), (5, 0), (12, 0), (20, 0), (25, 0)])
        reference = FlowTable(**self.SHORT)
        subject = FlowTable(**self.SHORT)
        expected = feed_per_packet(reference, trace)
        keys = encode_flow_keys(trace)
        assert account_chunk(
            subject, trace.timestamps_us[:3], trace.sizes[:3], keys[:3]
        ) == []
        records = account_chunk(
            subject, trace.timestamps_us[3:], trace.sizes[3:], keys[3:]
        )
        assert records == expected
        assert [(r.reason, r.packets, r.first_us, r.last_us) for r in records] == [
            (REASON_ACTIVE, 3, 0, 12)
        ]
        assert_tables_identical(reference, subject)
        assert subject.flush() == reference.flush()

    @pytest.mark.parametrize("chunk_sizes", [[], [3], [1] * 21])
    def test_many_restarts_in_one_segment(self, chunk_sizes):
        # One key every 5 us over 100 us: restarts at 20, 40, 60, 80, 100.
        trace = keyed_trace([(t, 0) for t in range(0, 105, 5)])
        reference = FlowTable(**self.SHORT)
        subject = FlowTable(**self.SHORT)
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, chunk_sizes)
        assert actual == expected
        assert [(r.reason, r.first_us, r.last_us) for r in actual] == [
            (REASON_ACTIVE, first, first + 15) for first in range(0, 100, 20)
        ]
        assert subject.exported[REASON_ACTIVE] == 5
        assert subject.flows_created == 6
        assert_tables_identical(reference, subject)
        assert subject.flush() == reference.flush()

    @pytest.mark.parametrize("chunk_sizes", [[], [5], [3], [1] * 6])
    def test_idle_expiries_precede_active_export(self, chunk_sizes):
        # At t=20 keys 1 and 2 go idle (LRU order) and key 0's active
        # timeout fires: two idle exports, then the active one.
        trace = keyed_trace(
            [(0, 0), (6, 0), (8, 1), (9, 2), (15, 0), (20, 0)]
        )
        reference = FlowTable(**self.SHORT)
        subject = FlowTable(**self.SHORT)
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, chunk_sizes)
        assert actual == expected
        assert [(r.reason, r.src_port) for r in actual] == [
            (REASON_IDLE, 1001),
            (REASON_IDLE, 1002),
            (REASON_ACTIVE, 1000),
        ]
        assert_tables_identical(reference, subject)
        assert subject.flush() == reference.flush()

    def test_sampled_side_restarts(self):
        trace = flow_trace(600, seed=8, keys=6, gap_hi=20_000)
        kept = np.arange(len(trace)) % 3 == 1
        timeouts = dict(idle_timeout_us=400_000, active_timeout_us=1_000_000)
        reference, subject, kernel = run_accountants(
            trace, kept, [97] * 7, **timeouts
        )
        assert reference.sampled_table.exported[REASON_ACTIVE] > 0
        assert_accountants_identical(reference, subject)
        reference.flush()
        kernel.flush()
        assert_accountants_identical(reference, subject)
        assert_not_demoted(kernel)


class TestActiveTimeoutCliff:
    """Calibrated traffic where the active timeout fires inside chunks.

    The full hour crosses NetFlow's 30-minute active timeout; here a
    60 s timeout makes five minutes cross it several times, at the
    production chunk size and a smaller one.
    """

    TIMEOUTS = dict(idle_timeout_us=15_000_000, active_timeout_us=60_000_000)

    @pytest.fixture(scope="class")
    def kept(self, five_minute_trace):
        return np.arange(len(five_minute_trace)) % 50 == 7

    @pytest.fixture(scope="class")
    def reference(self, five_minute_trace, kept):
        reference = StreamFlowAccountant(**self.TIMEOUTS)
        for i, (timestamp_us, size, key) in enumerate(
            iter_flow_keys(five_minute_trace)
        ):
            reference.observe(timestamp_us, size, key, bool(kept[i]))
        return reference

    @pytest.mark.parametrize("chunk", [4096, 65536])
    def test_matches_per_packet_without_demotion(
        self, five_minute_trace, kept, reference, chunk
    ):
        assert reference.parent_table.exported[REASON_ACTIVE] > 0
        assert reference.sampled_table.exported[REASON_ACTIVE] > 0
        subject = StreamFlowAccountant(**self.TIMEOUTS)
        kernel = FlowAccountantKernel(subject)
        for start, stop in chunk_bounds(
            len(five_minute_trace), [chunk] * (len(five_minute_trace) // chunk)
        ):
            kernel.observe_chunk(
                five_minute_trace.slice_packets(start, stop), kept[start:stop]
            )
        assert_accountants_identical(reference, subject)
        assert_not_demoted(kernel)


class TestFastAggregateTrace:
    @pytest.mark.parametrize("chunk_packets", [1, 7, 1000, 10**9])
    def test_matches_reference(self, chunk_packets, tiny_trace):
        assert fast_aggregate_trace(
            tiny_trace, chunk_packets=chunk_packets
        ).to_records() == aggregate_trace(tiny_trace)

    def test_minute_trace_with_table_stats(self, minute_trace):
        subset = minute_trace.slice_packets(0, 8000)
        reference, subject = FlowTable(), FlowTable()
        expected = aggregate_trace(subset, table=reference)
        actual = fast_aggregate_trace(
            subset, table=subject, chunk_packets=1024
        )
        assert actual.to_records() == expected
        assert subject.stats() == reference.stats()

    def test_rejects_bad_chunk(self, tiny_trace):
        with pytest.raises(ValueError, match="chunk_packets"):
            fast_aggregate_trace(tiny_trace, chunk_packets=0)

    def test_empty_trace(self):
        assert fast_aggregate_trace(Trace.empty()).to_records() == []


class TestAccountantKernel:
    def _run(self, trace: Trace, kept: np.ndarray, chunk: int):
        reference, subject, kernel = run_accountants(
            trace, kept, [chunk] * (len(trace) // chunk)
        )
        reference.flush()
        kernel.flush()
        return reference, subject

    @pytest.mark.parametrize("chunk", [1, 13, 500])
    def test_records_and_metrics_identical(self, chunk):
        trace = flow_trace(500, seed=6)
        kept = np.arange(len(trace)) % 10 == 3
        reference, subject = self._run(trace, kept, chunk)
        assert subject.parent() == reference.parent()
        assert subject.sampled() == reference.sampled()
        assert subject.store.snapshot() == reference.store.snapshot()

    def test_eventful_side_falls_back(self):
        trace = flow_trace(400, seed=7, gap_hi=300_000)
        kept = np.ones(len(trace), dtype=bool)
        reference, subject, kernel = run_accountants(
            trace,
            kept,
            [64] * (len(trace) // 64),
            idle_timeout_us=500_000,
            max_flows=8,
        )
        assert subject.parent() == reference.parent()
        assert subject.store.snapshot() == with_demotions(
            reference.store.snapshot(), kernel
        )
        assert kernel.demoted_packets["eviction"] > 0
        assert kernel.demoted_packets["backwards_time"] == 0

    def test_eviction_storm_raises_its_store_counter(self):
        trace = flow_trace(400, seed=7, gap_hi=300_000)
        kept = np.zeros(len(trace), dtype=bool)
        _, subject, kernel = run_accountants(
            trace, kept, [64] * (len(trace) // 64), max_flows=16
        )
        counters = subject.store.snapshot()["counters"]
        assert counters["flow_cache_evictions_parent"] > 0
        assert counters["flow_cache_demoted_packets_eviction"] == (
            kernel.demoted_packets["eviction"]
        )
        assert kernel.demoted_packets["eviction"] > 0
        assert "flow_cache_demoted_packets_backwards_time" not in counters

    def test_backwards_time_counts_demoted_chunk(self):
        # A later chunk that starts before the previous one ended.
        first = keyed_trace([(10, 0), (20, 1)])
        second = keyed_trace([(15, 0), (30, 1), (40, 2)])
        kernel = FlowAccountantKernel(StreamFlowAccountant())
        kernel.observe_chunk(first, np.zeros(len(first), dtype=bool))
        with pytest.raises(ValueError, match="time went backwards"):
            kernel.observe_chunk(second, np.zeros(len(second), dtype=bool))
        assert kernel.demoted_packets == {
            "eviction": 0,
            "backwards_time": len(second),
        }
        counters = kernel.accountant.store.snapshot()["counters"]
        assert counters["flow_cache_demoted_packets_backwards_time"] == len(
            second
        )
        assert "flow_cache_demoted_packets_eviction" not in counters

    def test_no_demotion_counter_without_a_replay(self):
        trace = flow_trace(500, seed=6)
        kept = np.arange(len(trace)) % 10 == 3
        _, subject, kernel = run_accountants(trace, kept, [100] * 5)
        assert_not_demoted(kernel)
        assert not any(
            name.startswith("flow_cache_demoted")
            for name in subject.store.snapshot()["counters"]
        )

    def test_mask_shape_checked(self, tiny_trace):
        kernel = FlowAccountantKernel(StreamFlowAccountant())
        with pytest.raises(ValueError, match="keep mask"):
            kernel.observe_chunk(tiny_trace, np.ones(3, dtype=bool))
