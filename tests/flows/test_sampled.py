"""Sampled-flow populations and the streaming accountant."""

import numpy as np
import pytest

from repro.core.sampling.factory import make_sampler
from repro.core.sampling.streaming import StreamingSystematic
from repro.flows.sampled import (
    FLOW_SIZE_BINS,
    NULL_ACCOUNTANT,
    FlowSet,
    NullFlowAccountant,
    StreamFlowAccountant,
    flow_study,
    parent_flows,
    sampled_flows,
    shard_flow_summary,
    study_from_result,
)
from repro.flows.table import FlowTable, aggregate_trace, iter_flow_keys
from repro.obs.live.store import LiveMetricsStore


class TestFlowSet:
    def test_summaries(self, tiny_trace):
        population = parent_flows(tiny_trace)
        assert len(population) == len(population.records)
        assert population.total_packets == len(tiny_trace)
        assert population.total_bytes == int(tiny_trace.sizes.sum())
        assert population.mean_size() == pytest.approx(
            len(tiny_trace) / len(population)
        )
        assert population.sizes().dtype == np.int64

    def test_empty(self):
        empty = FlowSet(records=())
        assert len(empty) == 0
        assert empty.total_packets == 0
        assert empty.mean_size() == 0.0
        assert empty.keys() == frozenset()

    def test_size_counts_over_bins(self, minute_trace):
        population = parent_flows(minute_trace)
        counts = population.size_counts()
        assert counts.shape == (FLOW_SIZE_BINS.n_bins,)
        assert counts.sum() == len(population)


class TestSampledFlows:
    def test_sampled_is_subset_of_parent(self, minute_trace):
        sampler = make_sampler("systematic", granularity=50)
        result = sampler.sample(minute_trace)
        parent = parent_flows(minute_trace)
        sampled = sampled_flows(minute_trace, result)
        assert sampled.keys() <= parent.keys()
        assert sampled.total_packets == len(result.indices)

    def test_flow_study_summary(self, minute_trace):
        sampler = make_sampler("systematic", granularity=50)
        study = flow_study(
            minute_trace, sampler, rng=np.random.default_rng(0)
        )
        assert study.method == "systematic"
        assert study.granularity == 50.0
        assert 0.0 < study.detected_fraction < 1.0
        summary = study.summary()
        assert summary["parent_flows"] == float(len(study.parent))
        assert summary["sampled_flows"] == float(len(study.sampled))
        # Sampling shrinks surviving flows, never grows them.
        assert (
            summary["sampled_mean_packets"] < summary["parent_mean_packets"]
        )

    def test_study_matches_harness_selection(self, minute_trace):
        """The study's sample is the one the harness would draw."""
        sampler = make_sampler("stratified", granularity=64)
        direct = sampler.sample(minute_trace, rng=np.random.default_rng(7))
        study = study_from_result(minute_trace, direct)
        assert study.sampled.total_packets == len(direct.indices)
        again = flow_study(
            minute_trace,
            make_sampler("stratified", granularity=64),
            rng=np.random.default_rng(7),
        )
        assert again.sampled.records == study.sampled.records

    def test_shard_flow_summary_pure_function(self, minute_trace):
        sampler = make_sampler("systematic", granularity=50)
        result = sampler.sample(minute_trace)
        bare = shard_flow_summary(minute_trace, result.indices)
        cached = shard_flow_summary(
            minute_trace, result.indices, parent=parent_flows(minute_trace)
        )
        assert bare == cached
        assert set(bare) == {
            "parent_flows",
            "sampled_flows",
            "detected_fraction",
            "parent_mean_packets",
            "sampled_mean_packets",
        }


#: Flow caches outside the default regime: a short active timeout
#: restarts long flows; a tiny cache evicts in LRU order.
TABLE_CONFIGS = {
    "active-restarts": dict(
        idle_timeout_us=2_000_000, active_timeout_us=3_000_000
    ),
    "lru-eviction": dict(
        idle_timeout_us=200_000, active_timeout_us=1_000_000, max_flows=16
    ),
}


class TestKernelMatchesOracle:
    """Every population comes from the chunk kernel; the per-packet
    :func:`aggregate_trace` is the oracle, records and table stats."""

    @pytest.fixture(params=sorted(TABLE_CONFIGS))
    def config(self, request):
        return TABLE_CONFIGS[request.param]

    @staticmethod
    def oracle(trace, config):
        table = FlowTable(**config)
        return tuple(aggregate_trace(trace, table=table)), table.stats()

    def test_parent_flows(self, minute_trace, config):
        table = FlowTable(**config)
        records = parent_flows(minute_trace, table=table).records
        expected, expected_stats = self.oracle(minute_trace, config)
        assert records == expected
        assert table.stats() == expected_stats
        regime = (
            "exported_evicted" if "max_flows" in config else "exported_active"
        )
        assert expected_stats[regime] > 0

    def test_sampled_flows(self, minute_trace, config):
        result = make_sampler("systematic", granularity=4).sample(minute_trace)
        table = FlowTable(**config)
        records = sampled_flows(minute_trace, result, table=table).records
        expected, expected_stats = self.oracle(
            result.apply(minute_trace), config
        )
        assert records == expected
        assert table.stats() == expected_stats

    def test_flow_study(self, minute_trace, config):
        tables = []

        def table_factory():
            tables.append(FlowTable(**config))
            return tables[-1]

        study = flow_study(
            minute_trace,
            make_sampler("stratified", granularity=8),
            rng=np.random.default_rng(3),
            table_factory=table_factory,
        )
        result = make_sampler("stratified", granularity=8).sample(
            minute_trace, rng=np.random.default_rng(3)
        )
        parent, parent_stats = self.oracle(minute_trace, config)
        sampled, sampled_stats = self.oracle(
            result.apply(minute_trace), config
        )
        assert study.parent.records == parent
        assert study.sampled.records == sampled
        assert [table.stats() for table in tables] == [
            parent_stats,
            sampled_stats,
        ]

    def test_shard_flow_summary(self, minute_trace):
        result = make_sampler("systematic", granularity=50).sample(
            minute_trace
        )
        parent = FlowSet(records=tuple(aggregate_trace(minute_trace)))
        sampled = FlowSet(
            records=tuple(
                aggregate_trace(minute_trace.select(result.indices))
            )
        )
        summary = shard_flow_summary(minute_trace, result.indices)
        assert summary["parent_flows"] == len(parent)
        assert summary["sampled_flows"] == len(sampled)
        assert summary["parent_mean_packets"] == round(parent.mean_size(), 6)
        assert summary["sampled_mean_packets"] == round(
            sampled.mean_size(), 6
        )
        detected = len(sampled.keys() & parent.keys()) / len(parent.keys())
        assert summary["detected_fraction"] == round(detected, 6)


class TestStreamFlowAccountant:
    def _run(self, trace, granularity=10, store=None):
        accountant = StreamFlowAccountant(store=store)
        selector = StreamingSystematic(granularity)
        for timestamp, size, key in iter_flow_keys(trace):
            kept = selector.offer(timestamp)
            accountant.observe(timestamp, size, key, kept)
        accountant.flush()
        return accountant

    def test_matches_batch_aggregation(self, tiny_trace):
        """Streaming accounting equals batch aggregation of both sides."""
        accountant = self._run(tiny_trace, granularity=2)
        assert accountant.parent().records == tuple(
            aggregate_trace(tiny_trace)
        )
        selector = StreamingSystematic(2)
        indices = selector.offer_all(tiny_trace.timestamps_us)
        assert accountant.sampled().records == tuple(
            aggregate_trace(tiny_trace.select(indices))
        )

    def test_metrics_exposed(self, tiny_trace):
        store = LiveMetricsStore()
        accountant = self._run(tiny_trace, granularity=2, store=store)
        snapshot = {
            name: value for name, value in store.snapshot()["counters"].items()
        }
        assert snapshot["flow_cache_exported_parent"] == len(
            accountant.parent()
        )
        assert snapshot["flow_cache_exported_sampled"] == len(
            accountant.sampled()
        )
        gauges = dict(store.snapshot()["gauges"])
        assert gauges["flow_cache_occupancy_parent"] == 0.0
        assert gauges["flow_cache_peak_occupancy_parent"] >= 1.0

    def test_skip_only_stream_never_touches_sampled_table(self, tiny_trace):
        accountant = StreamFlowAccountant()
        for timestamp, size, key in iter_flow_keys(tiny_trace):
            accountant.observe(timestamp, size, key, kept=False)
        accountant.flush()
        assert len(accountant.parent()) > 0
        assert len(accountant.sampled()) == 0

    def test_null_twin_is_inert(self, tiny_trace):
        assert NULL_ACCOUNTANT.enabled is False
        assert isinstance(NULL_ACCOUNTANT, NullFlowAccountant)
        for timestamp, size, key in iter_flow_keys(tiny_trace):
            assert NULL_ACCOUNTANT.observe(timestamp, size, key, True) is None
        assert NULL_ACCOUNTANT.flush() is None

    def test_enabled_flag(self):
        assert StreamFlowAccountant.enabled is True
        assert NullFlowAccountant.enabled is False
