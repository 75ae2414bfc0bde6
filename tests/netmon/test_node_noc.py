"""Backbone node wiring and NOC polling."""

import numpy as np
import pytest

from repro.netmon.collector import T3_SAMPLING_GRANULARITY, Collector
from repro.netmon.node import BackboneNode
from repro.netmon.noc import CollectionAgent, PollRecord
from repro.netmon.objects import t3_object_set
from repro.trace.trace import Trace


def arts_collector():
    """The ARTS configuration: 1-in-50 firmware select, T3 objects."""
    return Collector(
        2000, granularity=T3_SAMPLING_GRANULARITY, objects=t3_object_set()
    )


def steady_trace(seconds=4, pps=100):
    n = seconds * pps
    return Trace(
        timestamps_us=np.linspace(
            0, seconds * 1_000_000 - 1, n
        ).astype(np.int64),
        sizes=[200] * n,
    )


class TestBackboneNode:
    def test_snmp_counts_everything(self):
        node = BackboneNode("n", Collector(10))
        node.process_trace(steady_trace(seconds=3, pps=100))
        assert node.interface.packets == 300

    def test_collector_limited_by_capacity(self):
        node = BackboneNode("n", Collector(60))
        node.process_trace(steady_trace(seconds=3, pps=100))
        assert node.collector.examined_packets == 180
        assert node.collector.dropped_packets == 120

    def test_per_second_batching(self):
        """process_trace must feed whole-second batches."""

        class RecordingCollector(Collector):
            def __init__(self):
                super().__init__(10_000)
                self.batch_sizes = []

            def process_second(self, batch):
                self.batch_sizes.append(len(batch))
                super().process_second(batch)

        collector = RecordingCollector()
        node = BackboneNode("n", collector)
        node.process_trace(steady_trace(seconds=4, pps=50))
        assert collector.batch_sizes == [50, 50, 50, 50]

    def test_empty_trace(self):
        node = BackboneNode("n", Collector(10))
        node.process_trace(Trace.empty())
        assert node.interface.packets == 0

    def test_snapshot_and_reset(self):
        node = BackboneNode("n", arts_collector())
        node.process_trace(steady_trace(seconds=2))
        snap = node.snapshot()
        assert snap["node"] == "n"
        assert snap["interface"]["packets"] == 200
        node.reset()
        assert node.interface.packets == 0
        assert node.collector.examined_packets == 0


class TestCollectionAgent:
    def test_poll_cycle_records(self):
        node = BackboneNode("enss", arts_collector())
        agent = CollectionAgent([node], poll_period_s=2)
        records = agent.run({"enss": steady_trace(seconds=4, pps=100)})
        assert len(records) == 2
        assert all(isinstance(r, PollRecord) for r in records)
        assert [r.snmp_packets for r in records] == [200, 200]

    def test_counters_reset_between_cycles(self):
        node = BackboneNode("enss", Collector(10_000))
        agent = CollectionAgent([node], poll_period_s=1)
        records = agent.run({"enss": steady_trace(seconds=3, pps=50)})
        assert [r.snmp_packets for r in records] == [50, 50, 50]

    def test_multiple_nodes(self):
        nodes = [
            BackboneNode("a", arts_collector()),
            BackboneNode("b", arts_collector()),
        ]
        agent = CollectionAgent(nodes, poll_period_s=2)
        records = agent.run(
            {"a": steady_trace(seconds=2), "b": steady_trace(seconds=2)}
        )
        assert {r.node for r in records} == {"a", "b"}

    def test_node_series(self):
        nodes = [
            BackboneNode("a", arts_collector()),
            BackboneNode("b", arts_collector()),
        ]
        agent = CollectionAgent(nodes, poll_period_s=1)
        agent.run({"a": steady_trace(seconds=2), "b": steady_trace(seconds=2)})
        series = agent.node_series("a")
        assert [r.cycle for r in series] == [0, 1]

    def test_node_without_traffic_still_polled(self):
        nodes = [
            BackboneNode("a", arts_collector()),
            BackboneNode("idle", arts_collector()),
        ]
        agent = CollectionAgent(nodes, poll_period_s=2)
        records = agent.run({"a": steady_trace(seconds=2)})
        idle = [r for r in records if r.node == "idle"]
        assert idle[0].snmp_packets == 0

    def test_unknown_node_traffic_rejected(self):
        agent = CollectionAgent([BackboneNode("a", arts_collector())])
        with pytest.raises(ValueError, match="unknown"):
            agent.run({"ghost": steady_trace()})

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            CollectionAgent([])
        with pytest.raises(ValueError, match="period"):
            CollectionAgent([BackboneNode("a", arts_collector())], poll_period_s=0)
        node = BackboneNode("a", arts_collector())
        with pytest.raises(ValueError, match="unique"):
            CollectionAgent([node, BackboneNode("a", arts_collector())])


class TestFigure1Mechanism:
    """The paper's Figure 1 story, end to end on synthetic traffic."""

    def test_discrepancy_grows_with_load_and_sampling_fixes_it(
        self, minute_trace
    ):
        # Unsampled collector below peak load: categorization loses
        # a visible fraction of traffic relative to SNMP.
        lossy = BackboneNode("t1", Collector(300))
        lossy.process_trace(minute_trace)
        snmp = lossy.interface.packets
        seen = lossy.collector.examined_packets
        assert (snmp - seen) / snmp > 0.1

        # The September 1991 fix: 1-in-50 selection before examination.
        sampled = BackboneNode(
            "t1s", Collector(300, granularity=50)
        )
        sampled.process_trace(minute_trace)
        estimate = sampled.collector.estimated_total_packets()
        assert abs(estimate - snmp) / snmp < 0.01
