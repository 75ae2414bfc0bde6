"""The collector in its NNStat and ARTS configurations: capacity,
sampling, estimation."""

import numpy as np
import pytest

from repro.netmon.collector import T3_SAMPLING_GRANULARITY, Collector, Subsystem
from repro.netmon.objects import t3_object_set
from repro.netmon.snmp import InterfaceCounters
from repro.netmon.t3node import T3Node
from repro.trace.trace import Trace


def arts_collector(granularity=T3_SAMPLING_GRANULARITY, capacity_pps=2000):
    """The ARTS configuration: 1-in-50 firmware select, T3 objects."""
    return Collector(capacity_pps, granularity=granularity, objects=t3_object_set())


def second_of_packets(n, size=100):
    return Trace(
        timestamps_us=np.linspace(0, 999_999, n).astype(np.int64),
        sizes=[size] * n,
    )


class TestInterfaceCounters:
    def test_never_drops(self):
        counters = InterfaceCounters()
        counters.forward(second_of_packets(100_000))
        assert counters.packets == 100_000

    def test_snapshot_and_reset(self):
        counters = InterfaceCounters()
        counters.forward(second_of_packets(10))
        assert counters.snapshot() == {"packets": 10, "bytes": 1000}
        counters.reset()
        assert counters.packets == 0


class TestNNStatCollector:
    def test_under_capacity_examines_all(self):
        collector = Collector(500)
        collector.process_second(second_of_packets(300))
        assert collector.examined_packets == 300
        assert collector.dropped_packets == 0

    def test_over_capacity_drops_excess(self):
        collector = Collector(500)
        collector.process_second(second_of_packets(800))
        assert collector.examined_packets == 500
        assert collector.dropped_packets == 300

    def test_objects_see_only_examined(self):
        collector = Collector(100)
        collector.process_second(second_of_packets(400))
        matrix = collector.objects[0]
        assert matrix.total_packets() == 100

    def test_sampling_reduces_offered_load(self):
        collector = Collector(100, granularity=50)
        collector.process_second(second_of_packets(4000))
        assert collector.examined_packets == 80
        assert collector.dropped_packets == 0

    def test_sampling_phase_continuity(self):
        """Every 50th packet overall, across second boundaries."""
        collector = Collector(10_000, granularity=50)
        collector.process_second(second_of_packets(75))
        collector.process_second(second_of_packets(75))
        # Packets 0, 50 from the first batch; global packet 100 is
        # local index 25 of the second batch.
        assert collector.examined_packets == 3

    def test_estimated_total(self):
        collector = Collector(10_000, granularity=50)
        collector.process_second(second_of_packets(5000))
        assert collector.estimated_total_packets() == 5000

    def test_reset(self):
        collector = Collector(100)
        collector.process_second(second_of_packets(400))
        collector.reset()
        assert collector.examined_packets == 0
        assert collector.dropped_packets == 0
        assert collector.objects[0].total_packets() == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Collector(0)
        with pytest.raises(ValueError):
            Collector(10, granularity=0)


class TestSubsystem:
    def test_selects_every_nth(self):
        sub = Subsystem(granularity=10)
        selected = sub.select(second_of_packets(100))
        assert len(selected) == 10

    def test_phase_carries_across_batches(self):
        sub = Subsystem(granularity=50)
        total = 0
        for _ in range(4):
            total += len(sub.select(second_of_packets(75)))
        assert total == 6  # 300 packets / 50

    def test_granularity_one_passthrough(self):
        sub = Subsystem(granularity=1)
        batch = second_of_packets(42)
        assert sub.select(batch) == batch

    def test_validation(self):
        with pytest.raises(ValueError):
            Subsystem(granularity=0)


class TestArtsCollector:
    def test_default_granularity_is_fifty(self):
        assert arts_collector().granularity == 50

    def test_characterizes_selected_packets(self):
        collector = arts_collector(granularity=50, capacity_pps=2000)
        collector.process_second(second_of_packets(5000))
        assert collector.examined_packets == 100
        assert collector.dropped_packets == 0

    def test_cpu_capacity_limits(self):
        collector = arts_collector(granularity=2, capacity_pps=100)
        collector.process_second(second_of_packets(1000))
        assert collector.examined_packets == 100
        assert collector.dropped_packets == 400

    def test_estimated_total(self):
        collector = arts_collector(granularity=50, capacity_pps=2000)
        collector.process_second(second_of_packets(5000))
        assert collector.estimated_total_packets() == 5000

    def test_t3_objects_by_default(self):
        names = [o.name for o in T3Node("enss").collector.objects]
        assert names == ["net-matrix", "port-distribution", "protocol-distribution"]

    def test_snapshot_structure(self):
        collector = arts_collector()
        collector.process_second(second_of_packets(500))
        snap = collector.snapshot()
        assert snap["granularity"] == 50
        assert "net-matrix" in snap["objects"]

    def test_reset(self):
        collector = arts_collector()
        collector.process_second(second_of_packets(500))
        collector.reset()
        assert collector.examined_packets == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            arts_collector(capacity_pps=0)
