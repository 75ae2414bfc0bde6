"""Golden regression values.

These tests freeze exact seeded outputs of the pipeline.  They exist
to catch *unintended* behaviour changes — a refactor that silently
alters the generator's draw order, a metrics tweak that shifts phi in
the fourth decimal.  If a change is intentional, update the constants
and say so in the commit.
"""

import numpy as np
import pytest

from repro.core.evaluation.comparison import score_sample
from repro.core.evaluation.targets import (
    INTERARRIVAL_TARGET,
    PACKET_SIZE_TARGET,
)
from repro.core.sampling.factory import make_sampler
from repro.workload.generator import nsfnet_hour_trace


@pytest.fixture(scope="module")
def golden_trace():
    return nsfnet_hour_trace(seed=424, duration_s=90)


class TestGeneratorGolden:
    def test_packet_count(self, golden_trace):
        assert len(golden_trace) == 40956

    def test_total_bytes(self, golden_trace):
        assert golden_trace.total_bytes == 10470267

    def test_first_packets(self, golden_trace):
        assert golden_trace.timestamps_us[:4].tolist() == [6000, 10000, 15200, 17200]
        assert golden_trace.sizes[:4].tolist() == [40, 56, 126, 40]

    def test_checksum_columns(self, golden_trace):
        # Cheap whole-column fingerprints.
        assert int(golden_trace.timestamps_us.sum()) == 1818517375600
        assert int(golden_trace.src_nets.sum()) == 377881
        assert int(golden_trace.dst_ports.sum()) == 2221013


class TestScoringGolden:
    def test_systematic_phi_values(self, golden_trace):
        sampler = make_sampler("systematic", 50, phase=7)
        result = sampler.sample(golden_trace)
        size = score_sample(golden_trace, result, PACKET_SIZE_TARGET)
        iat = score_sample(golden_trace, result, INTERARRIVAL_TARGET)
        assert size.phi == pytest.approx(0.02140901, abs=1e-7)
        assert iat.phi == pytest.approx(0.03763640, abs=1e-7)

    def test_stratified_phi_value(self, golden_trace):
        sampler = make_sampler("stratified", 64)
        result = sampler.sample(golden_trace, rng=np.random.default_rng(77))
        size = score_sample(golden_trace, result, PACKET_SIZE_TARGET)
        assert size.phi == pytest.approx(0.03510055, abs=1e-7)

    def test_timer_phi_value(self, golden_trace):
        sampler = make_sampler("timer-systematic", 50, trace=golden_trace)
        result = sampler.sample(golden_trace)
        iat = score_sample(golden_trace, result, INTERARRIVAL_TARGET)
        assert iat.phi == pytest.approx(0.74517530, abs=1e-6)


class TestCollectionGolden:
    """Exact Section 2 collection counts: NNStat, ARTS and the T3 CPU."""

    def test_figure1_history(self):
        from repro.netmon.figure1 import simulate_collection_history

        months = simulate_collection_history(
            (150, 250, 400, 600, 800, 1000, 1000, 1100),
            collector_capacity_pps=500,
            sampling_deployed_at=5,
        )
        assert [(m.snmp_packets, m.categorized_packets) for m in months] == [
            (8862, 8862),
            (13168, 13168),
            (23028, 22961),
            (34530, 29338),
            (46538, 29997),
            (60529, 60550),
            (60999, 61000),
            (71571, 71600),
        ]

    def test_noc_polls_of_both_collector_styles(self):
        from repro.netmon.collector import Collector
        from repro.netmon.noc import CollectionAgent
        from repro.netmon.node import BackboneNode
        from repro.netmon.objects import t3_object_set

        trace = nsfnet_hour_trace(seed=424, duration_s=150)
        agent = CollectionAgent(
            [
                BackboneNode("t1", Collector(300)),
                BackboneNode(
                    "t3", Collector(5, granularity=50, objects=t3_object_set())
                ),
            ],
            poll_period_s=60,
        )
        records = agent.run({"t1": trace, "t3": trace})
        polls = [
            (
                r.cycle,
                r.node,
                r.snapshot["collector"]["examined_packets"],
                r.snapshot["collector"]["dropped_packets"],
            )
            for r in records
        ]
        assert polls == [
            (0, "t1", 17938, 9123),
            (0, "t3", 300, 242),
            (1, "t1", 17930, 8977),
            (1, "t3", 300, 238),
            (2, "t1", 8952, 4005),
            (2, "t3", 150, 109),
        ]

    def test_t3_node_totals_across_a_rekey(self):
        from repro.netmon.t3node import T3Node
        from repro.trace.filters import time_window

        traffic = {
            name: nsfnet_hour_trace(seed=seed, duration_s=60)
            for seed, name in enumerate(("t3", "ethernet", "fddi"), start=1)
        }
        node = T3Node("enss", granularity=50, cpu_capacity_pps=30)
        node.process_traces(
            {k: time_window(t, 0, 30_000_000) for k, t in traffic.items()}
        )
        node.set_granularity(20)
        node.process_traces(
            {k: time_window(t, 30_000_000, 60_000_000) for k, t in traffic.items()}
        )
        assert node.collector.examined_packets == 1658
        assert node.collector.dropped_packets == 1019
        assert node.horvitz_thompson_total() == 55900.0
