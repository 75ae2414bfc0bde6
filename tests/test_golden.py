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


@pytest.fixture(scope="module")
def flows_pcap(tmp_path_factory):
    """A 300 s pcap: long enough for a 60 s active timeout to fire."""
    from repro.cli import main

    path = str(tmp_path_factory.mktemp("flows") / "t300.pcap")
    assert main(["generate", path, "--duration", "300", "--seed", "1993"]) == 0
    return path


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


#: Flow-cache flags for the pins: an active timeout that fires inside
#: the trace, once with the default capacity (idle and active exports
#: through the chunk kernel) and once with a 64-entry cache (an LRU
#: eviction storm through the per-packet replay).
FLOW_CACHE_FLAGS = {
    "timeouts": ["--active-timeout", "60"],
    "eviction-storm": ["--active-timeout", "60", "--max-flows", "64"],
}


class TestFlowsGolden:
    """Exact ``flows`` CLI output and engine flow summaries."""

    STDOUT = {
        ("timeouts", "aggregate"): (
            "b7987ae48889a280815c7230fd7a01a54e32836ab151ec5959aff27df2ac3cf6"
        ),
        ("timeouts", "sample"): (
            "66921e271efc30d5359f9f67fdfce85fe7669398ee69a05a8f31c1f23c6d0bba"
        ),
        ("timeouts", "invert"): (
            "8f509fe22843133f342ab8104be207582715f2973ffb8b2c6668e23bf78a90e6"
        ),
        ("timeouts", "compare"): (
            "a63b0755fa87300bc4c5250c1da6115abe4b22f4ca1311c17fde2c7f335408cf"
        ),
        ("eviction-storm", "aggregate"): (
            "a4fba02b05cc018b6ff79735e39563af04148b85da12815d81a2e1daab97275a"
        ),
        ("eviction-storm", "sample"): (
            "7cf422668204aa4351f2c3ef7f1967d17d3cb44fab4d3a9dd2ebdea28418cb06"
        ),
        ("eviction-storm", "invert"): (
            "aebf7caf616404d80da31ccd4a065bb3a5a615baf431de3582929ec0572ff4ad"
        ),
        ("eviction-storm", "compare"): (
            "08af2bed29338444d819451200761bc0dccd33991504cf6331c1e3146290249b"
        ),
    }
    AGGREGATE_CSV = {
        "timeouts": (
            "b8ea18f34791ca8680a67b65f51cab7174b69414a7e0b242031d00151db5e02f"
        ),
        "eviction-storm": (
            "40271724767a5a35acc836b74e439196d9ec720f7b982360613fd41f5a122253"
        ),
    }

    @pytest.mark.parametrize("flags", sorted(FLOW_CACHE_FLAGS))
    @pytest.mark.parametrize("mode", ["aggregate", "sample", "invert", "compare"])
    def test_flows_command_output(
        self, flows_pcap, flags, mode, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        argv = ["flows", flows_pcap, mode, "--granularity", "20"]
        argv += FLOW_CACHE_FLAGS[flags]
        if mode == "aggregate":
            argv += ["--csv", "flows.csv"]
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert _sha256(out.encode()) == self.STDOUT[flags, mode]
        if mode == "aggregate":
            csv_bytes = (tmp_path / "flows.csv").read_bytes()
            assert _sha256(csv_bytes) == self.AGGREGATE_CSV[flags]

    def test_engine_flow_stats_shards(self, flows_pcap):
        import json

        from repro.core.evaluation.experiment import ExperimentGrid
        from repro.engine.planner import GridPlanner
        from repro.engine.worker import ShardContext, execute_shard
        from repro.trace.pcap import read_pcap

        trace = read_pcap(flows_pcap)
        grid = ExperimentGrid(
            granularities=(4, 32, 256),
            replications=1,
            intervals_us=(None, 60_000_000),
            seed=11,
            flow_stats=True,
        )
        context = ShardContext(trace, grid)
        summaries = [
            execute_shard(context, shard)[2]
            for shard in GridPlanner(grid).shards()
        ]
        assert len(summaries) == 30
        assert summaries[0] == {
            "parent_flows": 7819.0,
            "sampled_flows": 5745.0,
            "detected_fraction": 0.928765,
            "parent_mean_packets": 17.199514,
            "sampled_mean_packets": 5.852219,
        }
        assert (
            _sha256(json.dumps(summaries, sort_keys=True).encode())
            == "911b440aa99829df99127982ca66b326b102207f2f5177782cbfd6de2a299675"
        )
