"""Failure injection: malformed, adversarial, and degenerate inputs.

Every entry point should fail loudly and precisely on bad input — or
survive gracefully when the input is merely extreme.  These tests
exercise the unhappy paths module by module.
"""

import io

import numpy as np
import pytest

from repro.core.evaluation.comparison import score_sample
from repro.core.evaluation.targets import PACKET_SIZE_TARGET
from repro.core.metrics.chisquare import chi_square
from repro.core.sampling.base import SamplingResult
from repro.core.sampling.factory import make_sampler
from repro.core.sampling.systematic import SystematicSampler
from repro.netmon.collector import Collector
from repro.netmon.node import BackboneNode
from repro.trace.pcap import PcapError, read_pcap, write_pcap
from repro.trace.trace import Trace


class TestCorruptedPcap:
    def test_random_bytes(self, rng):
        noise = bytes(rng.integers(0, 256, size=200, dtype=np.uint8))
        with pytest.raises(PcapError):
            read_pcap(io.BytesIO(noise))

    def test_bitflipped_magic(self, tiny_trace):
        buffer = io.BytesIO()
        write_pcap(tiny_trace, buffer)
        raw = bytearray(buffer.getvalue())
        raw[0] ^= 0xFF
        with pytest.raises(PcapError, match="magic"):
            read_pcap(io.BytesIO(bytes(raw)))

    def test_truncation_at_every_tenth_byte(self, tiny_trace):
        """Any truncation point yields either a prefix-trace or PcapError,
        never a wrong answer or crash."""
        buffer = io.BytesIO()
        write_pcap(tiny_trace, buffer)
        raw = buffer.getvalue()
        for cut in range(24, len(raw), 10):
            try:
                partial = read_pcap(io.BytesIO(raw[:cut]))
            except PcapError:
                continue
            assert partial == tiny_trace.slice_packets(0, len(partial))

    def test_declared_length_beyond_data(self, tiny_trace):
        buffer = io.BytesIO()
        write_pcap(tiny_trace, buffer)
        raw = bytearray(buffer.getvalue())
        # Inflate the first record's incl_len beyond the file.
        import struct

        raw[32:36] = struct.pack("<I", 10_000)
        with pytest.raises(PcapError, match="truncated"):
            read_pcap(io.BytesIO(bytes(raw)))


class TestDegenerateSamples:
    def test_sample_of_size_one(self, minute_trace):
        result = SystematicSampler(granularity=10**9).sample(minute_trace)
        assert result.sample_size == 1
        score = score_sample(minute_trace, result, PACKET_SIZE_TARGET)
        assert np.isfinite(score.phi)

    def test_empty_sample_scores_zero_phi(self, minute_trace):
        empty = SamplingResult(
            indices=np.empty(0, dtype=np.int64),
            population_size=len(minute_trace),
            method="none",
            parameters={},
        )
        score = score_sample(minute_trace, empty, PACKET_SIZE_TARGET)
        assert score.phi == 0.0
        assert score.sample_size == 0

    def test_single_packet_population(self):
        trace = Trace(timestamps_us=[0], sizes=[40])
        result = SystematicSampler(granularity=1).sample(trace)
        score = score_sample(trace, result, PACKET_SIZE_TARGET)
        assert score.phi == 0.0

    def test_all_identical_packets(self):
        trace = Trace(timestamps_us=np.arange(5000) * 1000, sizes=[40] * 5000)
        result = SystematicSampler(granularity=50).sample(trace)
        score = score_sample(trace, result, PACKET_SIZE_TARGET)
        assert score.phi == 0.0  # nothing to get wrong

    def test_two_packet_trace_every_method(self, rng):
        trace = Trace(timestamps_us=[0, 1000], sizes=[40, 552])
        for method in ("systematic", "stratified", "random"):
            sampler = make_sampler(method, 2, trace=trace, rng=rng)
            result = sampler.sample(trace, rng=rng)
            assert 1 <= result.sample_size <= 2


class TestAdversarialMetrics:
    def test_observed_mass_in_zero_probability_bin(self):
        with pytest.raises(ValueError, match="zero population"):
            chi_square([0, 5], [1.0, 0.0])

    def test_huge_counts_no_overflow(self):
        value = chi_square([10**12, 10**12], [0.5, 0.5])
        assert value == 0.0
        skewed = chi_square([2 * 10**12, 0], [0.5, 0.5])
        assert np.isfinite(skewed)

    def test_nan_proportions_rejected(self):
        with pytest.raises(ValueError):
            chi_square([5, 5], [float("nan"), 0.5])


class TestCollectorExtremes:
    def test_capacity_one(self, minute_trace):
        node = BackboneNode("tiny", Collector(1))
        node.process_trace(minute_trace.slice_packets(0, 5000))
        assert node.collector.examined_packets <= 60
        assert node.interface.packets == 5000

    def test_granularity_larger_than_traffic(self):
        collector = Collector(100, granularity=10**6)
        trace = Trace(timestamps_us=np.arange(100) * 1000, sizes=[40] * 100)
        collector.process_second(trace)
        assert collector.examined_packets <= 1

    def test_burst_into_single_second(self):
        """The entire offered load arriving in one second."""
        collector = Collector(100)
        trace = Trace(
            timestamps_us=np.linspace(0, 999_999, 50_000).astype(np.int64),
            sizes=[40] * 50_000,
        )
        collector.process_second(trace)
        assert collector.examined_packets == 100
        assert collector.dropped_packets == 49_900


class TestMutatedTraceDefenses:
    def test_select_on_externally_mutated_trace(self, tiny_trace):
        """Even if a caller mutates columns (violating the convention),
        select still bounds-checks."""
        broken = tiny_trace.slice_packets(0, 5)
        with pytest.raises(IndexError):
            broken.select([99])

    def test_validate_catches_mutation(self, tiny_trace):
        from repro.trace.validate import validate_trace

        mutated = tiny_trace.slice_packets(0, 5)
        mutated.sizes[2] = 5  # below any legal IP packet
        issues = validate_trace(mutated)
        assert any(i.severity == "error" for i in issues)
