"""Windowed fidelity monitoring."""

import numpy as np
import pytest

from repro.analysis.temporal import FidelityPoint, fidelity_series, worst_window
from repro.core.evaluation.targets import (
    INTERARRIVAL_TARGET,
    PACKET_SIZE_TARGET,
)
from repro.core.sampling.systematic import SystematicSampler
from repro.core.sampling.timer import TimerSystematicSampler
from repro.trace.filters import where
from repro.trace.trace import Trace


class TestFidelitySeries:
    def test_window_tiling(self, minute_trace):
        result = SystematicSampler(granularity=50).sample(minute_trace)
        points = fidelity_series(
            minute_trace, result, PACKET_SIZE_TARGET, window_us=10_000_000
        )
        assert len(points) == 6
        starts = [p.start_us for p in points]
        assert starts == sorted(starts)
        assert all(p.end_us - p.start_us == 10_000_000 for p in points)

    def test_population_counts_sum(self, minute_trace):
        result = SystematicSampler(granularity=50).sample(minute_trace)
        points = fidelity_series(
            minute_trace, result, PACKET_SIZE_TARGET, window_us=10_000_000
        )
        assert sum(p.population for p in points) == len(minute_trace)

    def test_systematic_sample_faithful_everywhere(self, minute_trace):
        result = SystematicSampler(granularity=50).sample(minute_trace)
        points = fidelity_series(
            minute_trace, result, PACKET_SIZE_TARGET, window_us=10_000_000
        )
        assert all(p.usable for p in points)
        # ~85 samples per window puts the multinomial noise floor near
        # phi ~ 0.1; anything under 0.25 is faithful at this scale.
        assert all(p.phi < 0.25 for p in points)

    def test_timer_sample_flagged_on_interarrivals(self, minute_trace):
        sampler = TimerSystematicSampler.for_granularity(minute_trace, 50)
        result = sampler.sample(minute_trace)
        points = fidelity_series(
            minute_trace, result, INTERARRIVAL_TARGET, window_us=10_000_000
        )
        usable = [p for p in points if p.usable]
        assert usable
        assert all(p.phi > 0.3 for p in usable)

    def test_sparse_windows_unusable(self):
        # Ten packets spread over a minute: sampled counts per window
        # fall below the floor.
        trace = Trace(
            timestamps_us=np.arange(10) * 6_000_000, sizes=[40] * 10
        )
        result = SystematicSampler(granularity=2).sample(trace)
        points = fidelity_series(
            trace, result, PACKET_SIZE_TARGET, window_us=10_000_000
        )
        assert all(not p.usable for p in points)

    def test_one_bin_window_scores_zero(self, minute_trace):
        # Every value of a 40-byte-only trace falls in the first size
        # bin: a sample confined to the parent's only bin matches it
        # exactly, as the online monitor scores it.
        acks = where(minute_trace, lambda t: t.sizes == 40)
        result = SystematicSampler(granularity=2).sample(acks)
        points = fidelity_series(
            acks, result, PACKET_SIZE_TARGET, window_us=10_000_000
        )
        assert len(points) == 6
        assert all(p.usable and p.phi == 0.0 for p in points)

    def test_empty_trace(self):
        result = SystematicSampler(granularity=2).sample(Trace.empty())
        assert (
            fidelity_series(
                Trace.empty(), result, PACKET_SIZE_TARGET, window_us=1000
            )
            == []
        )

    def test_validation(self, minute_trace):
        result = SystematicSampler(granularity=50).sample(minute_trace)
        with pytest.raises(ValueError, match="window"):
            fidelity_series(minute_trace, result, PACKET_SIZE_TARGET, 0)
        with pytest.raises(ValueError, match="min_sampled"):
            fidelity_series(
                minute_trace, result, PACKET_SIZE_TARGET, 1000, min_sampled=0
            )


class TestWorstWindow:
    def test_picks_largest_phi(self):
        points = [
            FidelityPoint(0, 10, 100, 10, 0.02),
            FidelityPoint(10, 20, 100, 10, 0.30),
            FidelityPoint(20, 30, 100, 10, None),
        ]
        worst = worst_window(points)
        assert worst.start_us == 10

    def test_none_when_no_usable(self):
        points = [FidelityPoint(0, 10, 5, 1, None)]
        assert worst_window(points) is None

    def test_on_real_series(self, minute_trace):
        result = SystematicSampler(granularity=50).sample(minute_trace)
        points = fidelity_series(
            minute_trace, result, PACKET_SIZE_TARGET, window_us=10_000_000
        )
        worst = worst_window(points)
        assert worst is not None
        assert worst.phi == max(p.phi for p in points if p.usable)
