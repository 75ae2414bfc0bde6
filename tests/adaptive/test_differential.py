"""Differential battery: one control law, identical under every execution.

The adaptive pipeline's contract is that execution strategy is
invisible to the control loop: the chunked fast-path kernels that
production runs use, any chunk size, and interrupt/resume all produce
decision logs, keep counts, and window series bit-identical to the
per-packet reference (:meth:`AdaptivePipeline.offer`).  These tests
pin that contract for all three selector families.
"""

import pytest

from repro.adaptive import (
    AccuracyFirstPolicy,
    AdaptiveController,
    AdaptivePipeline,
    AdaptiveRunResult,
    BudgetFirstPolicy,
    ControllerConfig,
    run_adaptive,
)
from repro.core.sampling.timer import TimerSystematicSampler
from repro.fastpath.pipeline import iter_trace_chunks
from repro.obs.live.monitor import QualityMonitor

METHODS = ("systematic", "stratified", "timer-systematic")
WINDOW_US = 5_000_000


def agile_config(**overrides):
    defaults = dict(
        initial_granularity=64,
        step_finer_windows=1,
        step_coarser_windows=2,
        cooldown_windows=1,
        seed=9,
    )
    defaults.update(overrides)
    return ControllerConfig(**defaults)


def adaptive_run(trace, method, *, chunk_packets=65_536, policy=None):
    controller = AdaptiveController(
        policy or AccuracyFirstPolicy(phi_tol=0.08), agile_config()
    )
    return run_adaptive(
        trace,
        controller,
        method=method,
        window_us=WINDOW_US,
        min_scored=2,
        chunk_packets=chunk_packets,
    )


def per_packet_run(trace, method, *, policy=None):
    """The oracle: :func:`adaptive_run` offered one packet at a time."""
    controller = AdaptiveController(
        policy or AccuracyFirstPolicy(phi_tol=0.08), agile_config()
    )
    monitor = QualityMonitor(window_us=WINDOW_US, min_scored=2)
    windows = []
    pipeline = AdaptivePipeline(
        method,
        controller,
        monitor,
        unit_period_us=unit_period(trace, method),
        on_window=lambda stats: windows.append(stats.as_dict()),
    )
    for timestamp, size in zip(
        trace.timestamps_us.tolist(), trace.sizes.tolist()
    ):
        pipeline.offer(int(timestamp), float(size))
    pipeline.flush()
    return AdaptiveRunResult(
        method=method,
        offered=pipeline.offered,
        kept=pipeline.kept,
        decisions=list(controller.decisions),
        windows=windows,
        controller=controller,
        monitor=monitor,
    )


def unit_period(trace, method):
    if method != "timer-systematic":
        return 0.0
    return TimerSystematicSampler.for_granularity(trace, 1).period_us


def fingerprint(result):
    return (
        result.kept,
        result.offered,
        result.decisions,
        result.windows,
        result.controller.snapshot(),
    )


class TestFastpathIdentity:
    @pytest.mark.parametrize("method", METHODS)
    def test_fastpath_matches_per_packet(self, bursty_trace, method):
        streamed = per_packet_run(bursty_trace, method)
        chunked = adaptive_run(bursty_trace, method)
        # The run genuinely adapted — identity over a static run would
        # prove nothing about re-keying.
        assert streamed.rate_changes >= 3
        assert fingerprint(streamed) == fingerprint(chunked)

    @pytest.mark.parametrize("method", METHODS)
    def test_store_metrics_match(self, bursty_trace, method):
        streamed = per_packet_run(bursty_trace, method)
        chunked = adaptive_run(bursty_trace, method)
        for name in (
            "adaptive_windows",
            "adaptive_rate_changes",
            "adaptive_steps_finer",
            "adaptive_steps_coarser",
            "monitor_packets_offered",
            "monitor_packets_sampled",
        ):
            assert (
                streamed.monitor.store.counter(name).value
                == chunked.monitor.store.counter(name).value
            ), name

    def test_budget_policy_identical_too(self, bursty_trace):
        streamed = per_packet_run(
            bursty_trace,
            "systematic",
            policy=BudgetFirstPolicy(budget_pps=12.0),
        )
        chunked = adaptive_run(
            bursty_trace,
            "systematic",
            policy=BudgetFirstPolicy(budget_pps=12.0),
        )
        assert streamed.rate_changes >= 2
        assert fingerprint(streamed) == fingerprint(chunked)


class TestChunkingInvariance:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("chunk_packets", (1, 997, 8192))
    def test_any_chunking_matches_reference(
        self, bursty_trace, method, chunk_packets
    ):
        reference = adaptive_run(bursty_trace, method)
        rechunked = adaptive_run(
            bursty_trace, method, chunk_packets=chunk_packets
        )
        assert fingerprint(reference) == fingerprint(rechunked)


class TestResume:
    @pytest.mark.parametrize("method", ("systematic", "timer-systematic"))
    def test_controller_resume_mid_run(self, bursty_trace, method):
        """Snapshot/restore halfway through matches the unbroken run."""
        uninterrupted = adaptive_run(bursty_trace, method)

        controller = AdaptiveController(
            AccuracyFirstPolicy(phi_tol=0.08), agile_config()
        )
        monitor = QualityMonitor(window_us=WINDOW_US, min_scored=2)
        pipeline = AdaptivePipeline(
            method,
            controller,
            monitor,
            unit_period_us=unit_period(bursty_trace, method),
        )
        chunks = list(iter_trace_chunks(bursty_trace, 8192))
        half = len(chunks) // 2
        assert half >= 1
        for chunk in chunks[:half]:
            pipeline.process_chunk(chunk)

        # Checkpoint the five integers, restore into a fresh
        # controller, splice it into the pipeline, and keep going.
        state = controller.snapshot()
        resumed = AdaptiveController(
            AccuracyFirstPolicy(phi_tol=0.08), agile_config()
        )
        resumed.restore(state)
        resumed.decisions.extend(controller.decisions)
        resumed.changes = state["changes"]
        pipeline.controller = resumed
        for chunk in chunks[half:]:
            pipeline.process_chunk(chunk)
        pipeline.flush()

        assert pipeline.kept == uninterrupted.kept
        assert resumed.decisions == uninterrupted.decisions
        assert resumed.snapshot() == uninterrupted.controller.snapshot()


class TestRunShape:
    def test_result_accounting(self, bursty_trace):
        result = adaptive_run(bursty_trace, "systematic")
        assert result.offered == len(bursty_trace)
        assert 0 < result.kept < result.offered
        assert result.sampled_fraction == result.kept / result.offered
        assert len(result.windows) == len(result.decisions)
        assert result.mean_phi("packet-size") is not None
        assert result.aggregate_phi("packet-size") is not None
        used = result.granularities_used()
        assert len(used) >= 2 and used[0] == 64

    def test_decisions_line_up_with_windows(self, bursty_trace):
        result = adaptive_run(bursty_trace, "systematic")
        for decision, window in zip(result.decisions, result.windows):
            assert decision.window == window["window"]
            assert decision.offered == window["offered"]
            assert decision.sampled == window["sampled"]
