"""Load-adaptive systematic sampling.

The NSFNET's 1-in-50 was a fixed compromise: at night it threw away
packets a half-idle collector could have examined, and had traffic
kept growing it would eventually have overrun the collector again.
The natural generalization — the direction operational samplers took
after the paper — is to adapt the granularity to load: target a fixed
*selected-packet* rate and set each second's k accordingly.

:class:`AdaptiveSystematic` implements the control loop: every
adaptation interval it re-estimates the offered rate from what it saw
and picks ``k = ceil(offered / target)``.  Selection within an
interval is plain phase-carrying every-k-th, so all the paper's
packet-driven results apply piecewise; estimation scales each selected
packet by the k in force when it was selected (per-interval
Horvitz-Thompson weights).
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.trace.filters import tile_boundaries
from repro.trace.trace import Trace

_US_PER_S = 1_000_000


@dataclass(frozen=True)
class AdaptiveSample:
    """Outcome of an adaptive pass: indices plus per-packet weights."""

    indices: np.ndarray
    weights: np.ndarray
    granularities: Tuple[int, ...]

    @property
    def sample_size(self) -> int:
        """Number of selected packets."""
        return int(self.indices.size)

    def estimated_population(self) -> float:
        """Horvitz-Thompson estimate of the total packet count."""
        return float(self.weights.sum())


class AdaptiveSystematic:
    """Systematic sampling with per-interval granularity control.

    Parameters
    ----------
    target_pps:
        Selected packets per second the collector can afford.
    adaptation_interval_s:
        How often the granularity is recomputed.
    initial_granularity:
        k used for the first interval, before any rate estimate
        exists.
    max_granularity:
        Upper bound on k (a monitor keeps a minimum visibility floor).
    """

    def __init__(
        self,
        target_pps: float,
        adaptation_interval_s: int = 1,
        initial_granularity: int = 50,
        max_granularity: int = 65536,
    ) -> None:
        if target_pps <= 0:
            raise ValueError("target rate must be positive")
        if adaptation_interval_s < 1:
            raise ValueError("adaptation interval must be >= 1 s")
        if initial_granularity < 1:
            raise ValueError("initial granularity must be >= 1")
        if max_granularity < 1:
            raise ValueError("max granularity must be >= 1")
        self.target_pps = float(target_pps)
        self.adaptation_interval_s = adaptation_interval_s
        self.initial_granularity = initial_granularity
        self.max_granularity = max_granularity

    def granularity_for_rate(self, offered_pps: float) -> int:
        """The k that brings ``offered_pps`` down to the target."""
        if offered_pps <= 0:
            return 1
        k = int(np.ceil(offered_pps / self.target_pps))
        return int(min(max(k, 1), self.max_granularity))

    def sample(self, trace: Trace) -> AdaptiveSample:
        """Run the adaptive pass over a trace.

        The granularity for each adaptation interval comes from the
        *previous* interval's observed offered rate (a real monitor
        cannot see the future); the first interval uses
        ``initial_granularity``.
        """
        n = len(trace)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return AdaptiveSample(
                indices=empty,
                weights=np.empty(0, dtype=np.float64),
                granularities=(),
            )
        (bounds,) = tile_boundaries(
            [trace],
            int(trace.timestamps_us[0]),
            self.adaptation_interval_s * _US_PER_S,
        )

        indices: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        granularities: List[int] = []
        k = self.initial_granularity
        phase = 0
        for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            count = stop - start
            picked = np.arange(start + phase, stop, k, dtype=np.int64)
            indices.append(picked)
            weights.append(np.full(picked.size, float(k)))
            granularities.append(k)
            # Phase continuity into the next interval's selection.
            consumed = count - phase
            phase = (-consumed) % k if count > phase else phase - count
            # Adapt from this interval's observed offered rate.
            offered = count / self.adaptation_interval_s
            new_k = self.granularity_for_rate(offered)
            if new_k != k:
                k = new_k
                phase = min(phase, k - 1)
        all_indices = np.concatenate(indices) if indices else np.empty(0)
        all_weights = np.concatenate(weights) if weights else np.empty(0)
        return AdaptiveSample(
            indices=all_indices.astype(np.int64),
            weights=all_weights,
            granularities=tuple(granularities),
        )
