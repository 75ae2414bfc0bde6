"""Windowed fidelity of an ongoing sample (operational monitoring).

An always-on monitor samples continuously; the operator's question is
temporal: *is this hour's sample still representative of this hour's
traffic?*  :func:`fidelity_series` slides a window across the trace
and scores, within each window, the selected packets against that
window's own population — producing a φ time series whose excursions
flag periods where the sampling design under-covered the traffic
(e.g. a burst finer than the sampling fraction, or a timer design
during a bursty hour).
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.evaluation.targets import CharacterizationTarget
from repro.core.sampling.base import SamplingResult
from repro.obs.live.monitor import score_window
from repro.trace.filters import tile_boundaries
from repro.trace.trace import Trace


@dataclass(frozen=True)
class FidelityPoint:
    """One window's fidelity score."""

    start_us: int
    end_us: int
    population: int
    sampled: int
    phi: Optional[float]

    @property
    def usable(self) -> bool:
        """Whether the window had enough data to score."""
        return self.phi is not None


def fidelity_series(
    trace: Trace,
    result: SamplingResult,
    target: CharacterizationTarget,
    window_us: int,
    min_sampled: int = 10,
) -> List[FidelityPoint]:
    """Per-window phi of the sample against each window's population.

    Parameters
    ----------
    trace:
        The parent population.
    result:
        A sampling result over the whole trace.
    target:
        The characterization target to score.
    window_us:
        Window length; windows tile the trace without overlap,
        anchored at the first packet.
    min_sampled:
        Windows with fewer population or selected attribute values than
        this score ``phi=None`` (flagged unusable rather than wildly
        noisy).

    Each window is scored by the online monitor's
    :func:`~repro.obs.live.monitor.score_window` over the window's
    parent and sampled bin counts, so a window whose values all fall in
    one bin scores ``phi=0.0``, exactly as the monitor reports it.
    """
    if window_us <= 0:
        raise ValueError("window length must be positive")
    if min_sampled < 1:
        raise ValueError("min_sampled must be at least 1")
    n = len(trace)
    if n == 0:
        return []
    origin = int(trace.timestamps_us[0])
    (bounds,) = tile_boundaries([trace], origin, window_us)
    values = target.attribute_values(trace)
    selected_mask = np.zeros(n, dtype=bool)
    selected_mask[result.indices] = True

    points: List[FidelityPoint] = []
    for i in range(len(bounds) - 1):
        start = origin + i * window_us
        end = start + window_us
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        window_values = values[lo:hi]
        window_mask = selected_mask[lo:hi]
        defined = ~np.isnan(window_values)
        population_values = window_values[defined]
        sampled_values = window_values[defined & window_mask]
        phi, _, _ = score_window(
            target.bins.counts(population_values),
            target.bins.counts(sampled_values),
            min_sampled,
        )
        points.append(
            FidelityPoint(
                start_us=start,
                end_us=end,
                population=int(population_values.size),
                sampled=int(sampled_values.size),
                phi=phi,
            )
        )
    return points


def worst_window(points: List[FidelityPoint]) -> Optional[FidelityPoint]:
    """The usable window with the largest phi (None if none usable)."""
    usable = [p for p in points if p.usable]
    if not usable:
        return None
    return max(usable, key=lambda p: p.phi)
