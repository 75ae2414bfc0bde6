"""Trace filtering and windowing.

The paper's fourth experimental dimension is the *interval*: "the
length of time over which we sample" (Section 7.3 uses exponentially
increasing time windows relative to the beginning of the hour-long
trace).  These helpers carve such windows out of a parent trace.
"""

from typing import Callable, Iterator, List, Sequence

import numpy as np

from repro.trace.trace import Trace


def time_window(trace: Trace, start_us: int, stop_us: int) -> Trace:
    """Packets with ``start_us <= timestamp < stop_us``.

    Timestamps are relative to the same origin as the parent trace;
    windows on an unrebased trace should account for its first
    timestamp.
    """
    if stop_us < start_us:
        raise ValueError(
            "window stop %d precedes start %d" % (stop_us, start_us)
        )
    lo = int(np.searchsorted(trace.timestamps_us, start_us, side="left"))
    hi = int(np.searchsorted(trace.timestamps_us, stop_us, side="left"))
    return trace.slice_packets(lo, hi)


def tile_boundaries(
    traces: Sequence[Trace], origin_us: int, width_us: int
) -> List[np.ndarray]:
    """Boundary indices of consecutive ``width_us`` tiles from ``origin_us``.

    Tile ``i`` covers ``origin_us + i * width_us`` up to, not including,
    the next tile's start; tiles run through the one holding the latest
    packet of any trace.  For each trace the result ``b`` has one more
    entry than there are tiles, and ``b[i]:b[i + 1]`` are its packets in
    tile ``i`` — the same ``side="left"`` rule as :func:`time_window`.
    """
    last_us = max(
        (int(t.timestamps_us[-1]) for t in traces if len(t)), default=None
    )
    n_tiles = 0 if last_us is None else (last_us - origin_us) // width_us + 1
    edges = origin_us + width_us * np.arange(n_tiles + 1, dtype=np.int64)
    return [np.searchsorted(t.timestamps_us, edges, side="left") for t in traces]


def prefix_interval(trace: Trace, length_us: int) -> Trace:
    """The paper's window shape: the first ``length_us`` of the trace.

    Section 7 samples over windows "relative to the beginning of the
    hour-long trace", doubling the window (…, 1024 s, 2048 s, …).  The
    window is anchored at the first packet's timestamp.
    """
    if length_us < 0:
        raise ValueError("interval length must be non-negative")
    if not len(trace):
        return trace
    origin = int(trace.timestamps_us[0])
    return time_window(trace, origin, origin + length_us)


def first_packets(trace: Trace, count: int) -> Trace:
    """The first ``count`` packets (count-based window)."""
    if count < 0:
        raise ValueError("packet count must be non-negative")
    return trace.slice_packets(0, count)


def sliding_windows(
    trace: Trace, length_us: int, step_us: int
) -> Iterator[Trace]:
    """Yield fixed-length windows sliding across the trace.

    The paper anchors all its intervals at the trace start; sliding
    the same-length window across the hour instead exposes the
    *non-stationarity* that Section 7.3 warns about — each placement
    is a different sub-population.  Windows start at the first
    packet's timestamp and advance by ``step_us``; the final partial
    window is not emitted.
    """
    if length_us <= 0:
        raise ValueError("window length must be positive")
    if step_us <= 0:
        raise ValueError("window step must be positive")
    if not len(trace):
        return
    origin = int(trace.timestamps_us[0])
    horizon = int(trace.timestamps_us[-1])
    start = origin
    while start + length_us <= horizon + 1:
        yield time_window(trace, start, start + length_us)
        start += step_us


def where(trace: Trace, predicate: Callable[..., np.ndarray]) -> Trace:
    """Filter by a vectorized predicate over trace columns.

    ``predicate`` receives the trace and returns a boolean mask.  For
    example, TCP-only traffic::

        where(trace, lambda t: t.protocols == IPPROTO_TCP)
    """
    mask = np.asarray(predicate(trace), dtype=bool)
    if mask.shape != (len(trace),):
        raise ValueError(
            "predicate mask has shape %s, expected (%d,)" % (mask.shape, len(trace))
        )
    return trace.select(np.flatnonzero(mask))
