"""Chunk iteration and the end-to-end fast monitored run.

The glue between the kernels: split an in-memory
:class:`~repro.trace.Trace` into bounded chunks (zero-copy column
views, the same shape :func:`~repro.trace.pcap.iter_pcap` yields
straight off disk), fold each chunk through the live quality monitor —
which asks the selector for the keep mask one window segment at a
time — and optionally feed the chunk's mask to a flow-accounting
kernel.  ``repro-traffic monitor`` and ``flows`` run on this path;
the per-packet loops stay as the executable reference the tests pin
it to.
"""

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

import numpy as np

from repro.core.sampling.streaming import ChunkSelector, StreamingSampler
from repro.fastpath.monitor import observe_chunk
from repro.obs.live.monitor import QualityMonitor, WindowStats
from repro.trace.store import DEFAULT_CHUNK_PACKETS
from repro.trace.trace import Trace

if TYPE_CHECKING:
    from repro.fastpath.flows import FlowAccountantKernel

__all__ = [
    "DEFAULT_CHUNK_PACKETS",
    "chunk_kernel_for",
    "iter_trace_chunks",
    "run_monitor",
]

def iter_trace_chunks(
    trace: Trace, chunk_packets: int = DEFAULT_CHUNK_PACKETS
) -> Iterator[Trace]:
    """Yield ``trace`` as consecutive chunks of up to ``chunk_packets``.

    Chunks are column views (no copies); concatenating them reproduces
    the trace exactly, mirroring :func:`~repro.trace.pcap.iter_pcap`'s
    contract for on-disk captures.  An empty trace yields no chunks.
    """
    if chunk_packets < 1:
        raise ValueError(
            "chunk_packets must be >= 1, got %d" % chunk_packets
        )
    for start in range(0, len(trace), chunk_packets):
        yield trace.slice_packets(start, start + chunk_packets)


def chunk_kernel_for(sampler: StreamingSampler) -> Optional[ChunkSelector]:
    """``sampler`` itself when it can decide whole chunks, else ``None``.

    The systematic, stratified and timer samplers are their own chunk
    kernels.  The reservoir, whose past-revising semantics have no
    fixed keep/skip stream to vectorize, returns ``None`` so callers
    can fall back to the per-packet path.
    """
    return sampler if isinstance(sampler, ChunkSelector) else None


def run_monitor(
    chunks: Iterable[Trace],
    kernel: ChunkSelector,
    monitor: QualityMonitor,
    on_window: Optional[Callable[[WindowStats], None]] = None,
    accountant: "Optional[FlowAccountantKernel]" = None,
) -> int:
    """Drive the fast monitored pipeline over a chunk stream.

    For each chunk: one monitor fold, which calls ``kernel.keep_mask``
    per window segment and invokes ``on_window`` per closed window in
    close order — the exact event sequence of the per-packet loop —
    then, when ``accountant`` is given, one flow-accounting fold on the
    chunk's keep mask.  Only ``kernel.keep_mask`` is used, so any
    object with that method will do.  Returns the number of packets
    offered.  The final in-progress window is *not* flushed; callers
    flush the monitor (and accountant) when the stream truly ends, as
    the per-packet path does.
    """
    offered = 0
    for chunk in chunks:
        if not len(chunk):
            continue
        mask = observe_chunk(
            monitor,
            chunk.timestamps_us,
            chunk.sizes.astype(np.float64, copy=False),
            kernel.keep_mask,
            on_close=on_window,
        )
        if accountant is not None:
            accountant.observe_chunk(chunk, mask)
        offered += len(chunk)
    return offered
