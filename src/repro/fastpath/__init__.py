"""Vectorized chunked fast path for the online pipeline.

The per-packet modules — :mod:`repro.core.sampling.streaming`,
:class:`repro.flows.sampled.StreamFlowAccountant`, and the live
:class:`repro.obs.live.QualityMonitor` — are the *executable reference
semantics* of the forwarding-path monitor: one keep/skip decision, one
flow-cache update, four histogram folds per packet, in pure Python.
Faithful, but interpreter-bound at ~µs/packet, so their per-packet
methods serve as test oracles and this package's kernels are the
production path.

This package re-expresses that pipeline over :class:`~repro.trace.Trace`
*chunks* (the columnar numpy layout :func:`~repro.trace.pcap.iter_pcap`
already yields) as O(chunk) numpy kernels:

* the selectors need no module here: the streaming systematic,
  stratified and timer samplers are their own chunk kernels
  (``keep_mask``, with ``offer`` as the per-packet reference), and
  :func:`chunk_kernel_for` hands the sampler itself back;
* :mod:`repro.fastpath.flows` — a vectorized flow-accounting kernel
  (packed-integer 5-tuple grouping, segmented idle-expiry and
  active-timeout reconstruction) feeding :class:`~repro.flows.table.FlowTable`-
  compatible updates and the ``flow_cache_*`` live metrics;
* :mod:`repro.fastpath.monitor` — the online path's one chunk loop:
  split a chunk at quality-window boundaries, close due windows, ask
  the selector for each segment's keep mask, and bulk-update the
  :class:`~repro.obs.live.QualityMonitor` histograms;
* :mod:`repro.fastpath.pipeline` — chunk iteration and the end-to-end
  monitored run behind the CLI's ``monitor`` subcommand.

The non-negotiable contract, pinned by ``tests/fastpath``: for every
selector, chunk size, and chunk boundary placement, the fast path's
keep/skip stream, exported flow records, and live metrics are
bit-identical to the per-packet reference — same RNG discipline, same
state at every chunk boundary.  Where the flow kernel cannot reproduce
a chunk vectorially (an emergency eviction, or time going backwards),
it replays that chunk through the per-packet reference, so identity
never rests on an approximation.
"""

from repro.fastpath.flows import (
    FlowAccountantKernel,
    account_chunk,
    encode_flow_keys,
    fast_aggregate_trace,
)
from repro.fastpath.monitor import observe_chunk
from repro.fastpath.pipeline import (
    DEFAULT_CHUNK_PACKETS,
    chunk_kernel_for,
    iter_trace_chunks,
    run_monitor,
)

__all__ = [
    "DEFAULT_CHUNK_PACKETS",
    "FlowAccountantKernel",
    "account_chunk",
    "chunk_kernel_for",
    "encode_flow_keys",
    "fast_aggregate_trace",
    "iter_trace_chunks",
    "observe_chunk",
    "run_monitor",
]
