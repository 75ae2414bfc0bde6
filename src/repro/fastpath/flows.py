"""Vectorized flow accounting over trace chunks.

The per-packet reference, :class:`repro.flows.table.FlowTable`, is a
faithful NetFlow cache: idle expiry interleaved with arrivals, active
timeouts, LRU emergency eviction — all order-dependent.  Vectorizing it
*bit-identically* splits each chunk into two regimes:

* **Timeout-only chunks** — the common case, including low-rate traces
  where every chunk spans many idle timeouts and long flows that
  outlive the active timeout.  Both timeouts are reconstructible
  without replay.  A flow's packet run splits into *segments* wherever
  consecutive activity (counting any live entry's pre-chunk activity)
  is separated by at least the idle timeout; within a segment the
  entry restarts at the first packet at or after its
  ``first_us + active_timeout_us`` (at most ``ceil(span / active)``
  restarts, one ``searchsorted`` each), and the restarted sub-flow's
  clock starts at that packet.  Every sub-flow ended by a restart
  exports with reason ``active`` at the restarting packet; every other
  closed sub-flow exports ``idle`` at the first arrival past its
  deadline.  The table pops idle expiries from the LRU end — which
  *is* last-update order — before it checks the arriving key's active
  timeout, so the global export order is exactly ascending
  ``(trigger arrival, idle-before-active, last_us, update sequence)``.
  The kernel therefore computes, in O(chunk) numpy plus O(sub-flows)
  python: per-key segmentation (one ``argsort``/``reduceat`` pass),
  the export records in reference order, the occupancy trajectory
  (creations minus removals, cumulative-summed; a restart is -1 then
  +1 at its packet) for exact creation-time peak tracking, and the
  final entries rebuilt in the reference's LRU order — untouched
  survivors first, then touched keys by final update position.

* **Chunks with an eviction or backwards time** — an emergency
  eviction (the computed occupancy trajectory crosses ``max_flows``)
  or non-monotonic timestamps.  Both detections are exact, both are
  made *before* any state is mutated, and both replay the whole chunk
  through the per-packet reference, so identity never depends on
  reproducing eviction interleavings vectorially.
  :attr:`FlowAccountantKernel.demoted_packets` counts the replayed
  packets by cause.

Either way :func:`account_chunk` returns the chunk's exported records
(in export order) and leaves ``table`` — entries, LRU order, counters,
peak occupancy, last timestamp — bit-identical to per-packet feeding.

:class:`FlowAccountantKernel` lifts the same contract to
:class:`~repro.flows.sampled.StreamFlowAccountant`: both flow tables,
both record streams, and the ``flow_cache_*`` live metrics end each
chunk exactly as the per-packet ``observe`` loop would leave them
(gauges are last-write-wins and counters accumulate totals, so the
chunk-aggregated updates land on identical values).
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fastpath.pipeline import DEFAULT_CHUNK_PACKETS, iter_trace_chunks
from repro.flows.sampled import StreamFlowAccountant, _Side
from repro.flows.table import (
    REASON_ACTIVE,
    REASON_IDLE,
    FlowRecord,
    FlowTable,
    _FlowEntry,
)
from repro.trace.trace import Trace

__all__ = [
    "DEMOTED_BACKWARDS_TIME",
    "DEMOTED_EVICTION",
    "FlowAccountantKernel",
    "account_chunk",
    "encode_flow_keys",
    "fast_aggregate_trace",
]

#: Why a chunk was replayed per packet: the keys of
#: :attr:`FlowAccountantKernel.demoted_packets`.
DEMOTED_EVICTION = "eviction"
DEMOTED_BACKWARDS_TIME = "backwards_time"


def encode_flow_keys(trace: Trace) -> "np.ndarray":
    """The trace's 5-tuples as an ``(n, 5)`` uint16 column block.

    One vectorized gather replaces n tuple constructions; every field
    of the classic key — nets, ports, protocol — fits uint16, so the
    rows pack losslessly into integers for grouping (:func:`_group_keys`).
    """
    return np.column_stack(
        (
            trace.src_nets.astype(np.uint16, copy=False),
            trace.dst_nets.astype(np.uint16, copy=False),
            trace.src_ports.astype(np.uint16, copy=False),
            trace.dst_ports.astype(np.uint16, copy=False),
            trace.protocols.astype(np.uint16),
        )
    )


def _group_keys(
    keys: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """(representative_index, order, group_sorted) for the chunk's keys.

    ``order`` walks the chunk grouped by key, each group's packets in
    original arrival order (``lexsort`` is stable); ``group_sorted``
    labels ``order``'s positions with ascending group ids; and
    ``representative_index[g]`` is a chunk position carrying group
    ``g``'s key.  The four 16-bit address/port fields pack into one
    uint64 sort key with the protocol as a secondary — integer
    ``lexsort`` is several times faster than ``np.unique`` over a
    structured row view, whose comparison sort on void dtype would
    dominate the whole kernel.
    """
    columns = keys.astype(np.uint64)
    packed = (
        (columns[:, 0] << np.uint64(48))
        | (columns[:, 1] << np.uint64(32))
        | (columns[:, 2] << np.uint64(16))
        | columns[:, 3]
    )
    protocol = columns[:, 4]
    order = np.lexsort((protocol, packed))
    packed_sorted = packed[order]
    protocol_sorted = protocol[order]
    new_group = np.empty(order.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (packed_sorted[1:] != packed_sorted[:-1]) | (
        protocol_sorted[1:] != protocol_sorted[:-1]
    )
    group_sorted = np.cumsum(new_group) - 1
    representative_index = order[np.flatnonzero(new_group)]
    return representative_index.astype(np.int64), order, group_sorted


def _record(key: Tuple[int, ...], packets: int, bytes_: int,
            first_us: int, last_us: int, reason: str) -> FlowRecord:
    src_net, dst_net, src_port, dst_port, protocol = key
    return FlowRecord(
        src_net=src_net,
        dst_net=dst_net,
        src_port=src_port,
        dst_port=dst_port,
        protocol=protocol,
        packets=packets,
        bytes=bytes_,
        first_us=first_us,
        last_us=last_us,
        reason=reason,
    )


def _replay(
    table: FlowTable,
    timestamps_us: "np.ndarray",
    sizes: "np.ndarray",
    keys: "np.ndarray",
    reason: str,
    demoted: Optional[Dict[str, int]],
) -> List[FlowRecord]:
    """Feed the chunk through the per-packet reference path.

    The chunk's packets are counted under ``reason`` in ``demoted``
    before the replay starts (a backwards timestamp raises mid-replay,
    exactly as per-packet feeding would).
    """
    if demoted is not None:
        demoted[reason] += int(timestamps_us.shape[0])
    records: List[FlowRecord] = []
    key_rows = keys.tolist()
    for timestamp, size, row in zip(
        timestamps_us.tolist(), sizes.tolist(), key_rows
    ):
        records.extend(table.observe(timestamp, size, tuple(row)))
    return records


def _active_restarts(
    times_sorted: "np.ndarray",
    boundary: "np.ndarray",
    continued_pos: "np.ndarray",
    continued_first_us: "np.ndarray",
    active_timeout_us: int,
) -> "np.ndarray":
    """Grouped positions where an active timeout restarts a flow.

    ``boundary`` marks the first packet of every idle segment and
    ``continued_pos`` the segments that continue a live entry, whose
    clock starts at ``continued_first_us``.  Within a segment the entry
    is exported ``active`` and restarted by the first packet at or
    after its ``first_us + active_timeout_us``, and the restarted
    sub-flow's clock starts at that packet — so a segment spanning
    ``span`` restarts at most ``ceil(span / active)`` times, each found
    by one ``searchsorted``.  A continued segment can restart at its
    own first packet: the live entry then exports whole.
    """
    seg_starts = np.flatnonzero(boundary)
    seg_ends = np.append(seg_starts[1:], times_sorted.size)
    seg_first_us = times_sorted[seg_starts]
    seg_first_us[np.searchsorted(seg_starts, continued_pos)] = (
        continued_first_us
    )
    long_segments = np.flatnonzero(
        times_sorted[seg_ends - 1] - seg_first_us >= active_timeout_us
    )
    restarts: List[int] = []
    for s in long_segments.tolist():
        lo = int(seg_starts[s])
        hi = int(seg_ends[s])
        first_us = int(seg_first_us[s])
        last_us = int(times_sorted[hi - 1])
        while last_us - first_us >= active_timeout_us:
            lo += int(
                np.searchsorted(
                    times_sorted[lo:hi], first_us + active_timeout_us
                )
            )
            restarts.append(lo)
            first_us = int(times_sorted[lo])
    return np.asarray(restarts, dtype=np.intp)


def account_chunk(
    table: FlowTable,
    timestamps_us: "np.ndarray",
    sizes: "np.ndarray",
    keys: "np.ndarray",
) -> List[FlowRecord]:
    """Account one chunk; bit-identical to per-packet ``observe`` calls.

    Parameters mirror one chunk of :func:`encode_flow_keys` output with
    its timestamp and size columns.  Returns the records this chunk
    exported, in export order (empty for a proven event-free chunk).
    """
    return _account_chunk(table, timestamps_us, sizes, keys, None)


def _account_chunk(
    table: FlowTable,
    timestamps_us: "np.ndarray",
    sizes: "np.ndarray",
    keys: "np.ndarray",
    demoted: Optional[Dict[str, int]],
) -> List[FlowRecord]:
    """:func:`account_chunk`, counting replayed packets in ``demoted``."""
    n = int(timestamps_us.shape[0])
    if n == 0:
        return []
    arrivals = np.asarray(timestamps_us, dtype=np.int64)
    first_ts = int(arrivals[0])
    last_ts = int(arrivals[-1])
    if (
        table._last_timestamp is not None and first_ts < table._last_timestamp
    ) or (n > 1 and np.any(np.diff(arrivals) < 0)):
        return _replay(
            table, timestamps_us, sizes, keys, DEMOTED_BACKWARDS_TIME, demoted
        )

    idle = table.idle_timeout_us
    entries = table._entries
    sizes64 = np.asarray(sizes, dtype=np.int64)

    # View the chunk grouped by key, each group's packets in arrival
    # order, then segment each run at >= idle gaps.
    first_index, order, group_sorted = _group_keys(keys)
    group_count = first_index.size
    group_keys = [
        tuple(row) for row in np.ascontiguousarray(keys)[first_index].tolist()
    ]
    live = [entries.get(key) for key in group_keys]

    times_sorted = arrivals[order]
    group_start = np.empty(n, dtype=bool)
    group_start[0] = True
    group_start[1:] = group_sorted[1:] != group_sorted[:-1]
    group_start_pos = np.flatnonzero(group_start)

    # A packet's predecessor activity is the previous packet of its
    # key, or — for a key's first packet — its live entry's last_us
    # (its own time when there is no entry, which can never break).
    prev_times = np.empty(n, dtype=np.int64)
    prev_times[1:] = times_sorted[:-1]
    prev_times[group_start_pos] = np.fromiter(
        (
            entry.last_us if entry is not None else int(times_sorted[pos])
            for entry, pos in zip(live, group_start_pos.tolist())
        ),
        dtype=np.int64,
        count=group_count,
    )
    breaks = (times_sorted - prev_times) >= idle

    # A key's first packet continues its live entry unless the gap to
    # the entry broke — then the entry exports whole, pre-chunk.
    has_entry = np.fromiter(
        (entry is not None for entry in live), dtype=bool, count=group_count
    )
    continued_pos = group_start_pos[has_entry & ~breaks[group_start_pos]]
    continued = [live[g] for g in group_sorted[continued_pos].tolist()]
    continued_first_us, continued_packets, continued_bytes = (
        np.array(
            [(entry.first_us, entry.packets, entry.bytes) for entry in continued],
            dtype=np.int64,
        )
        .reshape(-1, 3)
        .T
    )

    # Sub-flows: idle segments, split again at every active restart.
    boundary = group_start | breaks
    restarts = _active_restarts(
        times_sorted,
        boundary,
        continued_pos,
        continued_first_us,
        table.active_timeout_us,
    )
    is_restart = np.zeros(n, dtype=bool)
    is_restart[restarts] = True
    boundary |= is_restart

    seg_starts = np.flatnonzero(boundary)
    seg_ends = np.append(seg_starts[1:], n)
    seg_group = group_sorted[seg_starts]
    seg_first_us = times_sorted[seg_starts]
    seg_last_us = times_sorted[seg_ends - 1]
    seg_packets = seg_ends - seg_starts
    seg_bytes = np.add.reduceat(sizes64[order], seg_starts)
    seg_first_idx = order[seg_starts]
    seg_final_idx = order[seg_ends - 1]
    seg_count = seg_starts.size

    # A continued entry restarted at its key's first packet exports
    # whole (``active``); otherwise the first sub-flow merges into it.
    entry_restarted = is_restart[continued_pos]
    entry_merged = ~entry_restarted
    merged_seg = np.searchsorted(seg_starts, continued_pos[entry_merged])
    merged = np.zeros(seg_count, dtype=bool)
    merged[merged_seg] = True
    seg_first_us[merged_seg] = continued_first_us[entry_merged]
    seg_packets[merged_seg] += continued_packets[entry_merged]
    seg_bytes[merged_seg] += continued_bytes[entry_merged]

    # Each sub-flow ends by an active restart of its own key, by idle
    # expiry, or survives the chunk as its key's live entry.
    active_closed = np.zeros(seg_count, dtype=bool)
    active_closed[:-1] = is_restart[seg_starts[1:]] & ~group_start[
        seg_starts[1:]
    ]
    group_last_seg = np.empty(seg_count, dtype=bool)
    group_last_seg[-1] = True
    group_last_seg[:-1] = seg_group[1:] != seg_group[:-1]
    survives = group_last_seg & (last_ts - seg_last_us < idle)
    idle_closed = ~survives & ~active_closed

    # Pre-chunk closures, in dict order (= LRU order): untouched
    # entries gone idle by chunk end, and entries whose key reappears
    # only after an idle break.
    entry_broken = {
        group_keys[g]
        for g in group_sorted[np.flatnonzero(group_start & breaks)].tolist()
    }
    touched = set(group_keys)
    prechunk_closed = [
        entry
        for key, entry in entries.items()
        if key in entry_broken
        or (key not in touched and last_ts - entry.last_us >= idle)
    ]

    # Occupancy trajectory: +1 at each creation (non-merged sub-flow,
    # restarts included), -1 at each closure's trigger arrival — the
    # first arrival past its idle deadline, or the restarting packet
    # (expiries and the active export at an arrival precede its
    # insertion).  The reference tracks peak only at creations, and
    # evicts when a creation finds the table full — both read off this
    # trajectory.
    create_idx = seg_first_idx[~merged]
    idle_segs = np.flatnonzero(idle_closed)
    idle_segs = idle_segs[np.argsort(seg_final_idx[idle_segs], kind="stable")]
    idle_trig = np.searchsorted(
        arrivals, seg_last_us[idle_segs] + idle, side="left"
    )
    active_trig = order[restarts]
    prechunk_last = np.fromiter(
        (entry.last_us for entry in prechunk_closed),
        dtype=np.int64,
        count=len(prechunk_closed),
    )
    prechunk_trig = np.searchsorted(arrivals, prechunk_last + idle, side="left")
    if create_idx.size:
        delta = np.zeros(n, dtype=np.int64)
        np.add.at(delta, create_idx, 1)
        np.subtract.at(delta, idle_trig, 1)
        np.subtract.at(delta, prechunk_trig, 1)
        np.subtract.at(delta, active_trig, 1)
        occupancy_after = len(entries) + np.cumsum(delta)
        peak_chunk = int(occupancy_after[create_idx].max())
        if peak_chunk > table.max_flows:
            return _replay(
                table, timestamps_us, sizes, keys, DEMOTED_EVICTION, demoted
            )
    else:
        peak_chunk = 0

    # Export order: at one arrival the table first pops idle expiries
    # from the LRU end — ascending (last_us, update sequence) — then
    # exports the arriving key's entry if its active timeout fired, so
    # the global stream is ascending (trigger, idle-before-active,
    # last_us, update sequence).  Pre-chunk closures precede chunk
    # sub-flows on full ties because their last update is older.
    active_segs = np.flatnonzero(active_closed)
    sub_flows = np.concatenate((idle_segs, active_segs))
    sub_reasons = [REASON_IDLE] * idle_segs.size + [REASON_ACTIVE] * (
        active_segs.size
    )
    candidates = [entry.export(REASON_IDLE) for entry in prechunk_closed]
    candidates.extend(
        _record(group_keys[g], packets, bytes_, first_us, last_us, reason)
        for g, packets, bytes_, first_us, last_us, reason in zip(
            seg_group[sub_flows].tolist(),
            seg_packets[sub_flows].tolist(),
            seg_bytes[sub_flows].tolist(),
            seg_first_us[sub_flows].tolist(),
            seg_last_us[sub_flows].tolist(),
            sub_reasons,
        )
    )
    candidates.extend(
        entry.export(REASON_ACTIVE)
        for entry, restarted in zip(continued, entry_restarted.tolist())
        if restarted
    )
    idle_count = len(prechunk_closed) + idle_segs.size
    export_trigger = np.concatenate(
        (
            prechunk_trig,
            idle_trig,
            seg_first_idx[active_segs + 1],
            order[continued_pos[entry_restarted]],
        )
    )
    export_last_us = np.concatenate(
        (
            prechunk_last,
            seg_last_us[idle_segs],
            np.zeros(restarts.size, dtype=np.int64),
        )
    )
    export_active = np.arange(export_trigger.size) >= idle_count
    records = [
        candidates[i]
        for i in np.lexsort(
            (export_last_us, export_active, export_trigger)
        ).tolist()
    ]

    # Commit: counters, then the entries dict rebuilt in LRU order —
    # untouched survivors keep their relative order ahead of touched
    # keys re-inserted by final update position.
    table.exported[REASON_IDLE] += idle_count
    table.exported[REASON_ACTIVE] += restarts.size
    table.flows_created += int(create_idx.size)
    if peak_chunk > table.peak_occupancy:
        table.peak_occupancy = peak_chunk
    for entry in prechunk_closed:
        del entries[entry.key]
    for key in group_keys:
        entries.pop(key, None)
    surviving = np.flatnonzero(survives)
    surviving = surviving[np.argsort(seg_final_idx[surviving], kind="stable")]
    for g, first_us, packets, bytes_, last_us in zip(
        *(
            column[surviving].tolist()
            for column in (
                seg_group,
                seg_first_us,
                seg_packets,
                seg_bytes,
                seg_last_us,
            )
        )
    ):
        key = group_keys[g]
        entry = _FlowEntry(key, first_us, 0)
        entry.packets = packets
        entry.bytes = bytes_
        entry.last_us = last_us
        entries[key] = entry
    table._last_timestamp = last_ts
    return records


def fast_aggregate_trace(
    trace: Trace,
    table: Optional[FlowTable] = None,
    chunk_packets: int = DEFAULT_CHUNK_PACKETS,
) -> List[FlowRecord]:
    """Chunked, vectorized :func:`repro.flows.table.aggregate_trace`.

    Same records in the same order, for any ``chunk_packets`` — pinned
    by ``tests/fastpath/test_flows_parity.py``.
    """
    if table is None:
        table = FlowTable()
    records: List[FlowRecord] = []
    for chunk in iter_trace_chunks(trace, chunk_packets):
        records.extend(
            account_chunk(
                table, chunk.timestamps_us, chunk.sizes, encode_flow_keys(chunk)
            )
        )
    records.extend(table.flush())
    return records


class FlowAccountantKernel:
    """Chunk-feeds a :class:`StreamFlowAccountant` bit-identically.

    Wraps (does not replace) an accountant: the same tables, record
    sinks, and resolved ``flow_cache_*`` metrics are updated, so code
    holding the accountant — exposition, tests, a later per-packet
    resumption — observes exactly the state per-packet feeding would
    have produced.
    """

    def __init__(self, accountant: StreamFlowAccountant) -> None:
        self.accountant = accountant
        #: Packets the whole-chunk fallback replayed through the
        #: per-packet reference, by cause, both sides combined.
        self.demoted_packets: Dict[str, int] = {
            DEMOTED_EVICTION: 0,
            DEMOTED_BACKWARDS_TIME: 0,
        }

    def observe_chunk(self, chunk: Trace, kept: "np.ndarray") -> None:
        """Account one chunk of offered packets and their decisions."""
        kept_mask = np.asarray(kept, dtype=bool)
        if kept_mask.shape != (len(chunk),):
            raise ValueError(
                "keep mask shape %r does not match chunk of %d packets"
                % (kept_mask.shape, len(chunk))
            )
        keys = encode_flow_keys(chunk)
        parent, sampled = self.accountant._sides
        self._account(parent, chunk.timestamps_us, chunk.sizes, keys)
        if kept_mask.any():
            self._account(
                sampled,
                chunk.timestamps_us[kept_mask],
                chunk.sizes[kept_mask],
                keys[kept_mask],
            )

    def _account(
        self,
        side: _Side,
        timestamps_us: "np.ndarray",
        sizes: "np.ndarray",
        keys: "np.ndarray",
    ) -> None:
        self.accountant._publish(
            side,
            _account_chunk(
                side[0], timestamps_us, sizes, keys, self.demoted_packets
            ),
        )

    def flush(self) -> None:
        """Close out both tables at end of stream (reference flush)."""
        self.accountant.flush()
