"""Vectorized flow accounting over trace chunks.

The per-packet reference, :class:`repro.flows.table.FlowTable`, is a
faithful NetFlow cache: idle expiry interleaved with arrivals, active
timeouts, LRU emergency eviction — all order-dependent.  Vectorizing it
*bit-identically* splits each chunk into two regimes:

* **Idle-only chunks** — the common case, including low-rate traces
  where every chunk spans many idle timeouts.  Idle expiry is
  reconstructible without replay: a flow's packet run splits into
  *segments* wherever consecutive activity (counting any live entry's
  pre-chunk activity) is separated by at least the idle timeout, every
  closed segment exports with reason ``idle`` at the first arrival past
  its deadline, and the global export order is exactly ascending
  ``(trigger arrival, last_us, update sequence)`` because the table
  pops expiries from the LRU end — which *is* last-update order.  The
  kernel therefore computes, in O(chunk) numpy plus O(segments) python:
  per-key segmentation (one ``argsort``/``reduceat`` pass), the export
  records in reference order, the occupancy trajectory (creations
  minus removals, cumulative-summed) for exact creation-time peak
  tracking, and the final entries rebuilt in the reference's LRU
  order — untouched survivors first, then touched keys by final
  update position.

* **Chunks with other events** — an active timeout that would fire
  (some segment outlives ``active_timeout_us``), an emergency eviction
  (the computed occupancy trajectory crosses ``max_flows``), or
  non-monotonic timestamps.  Both detections are exact, both are made
  *before* any state is mutated, and both fall back to the per-packet
  reference for the whole chunk, so identity never depends on
  reproducing eviction interleavings vectorially.

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

from typing import List, Optional, Tuple

import numpy as np

from repro.fastpath.pipeline import DEFAULT_CHUNK_PACKETS, iter_trace_chunks
from repro.flows.sampled import StreamFlowAccountant, _Side
from repro.flows.table import REASON_IDLE, FlowRecord, FlowTable, _FlowEntry
from repro.trace.trace import Trace

__all__ = [
    "FlowAccountantKernel",
    "account_chunk",
    "encode_flow_keys",
    "fast_aggregate_trace",
]


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
            first_us: int, last_us: int) -> FlowRecord:
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
        reason=REASON_IDLE,
    )


def _fallback(
    table: FlowTable,
    timestamps_us: "np.ndarray",
    sizes: "np.ndarray",
    keys: "np.ndarray",
) -> List[FlowRecord]:
    """Feed the chunk through the per-packet reference path."""
    records: List[FlowRecord] = []
    key_rows = keys.tolist()
    for timestamp, size, row in zip(
        timestamps_us.tolist(), sizes.tolist(), key_rows
    ):
        records.extend(table.observe(timestamp, size, tuple(row)))
    return records


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
    n = int(timestamps_us.shape[0])
    if n == 0:
        return []
    arrivals = np.asarray(timestamps_us, dtype=np.int64)
    first_ts = int(arrivals[0])
    last_ts = int(arrivals[-1])
    if table._last_timestamp is not None and first_ts < table._last_timestamp:
        return _fallback(table, timestamps_us, sizes, keys)
    if n > 1 and np.any(np.diff(arrivals) < 0):
        return _fallback(table, timestamps_us, sizes, keys)

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

    seg_starts = np.flatnonzero(group_start | breaks)
    seg_ends = np.append(seg_starts[1:], n)
    seg_group = group_sorted[seg_starts]
    seg_first_us = times_sorted[seg_starts].copy()
    seg_last_us = times_sorted[seg_ends - 1]
    seg_packets = seg_ends - seg_starts
    seg_bytes = np.add.reduceat(sizes64[order], seg_starts)
    seg_first_idx = order[seg_starts]
    seg_final_idx = order[seg_ends - 1]
    seg_count = seg_starts.size

    # A group's first segment continues its live entry unless the gap
    # to the entry broke — then the entry exports whole, pre-chunk.
    has_entry = np.asarray(
        [live[g] is not None for g in seg_group.tolist()], dtype=bool
    )
    merged = group_start[seg_starts] & ~breaks[seg_starts] & has_entry
    for s in np.flatnonzero(merged).tolist():
        entry = live[int(seg_group[s])]
        seg_first_us[s] = entry.first_us
        seg_packets[s] += entry.packets
        seg_bytes[s] += entry.bytes

    # An active timeout would export-and-restart mid-segment: exact
    # detection (some packet arrives >= active after its segment's
    # first_us), handled by the reference path.
    if np.any(seg_last_us - seg_first_us >= table.active_timeout_us):
        return _fallback(table, timestamps_us, sizes, keys)

    group_last_seg = np.empty(seg_count, dtype=bool)
    group_last_seg[-1] = True
    group_last_seg[:-1] = seg_group[1:] != seg_group[:-1]
    closed_seg = ~group_last_seg | (last_ts - seg_last_us >= idle)

    # Pre-chunk closures, in dict order (= LRU order): untouched
    # entries gone idle by chunk end, and entries whose key reappears
    # only after an idle break.
    entry_broken = {
        group_keys[int(seg_group[s])]
        for s in np.flatnonzero(
            group_start[seg_starts] & breaks[seg_starts]
        ).tolist()
    }
    touched = set(group_keys)
    prechunk_closed = [
        entry
        for key, entry in entries.items()
        if key in entry_broken
        or (key not in touched and last_ts - entry.last_us >= idle)
    ]

    # Occupancy trajectory: +1 at each creation (non-merged segment),
    # -1 at each closure's trigger arrival (first arrival past its
    # idle deadline; expiries at an arrival precede its insertion).
    # The reference tracks peak only at creations, and evicts when a
    # creation finds the table full — both read off this trajectory.
    create_idx = seg_first_idx[~merged]
    closed_trig = np.searchsorted(
        arrivals, seg_last_us[closed_seg] + idle, side="left"
    )
    prechunk_last = np.fromiter(
        (entry.last_us for entry in prechunk_closed),
        dtype=np.int64,
        count=len(prechunk_closed),
    )
    prechunk_trig = np.searchsorted(arrivals, prechunk_last + idle, side="left")
    if create_idx.size:
        delta = np.zeros(n, dtype=np.int64)
        np.add.at(delta, create_idx, 1)
        np.subtract.at(delta, closed_trig, 1)
        np.subtract.at(delta, prechunk_trig, 1)
        occupancy_after = len(entries) + np.cumsum(delta)
        peak_chunk = int(occupancy_after[create_idx].max())
        if peak_chunk > table.max_flows:
            return _fallback(table, timestamps_us, sizes, keys)
    else:
        peak_chunk = 0

    # Export order: the table pops expiries from the LRU end, so the
    # global stream is ascending (trigger, last_us, update sequence);
    # pre-chunk closures precede chunk segments on full ties because
    # their last update is older.
    candidates: List[Tuple[int, int, int, FlowRecord]] = []
    for seq, (entry, trig) in enumerate(
        zip(prechunk_closed, prechunk_trig.tolist())
    ):
        candidates.append((trig, entry.last_us, seq, entry.export(REASON_IDLE)))
    closed_indices = np.flatnonzero(closed_seg)
    update_order = np.argsort(seg_final_idx[closed_seg], kind="stable")
    for seq, (s, trig) in enumerate(
        zip(
            closed_indices[update_order].tolist(),
            closed_trig[update_order].tolist(),
        ),
        start=len(candidates),
    ):
        candidates.append(
            (
                int(trig),
                int(seg_last_us[s]),
                seq,
                _record(
                    group_keys[int(seg_group[s])],
                    int(seg_packets[s]),
                    int(seg_bytes[s]),
                    int(seg_first_us[s]),
                    int(seg_last_us[s]),
                ),
            )
        )
    candidates.sort(key=lambda item: (item[0], item[1], item[2]))
    records = [record for _trig, _last, _seq, record in candidates]

    # Commit: counters, then the entries dict rebuilt in LRU order —
    # untouched survivors keep their relative order ahead of touched
    # keys re-inserted by final update position.
    if records:
        table.exported[REASON_IDLE] += len(records)
    table.flows_created += int(create_idx.size)
    if peak_chunk > table.peak_occupancy:
        table.peak_occupancy = peak_chunk
    for entry in prechunk_closed:
        del entries[entry.key]
    for key in group_keys:
        entries.pop(key, None)
    surviving = np.flatnonzero(~closed_seg)
    for s in surviving[
        np.argsort(seg_final_idx[~closed_seg], kind="stable")
    ].tolist():
        key = group_keys[int(seg_group[s])]
        entry = _FlowEntry(key, int(seg_first_us[s]), 0)
        entry.packets = int(seg_packets[s])
        entry.bytes = int(seg_bytes[s])
        entry.last_us = int(seg_last_us[s])
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

    def observe_chunk(self, chunk: Trace, kept: "np.ndarray") -> None:
        """Account one chunk of offered packets and their decisions."""
        kept_mask = np.asarray(kept, dtype=bool)
        if kept_mask.shape != (len(chunk),):
            raise ValueError(
                "keep mask shape %r does not match chunk of %d packets"
                % (kept_mask.shape, len(chunk))
            )
        keys = encode_flow_keys(chunk)
        self._account_side(
            self.accountant._sides[0], chunk.timestamps_us, chunk.sizes, keys
        )
        if kept_mask.any():
            self._account_side(
                self.accountant._sides[1],
                chunk.timestamps_us[kept_mask],
                chunk.sizes[kept_mask],
                keys[kept_mask],
            )

    @staticmethod
    def _account_side(
        side: _Side,
        timestamps_us: "np.ndarray",
        sizes: "np.ndarray",
        keys: "np.ndarray",
    ) -> None:
        table, records, occupancy, peak, exported, evicted = side
        new_records = account_chunk(table, timestamps_us, sizes, keys)
        if new_records:
            records.extend(new_records)
            exported.inc(len(new_records))
            evictions = sum(
                record.reason == "evicted" for record in new_records
            )
            if evictions:
                evicted.inc(evictions)
        occupancy.set(float(table.occupancy))
        peak.set(float(table.peak_occupancy))

    def flush(self) -> None:
        """Close out both tables at end of stream (reference flush)."""
        self.accountant.flush()
