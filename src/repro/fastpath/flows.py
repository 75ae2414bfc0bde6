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
  the exports as one column block in reference order (one gather of
  the sub-flows' keys and counters, one small array for closed live
  entries, one ``lexsort`` permutation), the occupancy trajectory
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
  packets by cause, and the accountant's store mirrors each cause as a
  ``flow_cache_demoted_packets_<cause>`` counter from its first replay.

Either way the kernel exports the chunk's flows as one
:class:`~repro.flows.table.FlowColumns` block, rows in export order —
no :class:`~repro.flows.table.FlowRecord` is built outside the replay —
and leaves ``table`` — entries, LRU order, counters, peak occupancy,
last timestamp — bit-identical to per-packet feeding.
:func:`account_chunk` materializes the block's rows for tests.

:class:`FlowAccountantKernel` lifts the same contract to
:class:`~repro.flows.sampled.StreamFlowAccountant`: both flow tables,
both export streams, and the ``flow_cache_*`` live metrics end each
chunk exactly as the per-packet ``observe`` loop would leave them
(gauges are last-write-wins and counters accumulate totals, so the
chunk-aggregated updates land on identical values).
"""

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.fastpath.pipeline import DEFAULT_CHUNK_PACKETS, iter_trace_chunks
from repro.flows.sampled import StreamFlowAccountant, _Side
from repro.flows.table import (
    CODE_ACTIVE,
    CODE_IDLE,
    REASON_ACTIVE,
    REASON_IDLE,
    FlowColumns,
    FlowRecord,
    FlowTable,
    _FlowEntry,
    group_flow_keys,
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
    rows pack losslessly into integers for grouping
    (:func:`~repro.flows.table.group_flow_keys`).
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


def _replay(
    table: FlowTable,
    timestamps_us: "np.ndarray",
    sizes: "np.ndarray",
    keys: "np.ndarray",
    reason: str,
    demote: Optional[Callable[[str, int], None]],
) -> FlowColumns:
    """Feed the chunk through the per-packet reference path.

    The chunk's packets are reported to ``demote`` under ``reason``
    before the replay starts (a backwards timestamp raises mid-replay,
    exactly as per-packet feeding would).
    """
    if demote is not None:
        demote(reason, int(timestamps_us.shape[0]))
    records: List[FlowRecord] = []
    key_rows = keys.tolist()
    for timestamp, size, row in zip(
        timestamps_us.tolist(), sizes.tolist(), key_rows
    ):
        records.extend(table.observe(timestamp, size, tuple(row)))
    return FlowColumns.from_records(records)


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
    exported, in export order (empty for a proven event-free chunk),
    materialized from the kernel's column block.  The row view exists
    for the parity tests; production code consumes the block through
    :func:`fast_aggregate_trace` and :class:`FlowAccountantKernel`.
    """
    return _account_chunk(table, timestamps_us, sizes, keys, None).to_records()


def _account_chunk(
    table: FlowTable,
    timestamps_us: "np.ndarray",
    sizes: "np.ndarray",
    keys: "np.ndarray",
    demote: Optional[Callable[[str, int], None]],
) -> FlowColumns:
    """The chunk's exports as one block; replays are reported to ``demote``."""
    n = int(timestamps_us.shape[0])
    if n == 0:
        return FlowColumns.from_records(())
    arrivals = np.asarray(timestamps_us, dtype=np.int64)
    first_ts = int(arrivals[0])
    last_ts = int(arrivals[-1])
    if (
        table._last_timestamp is not None and first_ts < table._last_timestamp
    ) or (n > 1 and np.any(np.diff(arrivals) < 0)):
        return _replay(
            table, timestamps_us, sizes, keys, DEMOTED_BACKWARDS_TIME, demote
        )

    idle = table.idle_timeout_us
    entries = table._entries
    sizes64 = np.asarray(sizes, dtype=np.int64)

    # View the chunk grouped by key, each group's packets in arrival
    # order, then segment each run at >= idle gaps.
    first_index, order, group_sorted = group_flow_keys(keys)
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
                table, timestamps_us, sizes, keys, DEMOTED_EVICTION, demote
            )
    else:
        peak_chunk = 0

    # Export order: at one arrival the table first pops idle expiries
    # from the LRU end — ascending (last_us, update sequence) — then
    # exports the arriving key's entry if its active timeout fired, so
    # the global stream is ascending (trigger, idle-before-active,
    # last_us, update sequence).  The block holds pre-chunk closures
    # (in LRU order), idle then active sub-flows, and restarted live
    # entries; pre-chunk closures precede chunk sub-flows on full ties
    # because their last update is older, and the stable sort keeps it.
    active_segs = np.flatnonzero(active_closed)
    sub_flows = np.concatenate((idle_segs, active_segs))
    block = FlowColumns.concat(
        (
            FlowColumns.from_entries(prechunk_closed, REASON_IDLE),
            FlowColumns(
                keys=keys[first_index[seg_group[sub_flows]]],
                packets=seg_packets[sub_flows],
                bytes=seg_bytes[sub_flows],
                first_us=seg_first_us[sub_flows],
                last_us=seg_last_us[sub_flows],
                reasons=np.repeat(
                    np.array((CODE_IDLE, CODE_ACTIVE), dtype=np.int8),
                    (idle_segs.size, active_segs.size),
                ),
            ),
            FlowColumns.from_entries(
                [
                    entry
                    for entry, restarted in zip(
                        continued, entry_restarted.tolist()
                    )
                    if restarted
                ],
                REASON_ACTIVE,
            ),
        )
    )
    export_trigger = np.concatenate(
        (
            prechunk_trig,
            idle_trig,
            seg_first_idx[active_segs + 1],
            order[continued_pos[entry_restarted]],
        )
    )
    exported = block.take(
        np.lexsort((block.last_us, block.reasons, export_trigger))
    )

    # Commit: counters, then the entries dict rebuilt in LRU order —
    # untouched survivors keep their relative order ahead of touched
    # keys re-inserted by final update position.
    table.exported[REASON_IDLE] += len(prechunk_closed) + idle_segs.size
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
    return exported


def fast_aggregate_trace(
    trace: Trace,
    table: Optional[FlowTable] = None,
    chunk_packets: int = DEFAULT_CHUNK_PACKETS,
) -> FlowColumns:
    """Chunked, vectorized :func:`repro.flows.table.aggregate_trace`.

    The same records in the same order, for any ``chunk_packets``, as
    one column block (``to_records()`` gives the rows) — pinned by
    ``tests/fastpath/test_flows_parity.py``.
    """
    if table is None:
        table = FlowTable()
    blocks = [
        _account_chunk(
            table,
            chunk.timestamps_us,
            chunk.sizes,
            encode_flow_keys(chunk),
            None,
        )
        for chunk in iter_trace_chunks(trace, chunk_packets)
    ]
    blocks.append(table.flush_columns())
    return FlowColumns.concat(blocks)


class FlowAccountantKernel:
    """Chunk-feeds a :class:`StreamFlowAccountant` bit-identically.

    Wraps (does not replace) an accountant: the same tables, export
    block lists, and resolved ``flow_cache_*`` metrics are updated, so code
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
            _account_chunk(side[0], timestamps_us, sizes, keys, self._demote),
        )

    def _demote(self, reason: str, packets: int) -> None:
        """Count a replayed chunk here and in the accountant's store.

        The store's counter is created by the first demotion, so a run
        that demotes nothing exposes exactly what it exposed before.
        """
        self.demoted_packets[reason] += packets
        self.accountant.store.counter(
            "flow_cache_demoted_packets_" + reason
        ).inc(packets)

    def flush(self) -> None:
        """Close out both tables at end of stream (reference flush)."""
        self.accountant.flush()
