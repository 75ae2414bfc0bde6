"""Streaming NetFlow-style flow accounting.

The paper characterizes traffic packet by packet; its successors
(Chabchoub et al., Clegg et al.) moved to the *flow* level, where the
unit of interest is a 5-tuple conversation and the operational device
is the router's flow cache: a bounded table keyed on
``(src, dst, sport, dport, proto)`` whose entries accumulate packet
and byte counts until a timeout (or memory pressure) expires them into
immutable export records.

:class:`FlowTable` reproduces that device faithfully enough to study
how sampling distorts flow statistics:

* **idle timeout** — a flow silent for ``idle_timeout_us`` is expired;
  expiry is lazy and O(expired) per packet because the table keeps its
  entries in least-recently-updated order;
* **active timeout** — a flow older than ``active_timeout_us`` is
  exported and restarted on its next packet, the NetFlow rule that
  bounds how stale a long-lived flow's accounting can be;
* **bounded memory** — at ``max_flows`` occupancy the least recently
  updated entry is emergency-evicted to make room, so the per-packet
  cost and the footprint are independent of how many flows the
  traffic contains.

Everything is deterministic: no randomness, no wall clock — time is
the packet timestamps themselves, so the same trace always yields the
same flow records in the same order.
"""

from collections import OrderedDict
from dataclasses import dataclass
from itertools import starmap
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.trace import Trace

#: The classic 5-tuple: (src_net, dst_net, src_port, dst_port, protocol).
FlowKey = Tuple[int, int, int, int, int]

#: NetFlow v5 defaults: expire a silent flow after 15 s, re-export a
#: long-lived one every 30 minutes.
DEFAULT_IDLE_TIMEOUT_US = 15_000_000
DEFAULT_ACTIVE_TIMEOUT_US = 1_800_000_000

#: Export reasons, in the order a record can acquire them.
REASON_IDLE = "idle"
REASON_ACTIVE = "active"
REASON_EVICTED = "evicted"
REASON_FLUSH = "flush"

#: A :class:`FlowColumns` block stores each record's export reason as
#: an int8 index into this tuple.
REASONS = (REASON_IDLE, REASON_ACTIVE, REASON_EVICTED, REASON_FLUSH)
CODE_IDLE, CODE_ACTIVE, CODE_EVICTED, CODE_FLUSH = range(len(REASONS))
_REASON_CODES = {reason: code for code, reason in enumerate(REASONS)}


@dataclass(frozen=True)
class FlowRecord:
    """One exported flow: the immutable unit of flow-level analysis.

    ``packets``/``bytes`` count what the table saw for this incarnation
    of the 5-tuple; a conversation split by an idle or active timeout
    yields several records, exactly as a router's export stream would.
    """

    src_net: int
    dst_net: int
    src_port: int
    dst_port: int
    protocol: int
    packets: int
    bytes: int
    first_us: int
    last_us: int
    reason: str

    @property
    def key(self) -> FlowKey:
        """The flow's 5-tuple."""
        return (
            self.src_net,
            self.dst_net,
            self.src_port,
            self.dst_port,
            self.protocol,
        )

    @property
    def duration_us(self) -> int:
        """First-to-last packet span (0 for single-packet flows)."""
        return self.last_us - self.first_us


@dataclass(frozen=True, eq=False)
class FlowColumns:
    """Exported flow records as one column block, rows in export order.

    ``keys`` is the ``(n, 5)`` block of 5-tuples (the
    :data:`FlowKey` field order); ``packets``, ``bytes``, ``first_us``
    and ``last_us`` are int64; ``reasons`` holds int8 codes into
    :data:`REASONS`.  The flow kernel exports one block per chunk and
    every flow-level consumer reads the columns directly;
    :meth:`to_records` builds :class:`FlowRecord` rows only for a
    caller that asks for them.  Blocks compare equal when every column
    holds the same values, whatever the integer dtypes.
    """

    keys: np.ndarray
    packets: np.ndarray
    bytes: np.ndarray
    first_us: np.ndarray
    last_us: np.ndarray
    reasons: np.ndarray

    def __len__(self) -> int:
        return int(self.reasons.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowColumns):
            return NotImplemented
        return all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self._columns(), other._columns())
        )

    __hash__ = None  # type: ignore[assignment]

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return (
            self.keys,
            self.packets,
            self.bytes,
            self.first_us,
            self.last_us,
            self.reasons,
        )

    def take(self, index: np.ndarray) -> "FlowColumns":
        """The rows at ``index``, in that order."""
        return FlowColumns(*(column[index] for column in self._columns()))

    @classmethod
    def concat(cls, blocks: Sequence["FlowColumns"]) -> "FlowColumns":
        """The blocks' rows end to end (empty blocks cost nothing)."""
        full = [block for block in blocks if len(block)]
        if len(full) == 1:
            return full[0]
        if not full:
            return blocks[0] if blocks else cls._from_rows(())
        columns = zip(*(block._columns() for block in full))
        return cls(*(np.concatenate(column) for column in columns))

    @classmethod
    def _from_rows(cls, rows: Sequence[Sequence[int]]) -> "FlowColumns":
        """A block from rows of the nine record fields and a reason code."""
        table = np.asarray(rows, dtype=np.int64).reshape(-1, 10)
        return cls(
            keys=table[:, :5],
            packets=table[:, 5],
            bytes=table[:, 6],
            first_us=table[:, 7],
            last_us=table[:, 8],
            reasons=table[:, 9].astype(np.int8),
        )

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> "FlowColumns":
        """The block holding ``records``, in order."""
        return cls._from_rows(
            [
                (
                    r.src_net, r.dst_net, r.src_port, r.dst_port, r.protocol,
                    r.packets, r.bytes, r.first_us, r.last_us,
                    _REASON_CODES[r.reason],
                )
                for r in records
            ]
        )

    @classmethod
    def from_entries(
        cls, entries: Iterable["_FlowEntry"], reason: str
    ) -> "FlowColumns":
        """Live entries exported for ``reason``, without building records."""
        code = _REASON_CODES[reason]
        return cls._from_rows(
            [
                (*e.key, e.packets, e.bytes, e.first_us, e.last_us, code)
                for e in entries
            ]
        )

    def rows(self) -> List[tuple]:
        """Every row as a plain tuple in :class:`FlowRecord` field order.

        One ``tolist`` per column, then one ``zip``: the cost of a row
        is a tuple, not a dozen numpy scalar conversions.
        """
        return list(
            zip(
                *self.keys.T.tolist(),
                self.packets.tolist(),
                self.bytes.tolist(),
                self.first_us.tolist(),
                self.last_us.tolist(),
                [REASONS[code] for code in self.reasons.tolist()],
            )
        )

    def to_records(self) -> List[FlowRecord]:
        """The rows as :class:`FlowRecord` objects."""
        return list(starmap(FlowRecord, self.rows()))


def group_flow_keys(
    keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(representative_index, order, group_sorted) for a key block.

    ``order`` walks the rows grouped by key, each group's rows in
    original order (``lexsort`` is stable); ``group_sorted`` labels
    ``order``'s positions with ascending group ids; and
    ``representative_index[g]`` is a row carrying group ``g``'s key.
    The four 16-bit address/port fields pack losslessly into one uint64
    sort key with the protocol as a secondary — integer ``lexsort`` is
    several times faster than ``np.unique`` over a structured row view,
    whose comparison sort on void dtype would dominate the flow kernel.
    """
    columns = np.asarray(keys).astype(np.uint64)
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
    new_group[:1] = True
    new_group[1:] = (packed_sorted[1:] != packed_sorted[:-1]) | (
        protocol_sorted[1:] != protocol_sorted[:-1]
    )
    group_sorted = np.cumsum(new_group) - 1
    representative_index = order[np.flatnonzero(new_group)]
    return representative_index.astype(np.int64), order, group_sorted


class _FlowEntry:
    """One live cache entry (mutable; never leaves the table)."""

    __slots__ = ("key", "packets", "bytes", "first_us", "last_us")

    def __init__(self, key: FlowKey, timestamp_us: int, size: int) -> None:
        self.key = key
        self.packets = 1
        self.bytes = size
        self.first_us = timestamp_us
        self.last_us = timestamp_us

    def export(self, reason: str) -> FlowRecord:
        src_net, dst_net, src_port, dst_port, protocol = self.key
        return FlowRecord(
            src_net=src_net,
            dst_net=dst_net,
            src_port=src_port,
            dst_port=dst_port,
            protocol=protocol,
            packets=self.packets,
            bytes=self.bytes,
            first_us=self.first_us,
            last_us=self.last_us,
            reason=reason,
        )


class FlowTable:
    """A bounded, streaming flow cache with NetFlow timeout semantics.

    Parameters
    ----------
    idle_timeout_us:
        A flow whose last packet is older than this is expired the next
        time the clock (i.e. any packet) advances past its deadline.
    active_timeout_us:
        A flow older than this is exported and restarted on its next
        packet.  Must be at least the idle timeout.
    max_flows:
        Hard occupancy bound; reaching it emergency-evicts the least
        recently updated entry (counted in ``evictions``).

    Per packet the table does one idle-expiry scan from the LRU end
    (amortized O(1): each entry is expired at most once), at most one
    active-timeout export, and one dict update.  Exported records are
    returned from :meth:`observe` in export order so callers can stream
    them onward without the table retaining anything.
    """

    def __init__(
        self,
        idle_timeout_us: int = DEFAULT_IDLE_TIMEOUT_US,
        active_timeout_us: int = DEFAULT_ACTIVE_TIMEOUT_US,
        max_flows: int = 65_536,
    ) -> None:
        if idle_timeout_us <= 0:
            raise ValueError(
                "idle timeout must be positive, got %d" % idle_timeout_us
            )
        if active_timeout_us < idle_timeout_us:
            raise ValueError(
                "active timeout (%d) must be >= idle timeout (%d)"
                % (active_timeout_us, idle_timeout_us)
            )
        if max_flows < 1:
            raise ValueError("max_flows must be >= 1, got %d" % max_flows)
        self.idle_timeout_us = int(idle_timeout_us)
        self.active_timeout_us = int(active_timeout_us)
        self.max_flows = int(max_flows)
        self._entries: "OrderedDict[FlowKey, _FlowEntry]" = OrderedDict()
        #: Flow incarnations created (>= distinct 5-tuples seen).
        self.flows_created = 0
        #: Exported record counts by reason.
        self.exported: Dict[str, int] = {
            REASON_IDLE: 0,
            REASON_ACTIVE: 0,
            REASON_EVICTED: 0,
            REASON_FLUSH: 0,
        }
        #: High-water occupancy.
        self.peak_occupancy = 0
        self._last_timestamp: Optional[int] = None

    # ------------------------------------------------------------------
    # the per-packet path

    def observe(
        self, timestamp_us: int, size: int, key: FlowKey
    ) -> List[FlowRecord]:
        """Account one packet; return the flows this arrival expired."""
        timestamp_us = int(timestamp_us)
        last = self._last_timestamp
        if last is not None and timestamp_us < last:
            raise ValueError(
                "time went backwards: %d after %d" % (timestamp_us, last)
            )
        self._last_timestamp = timestamp_us
        exported = self._expire_idle(timestamp_us)
        entries = self._entries
        entry = entries.get(key)
        if entry is not None and (
            timestamp_us - entry.first_us >= self.active_timeout_us
        ):
            exported.append(entry.export(REASON_ACTIVE))
            self.exported[REASON_ACTIVE] += 1
            del entries[key]
            entry = None
        if entry is None:
            if len(entries) >= self.max_flows:
                _, victim = entries.popitem(last=False)
                exported.append(victim.export(REASON_EVICTED))
                self.exported[REASON_EVICTED] += 1
            entries[key] = _FlowEntry(key, timestamp_us, int(size))
            self.flows_created += 1
            if len(entries) > self.peak_occupancy:
                self.peak_occupancy = len(entries)
        else:
            entry.packets += 1
            entry.bytes += int(size)
            entry.last_us = timestamp_us
            entries.move_to_end(key)
        return exported

    def flush(self) -> List[FlowRecord]:
        """Export every live entry (end of stream), oldest-update first."""
        records = [
            entry.export(REASON_FLUSH) for entry in self._entries.values()
        ]
        self.exported[REASON_FLUSH] += len(records)
        self._entries.clear()
        return records

    def flush_columns(self) -> FlowColumns:
        """:meth:`flush` as one column block, building no records."""
        block = FlowColumns.from_entries(self._entries.values(), REASON_FLUSH)
        self.exported[REASON_FLUSH] += len(block)
        self._entries.clear()
        return block

    def _expire_idle(self, now_us: int) -> List[FlowRecord]:
        """Pop idle-expired entries from the LRU end."""
        expired: List[FlowRecord] = []
        entries = self._entries
        deadline = now_us - self.idle_timeout_us
        while entries:
            oldest = next(iter(entries.values()))
            if oldest.last_us > deadline:
                break
            expired.append(oldest.export(REASON_IDLE))
            self.exported[REASON_IDLE] += 1
            del entries[oldest.key]
        return expired

    # ------------------------------------------------------------------
    # inspection

    @property
    def occupancy(self) -> int:
        """Live entries currently held."""
        return len(self._entries)

    @property
    def exported_total(self) -> int:
        """Flow records exported so far, all reasons combined."""
        return sum(self.exported.values())

    def stats(self) -> Dict[str, int]:
        """Counters for telemetry: occupancy, creations, exports."""
        return {
            "occupancy": self.occupancy,
            "peak_occupancy": self.peak_occupancy,
            "flows_created": self.flows_created,
            "exported_idle": self.exported[REASON_IDLE],
            "exported_active": self.exported[REASON_ACTIVE],
            "exported_evicted": self.exported[REASON_EVICTED],
            "exported_flush": self.exported[REASON_FLUSH],
        }


def iter_flow_keys(trace: Trace) -> Iterator[Tuple[int, int, FlowKey]]:
    """Yield ``(timestamp_us, size, key)`` per packet, columnar-fast.

    The ``tolist`` conversions turn the columns into plain ints once,
    so the per-packet loop never pays numpy scalar overhead.
    """
    return (
        (timestamp, size, (src_net, dst_net, src_port, dst_port, protocol))
        for timestamp, size, src_net, dst_net, src_port, dst_port, protocol in zip(
            trace.timestamps_us.tolist(),
            trace.sizes.tolist(),
            trace.src_nets.tolist(),
            trace.dst_nets.tolist(),
            trace.src_ports.tolist(),
            trace.dst_ports.tolist(),
            trace.protocols.tolist(),
        )
    )


def aggregate_trace(
    trace: Trace, table: Optional[FlowTable] = None
) -> List[FlowRecord]:
    """Run a whole trace through a flow table; return every record.

    Records appear in export order (expiry interleaved with arrival,
    then the final flush).  A caller wanting the table's counters can
    pass its own instance.
    """
    if table is None:
        table = FlowTable()
    records: List[FlowRecord] = []
    for timestamp_us, size, key in iter_flow_keys(trace):
        records.extend(table.observe(timestamp_us, size, key))
    records.extend(table.flush())
    return records
