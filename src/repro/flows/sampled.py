"""Sampled-flow populations: the paper's samplers at the flow level.

Packet sampling happens *before* flow accounting in a real monitor:
the selector keeps 1-in-N packets, and only kept packets reach the
flow cache.  A parent flow of j packets therefore shows up as a
sampled flow of k <= j packets — or not at all — and the sampled flow
population is a systematically distorted image of the parent's (small
flows vanish, every size shrinks ~N-fold).  This module produces both
populations from one trace so :mod:`repro.flows.inversion` can study
the distortion and undo it.

Two entry points mirror the repo's batch/streaming split:

* :func:`flow_study` drives any *batch* sampler from
  :mod:`repro.core.sampling` — the sample is drawn first (exactly as
  the evaluation harness draws it, same RNG discipline), then parent
  and sampled traces are aggregated through separate
  :class:`~repro.flows.table.FlowTable` instances by the chunked
  kernel (:func:`repro.fastpath.flows.fast_aggregate_trace`, pinned to
  the per-packet :func:`~repro.flows.table.aggregate_trace`);
* :class:`StreamFlowAccountant` rides beside a *streaming* selector:
  it sees each offered packet with the keep/skip decision already
  made, exactly like the live
  :class:`~repro.obs.live.QualityMonitor`.  It is passive by the same
  contract — it never touches an RNG and never influences a decision,
  so an accounted run is bit-identical to a bare one.

Both produce columnar populations: a :class:`FlowSet` is one
:class:`~repro.flows.table.FlowColumns` block, the accountant keeps one
block per export per side, and every summary here — sizes, size
counts, detected fraction — reads arrays.  :class:`FlowRecord` rows are
built only when a caller reads :attr:`FlowSet.records`.
"""

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.metrics.bins import BinSpec
from repro.core.sampling.base import Sampler, SamplingResult
from repro.flows.table import (
    CODE_EVICTED,
    REASON_EVICTED,
    FlowColumns,
    FlowKey,
    FlowRecord,
    FlowTable,
    group_flow_keys,
)
from repro.obs.instrument import Counter, Gauge
from repro.obs.live.store import LiveMetricsStore
from repro.trace.trace import Trace

#: One side of the accountant's hot path: the table, its export blocks,
#: the rows the per-packet path exported since the last block, and the
#: pre-resolved metrics (occupancy, peak, exported, evicted).
_Side = Tuple[
    FlowTable,
    List[FlowColumns],
    List[FlowRecord],
    Gauge,
    Gauge,
    Counter,
    Counter,
]

#: Flow sizes (packets per flow) are compared over geometric bins —
#: flow-size distributions are heavy-tailed, so equal-width bins would
#: put almost everything in the first one (cf. Clegg et al.'s binned
#: inversion, which works in log-scale bins for the same reason).
FLOW_SIZE_BINS = BinSpec(
    name="flow-size",
    edges=(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    unit="packets",
)


class FlowSet:
    """An exported flow population with the summaries analysis needs.

    The population is one :class:`~repro.flows.table.FlowColumns`
    block, and every summary reads its arrays.  ``records`` is a lazy
    row view, built in one pass on first read and cached; no flow-level
    consumer needs it.  Built from ``records``, the set keeps them and
    derives the block.  Two sets are equal when their blocks are, so a
    kernel-built population equals the per-packet one.
    """

    __slots__ = ("columns", "_records")

    def __init__(
        self,
        records: Iterable[FlowRecord] = (),
        columns: Optional[FlowColumns] = None,
    ) -> None:
        self._records: Optional[Tuple[FlowRecord, ...]] = None
        if columns is None:
            self._records = tuple(records)
            columns = FlowColumns.from_records(self._records)
        self.columns = columns

    @property
    def records(self) -> Tuple[FlowRecord, ...]:
        """The population as :class:`FlowRecord` rows, in export order."""
        if self._records is None:
            self._records = tuple(self.columns.to_records())
        return self._records

    def __len__(self) -> int:
        return len(self.columns)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowSet):
            return NotImplemented
        return self.columns == other.columns

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "FlowSet(%d flows)" % len(self)

    def sizes(self) -> np.ndarray:
        """Packets per flow, one entry per record."""
        return self.columns.packets.astype(np.int64)

    def byte_sizes(self) -> np.ndarray:
        """Bytes per flow, one entry per record."""
        return self.columns.bytes.astype(np.int64)

    def keys(self) -> frozenset:
        """Distinct 5-tuples present in the population."""
        representatives, _, _ = group_flow_keys(self.columns.keys)
        return frozenset(
            map(tuple, self.columns.keys[representatives].tolist())
        )

    @property
    def total_packets(self) -> int:
        return int(self.columns.packets.sum())

    @property
    def total_bytes(self) -> int:
        return int(self.columns.bytes.sum())

    def mean_size(self) -> float:
        """Mean packets per flow (0.0 for an empty population)."""
        if not len(self):
            return 0.0
        return self.total_packets / len(self)

    def size_counts(self, bins: BinSpec = FLOW_SIZE_BINS) -> np.ndarray:
        """Flow counts over the flow-size bins."""
        return bins.counts(self.columns.packets.astype(np.float64))


def detected_fraction(parent: FlowSet, sampled: FlowSet) -> float:
    """Share of ``parent``'s 5-tuples that occur in ``sampled``.

    Both key blocks are grouped together once; a parent group is
    detected when any sampled row falls in it.
    """
    parent_rows = len(parent)
    if not parent_rows:
        return 0.0
    _, order, group_sorted = group_flow_keys(
        np.concatenate((parent.columns.keys, sampled.columns.keys))
    )
    groups = np.empty(order.size, dtype=np.int64)
    groups[order] = group_sorted
    parent_groups = np.unique(groups[:parent_rows])
    detected = np.isin(parent_groups, groups[parent_rows:])
    return int(np.count_nonzero(detected)) / parent_groups.size


def parent_flows(trace: Trace, table: Optional[FlowTable] = None) -> FlowSet:
    """The ground-truth flow population of a trace."""
    # Imported here: repro.fastpath.flows imports this module.
    from repro.fastpath.flows import fast_aggregate_trace

    return FlowSet(columns=fast_aggregate_trace(trace, table=table))


def sampled_flows(
    trace: Trace,
    result: SamplingResult,
    table: Optional[FlowTable] = None,
) -> FlowSet:
    """The flow population a monitor sees through a drawn sample.

    Only the packets the sampler kept reach the flow cache; timestamps
    keep their parent values, so flow timeouts behave exactly as they
    would in a monitor receiving the thinned stream.
    """
    return parent_flows(result.apply(trace), table=table)


@dataclass(frozen=True)
class FlowStudy:
    """Parent and sampled flow populations of one sampling pass."""

    method: str
    granularity: float
    fraction: float
    parent: FlowSet
    sampled: FlowSet

    @property
    def detected_fraction(self) -> float:
        """Share of parent 5-tuples with at least one sampled packet."""
        return detected_fraction(self.parent, self.sampled)

    def summary(self) -> Dict[str, float]:
        """The flat numeric summary used by telemetry and the CLI."""
        return {
            "parent_flows": float(len(self.parent)),
            "sampled_flows": float(len(self.sampled)),
            "detected_fraction": round(self.detected_fraction, 6),
            "parent_mean_packets": round(self.parent.mean_size(), 6),
            "sampled_mean_packets": round(self.sampled.mean_size(), 6),
        }


def flow_study(
    trace: Trace,
    sampler: Sampler,
    rng: Optional[np.random.Generator] = None,
    table_factory: Callable[[], FlowTable] = FlowTable,
) -> FlowStudy:
    """Draw one sample and aggregate both flow populations.

    The sample is drawn *first*, through the sampler's normal
    :meth:`~repro.core.sampling.base.Sampler.sample` path, so the
    selected indices are bit-identical to what the evaluation harness
    would draw from the same RNG — flow accounting is strictly
    downstream of selection and cannot perturb the draw.
    """
    result = sampler.sample(trace, rng=rng)
    return study_from_result(trace, result, table_factory=table_factory)


def study_from_result(
    trace: Trace,
    result: SamplingResult,
    table_factory: Callable[[], FlowTable] = FlowTable,
) -> FlowStudy:
    """Aggregate both populations for an already-drawn sample.

    ``table_factory`` makes each side's empty flow cache, so both
    populations are accounted under the same timeouts and capacity.
    """
    granularity = float(result.parameters.get("granularity", 0.0))
    if granularity <= 0.0 and result.fraction > 0.0:
        granularity = 1.0 / result.fraction
    return FlowStudy(
        method=result.method,
        granularity=granularity,
        fraction=result.fraction,
        parent=parent_flows(trace, table=table_factory()),
        sampled=sampled_flows(trace, result, table=table_factory()),
    )


def shard_flow_summary(
    window: Trace,
    indices: np.ndarray,
    parent: Optional[FlowSet] = None,
) -> Dict[str, float]:
    """Per-shard flow accounting for the engine's result tuple.

    ``parent`` lets the per-process shard context reuse one parent
    aggregation for every shard of an interval; the summary is a pure
    function of (window, indices) either way, so cached and uncached
    shards report identical numbers.
    """
    if parent is None:
        parent = parent_flows(window)
    sampled = parent_flows(window.select(indices))
    return {
        "parent_flows": float(len(parent)),
        "sampled_flows": float(len(sampled)),
        "detected_fraction": round(detected_fraction(parent, sampled), 6),
        "parent_mean_packets": round(parent.mean_size(), 6),
        "sampled_mean_packets": round(sampled.mean_size(), 6),
    }


class StreamFlowAccountant:
    """Passive per-packet flow accounting beside a streaming selector.

    Maintains two flow tables — every offered packet feeds the parent
    table, kept packets additionally feed the sampled table — keeps
    each side's exports as a list of column blocks, and mirrors the
    tables' occupancy/eviction/export counters into a
    :class:`~repro.obs.live.LiveMetricsStore` so the live exposition
    path (textfile exporter, ``/metrics``) can serve them.

    Like the quality monitor, the accountant is passive: it never
    touches an RNG and never influences the keep/skip decision, so an
    accounted run's selection stream is bit-identical to a bare one.
    """

    enabled = True

    def __init__(
        self,
        idle_timeout_us: int = 15_000_000,
        active_timeout_us: int = 1_800_000_000,
        max_flows: int = 65_536,
        store: Optional[LiveMetricsStore] = None,
    ) -> None:
        self.parent_table = FlowTable(
            idle_timeout_us=idle_timeout_us,
            active_timeout_us=active_timeout_us,
            max_flows=max_flows,
        )
        self.sampled_table = FlowTable(
            idle_timeout_us=idle_timeout_us,
            active_timeout_us=active_timeout_us,
            max_flows=max_flows,
        )
        self.store = store if store is not None else LiveMetricsStore()
        # Hot-path metrics resolved once; the per-packet path must not
        # pay name lookups or rebuild stats dicts (cf. the engine's
        # _Execution, which resolves its counters off the shard loop).
        self._sides: List[_Side] = []
        for side, table in (
            ("parent", self.parent_table),
            ("sampled", self.sampled_table),
        ):
            self._sides.append(
                (
                    table,
                    [],
                    [],
                    self.store.gauge("flow_cache_occupancy_%s" % side),
                    self.store.gauge("flow_cache_peak_occupancy_%s" % side),
                    self.store.counter("flow_cache_exported_%s" % side),
                    self.store.counter("flow_cache_evictions_%s" % side),
                )
            )

    def observe(
        self, timestamp_us: int, size: int, key: FlowKey, kept: bool
    ) -> None:
        """Account one offered packet and its keep/skip decision."""
        parent, sampled = self._sides
        self._publish_rows(parent, parent[0].observe(timestamp_us, size, key))
        if kept:
            self._publish_rows(
                sampled, sampled[0].observe(timestamp_us, size, key)
            )

    @staticmethod
    def _publish_rows(side: _Side, new_records: List[FlowRecord]) -> None:
        """:meth:`_publish` for the per-packet path, which keeps its
        exports as rows until a block follows or a population is read."""
        table, _blocks, rows, occupancy, peak, exported, evicted = side
        if new_records:
            rows.extend(new_records)
            exported.inc(len(new_records))
            evictions = sum(
                record.reason == REASON_EVICTED for record in new_records
            )
            if evictions:
                evicted.inc(evictions)
        occupancy.set(float(table.occupancy))
        peak.set(float(table.peak_occupancy))

    @staticmethod
    def _publish(side: _Side, block: FlowColumns) -> None:
        """Append one side's new export block and mirror its table metrics."""
        table, _blocks, _rows, occupancy, peak, exported, evicted = side
        if len(block):
            _seal(side).append(block)
            exported.inc(block.reasons.size)
            evictions = int(np.count_nonzero(block.reasons == CODE_EVICTED))
            if evictions:
                evicted.inc(evictions)
        occupancy.set(float(table.occupancy))
        peak.set(float(table.peak_occupancy))

    def flush(self) -> None:
        """Close out both tables at end of stream."""
        for side in self._sides:
            self._publish(side, side[0].flush_columns())

    def parent(self) -> FlowSet:
        """Parent flows exported so far, as one column block."""
        return FlowSet(columns=FlowColumns.concat(_seal(self._sides[0])))

    def sampled(self) -> FlowSet:
        """Sampled flows exported so far, as one column block."""
        return FlowSet(columns=FlowColumns.concat(_seal(self._sides[1])))


def _seal(side: _Side) -> List[FlowColumns]:
    """A side's export blocks, its pending per-packet rows moved into
    one block first so the stream stays in export order."""
    _table, blocks, rows = side[:3]
    if rows:
        blocks.append(FlowColumns.from_records(rows))
        rows.clear()
    return blocks


class NullFlowAccountant:
    """The disabled twin: every call no-ops (cf. ``NULL_MONITOR``)."""

    enabled = False

    def observe(
        self, timestamp_us: int, size: int, key: FlowKey, kept: bool
    ) -> None:
        return None

    def flush(self) -> None:
        return None


#: The shared disabled instance.
NULL_ACCOUNTANT = NullFlowAccountant()
