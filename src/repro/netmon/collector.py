"""The capacity-limited statistics collector of both NSFNET backbones.

On the T1 backbone, one RT/PC processor per node examined the header
of every packet crossing the node and fed the NNStat statistical
objects.  "By mid-1991 ... the processor collecting the NNStat data
was unable to keep up with the total nodal traffic flow" (Section 2):
under load, categorization silently loses packets while forwarding
(and SNMP counting) continues.  The September 1991 fix captured only
every fiftieth packet header for categorization, cutting the
examination load by the same factor.

On the T3 backbone, packet forwarding happens in intelligent interface
subsystems; "accommodating the statistics collection required placing
the software which selects IP packets for traffic characterization
into the firmware of the subsystems themselves.  Each subsystem
forwards its selected packets, currently every fiftieth, to the main
CPU, where the ARTS software package performs the traffic
characterization" (Section 2).

Both are one mechanism, :class:`Collector`: a firmware 1-in-k select
at no examination cost, then a per-second examination budget (the
tail of an overloaded second is never examined), then the statistical
objects, with totals scaled back up by k.
"""

from typing import Dict, List, Optional

import numpy as np

from repro.core.sampling.streaming import StreamingSystematic
from repro.netmon.objects import StatisticalObject, t1_object_set
from repro.trace.trace import Trace

#: The operational setting on the T3 backbone: every fiftieth packet.
T3_SAMPLING_GRANULARITY = 50


class Subsystem(StreamingSystematic):
    """One interface card's firmware packet selector: 1-in-N systematic.

    The phase is carried across batches, and :meth:`rekey` changes
    N in place with phase continuity.
    """

    def __init__(self, granularity: int) -> None:
        super().__init__(granularity)
        self.forwarded_packets = 0

    def select(self, batch: Trace) -> Trace:
        """Every granularity-th packet, phase carried across batches."""
        selected = batch.select(
            np.flatnonzero(self.keep_mask(batch.timestamps_us))
        )
        self.forwarded_packets += len(selected)
        return selected


class Collector:
    """A capacity-limited categorization processor.

    Parameters
    ----------
    capacity_pps:
        Selected packets the processor can examine per second.
    granularity:
        1 examines every packet (NNStat before September 1991); k > 1
        selects every k-th packet in firmware first, reducing offered
        load by k (NNStat after the fix, and ARTS).
    objects:
        Statistical objects to maintain; defaults to the full T1 set.
    """

    def __init__(
        self,
        capacity_pps: int,
        granularity: int = 1,
        objects: Optional[List[StatisticalObject]] = None,
    ) -> None:
        if capacity_pps < 1:
            raise ValueError("capacity must be at least 1 packet/s")
        if granularity < 1:
            raise ValueError("sampling granularity must be >= 1")
        self.capacity_pps = capacity_pps
        self.granularity = granularity
        self.objects = objects if objects is not None else t1_object_set()
        self.examined_packets = 0
        self.dropped_packets = 0
        self._firmware = Subsystem(granularity)

    def process_second(self, batch: Trace) -> Trace:
        """Feed one second of traffic; return the packets examined.

        Selection happens first, in firmware, at no examination cost;
        the examination budget then applies to the selected packets.
        Within an overloaded second the excess packets are the tail —
        the processor falls behind and never catches up before the
        next second's arrivals.
        """
        selected = self._firmware.select(batch)
        examined = selected
        if len(selected) > self.capacity_pps:
            examined = selected.slice_packets(0, self.capacity_pps)
            self.dropped_packets += len(selected) - self.capacity_pps
        self.examined_packets += len(examined)
        for obj in self.objects:
            obj.observe(examined)
        return examined

    def snapshot(self) -> Dict:
        """All object snapshots plus collector health counters."""
        return {
            "examined_packets": self.examined_packets,
            "dropped_packets": self.dropped_packets,
            "granularity": self.granularity,
            "objects": {obj.name: obj.snapshot() for obj in self.objects},
        }

    def reset(self) -> None:
        """Poll-cycle reset: objects and health counters."""
        self.examined_packets = 0
        self.dropped_packets = 0
        for obj in self.objects:
            obj.reset()

    def estimated_total_packets(self) -> int:
        """Scale examined counts back up by the sampling granularity."""
        return self.examined_packets * self.granularity
