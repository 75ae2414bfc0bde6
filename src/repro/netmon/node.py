"""A backbone node: interface counters plus a categorization collector.

:class:`BackboneNode` feeds a trace through the node one second at a
time: every packet increments the SNMP interface counters (forwarding
path, lossless), and the same second's batch is offered to the
attached :class:`~repro.netmon.collector.Collector`, which may lose
packets to its capacity limit.  This is the machinery behind the
Figure 1 discrepancy experiment.
"""

from repro.netmon.collector import Collector
from repro.netmon.snmp import InterfaceCounters
from repro.trace.filters import tile_boundaries
from repro.trace.trace import Trace

_US_PER_S = 1_000_000


class BackboneNode:
    """One NSS/E-NSS node with an attached statistics collector."""

    def __init__(self, name: str, collector: Collector) -> None:
        self.name = name
        self.collector = collector
        self.interface = InterfaceCounters()

    def process_trace(self, trace: Trace) -> None:
        """Forward a trace through the node, second by second.

        Seconds are anchored at the trace's first packet.
        """
        if not len(trace):
            return
        (bounds,) = tile_boundaries(
            [trace], int(trace.timestamps_us[0]), _US_PER_S
        )
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            self.process_second(trace.slice_packets(int(lo), int(hi)))

    def process_second(self, batch: Trace) -> None:
        """Forward one second's packets: SNMP always, collector maybe."""
        self.interface.forward(batch)
        self.collector.process_second(batch)

    def snapshot(self) -> dict:
        """Interface counters and collector state."""
        return {
            "node": self.name,
            "interface": self.interface.snapshot(),
            "collector": self.collector.snapshot(),
        }

    def reset(self) -> None:
        """Poll-cycle reset of interface counters and collector."""
        self.interface.reset()
        self.collector.reset()
