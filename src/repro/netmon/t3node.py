"""A full T3 node: parallel interface subsystems feeding one main CPU.

"The T3 network design offloaded the packet forwarding process onto
intelligent subsystems ... Each subsystem forwards its selected
packets, currently every fiftieth, to the main CPU, where the ARTS
software package performs the traffic characterization based on these
sampled packets.  Note that multiple subsystems, including those
connected to T3, Ethernet, and FDDI external interfaces, forward to
the RS/6000 processor in parallel."  (Section 2)

:class:`T3Node` models exactly that: per-interface SNMP counters and
firmware 1-in-N selectors, whose selected streams are time-merged and
offered to a single capacity-limited characterization CPU: a
:class:`~repro.netmon.collector.Collector` at granularity 1, since the
subsystems have already selected.
"""

from typing import Any, Dict, List, Optional

from repro.netmon.collector import Collector, Subsystem, T3_SAMPLING_GRANULARITY
from repro.netmon.objects import StatisticalObject, t3_object_set
from repro.netmon.snmp import InterfaceCounters
from repro.obs.instrument import NULL_OBS
from repro.trace.filters import tile_boundaries
from repro.trace.trace import Trace

_US_PER_S = 1_000_000


class T3Interface:
    """One external interface: forwarding counters + firmware selector."""

    def __init__(self, name: str, granularity: int) -> None:
        self.name = name
        self.counters = InterfaceCounters()
        self.subsystem = Subsystem(granularity)

    def forward_second(self, batch: Trace) -> Trace:
        """Forward one second of traffic; return the selected packets."""
        self.counters.forward(batch)
        return self.subsystem.select(batch)


class T3Node:
    """A T3 backbone node with multiple parallel subsystems.

    Parameters
    ----------
    name:
        Node identifier.
    interfaces:
        External interface names (e.g. ``("t3", "ethernet", "fddi")``).
    granularity:
        Firmware selection granularity applied in every subsystem.
    cpu_capacity_pps:
        Selected packets the main CPU can characterize per second,
        across all subsystems together.
    objects:
        Statistical objects; defaults to the T3 subset of Table 1.
    obs:
        Observability sink (an :class:`repro.obs.Instrumentation` or
        the shared null instance).  Records offered/characterized/
        dropped counters and the high-water per-second load on the
        characterization CPU — the budget telemetry the live monitor
        exposes.
    """

    def __init__(
        self,
        name: str,
        interfaces: tuple = ("t3", "ethernet", "fddi"),
        granularity: int = T3_SAMPLING_GRANULARITY,
        cpu_capacity_pps: int = 2000,
        objects: Optional[List[StatisticalObject]] = None,
        obs: Any = NULL_OBS,
    ) -> None:
        if not interfaces:
            raise ValueError("a node needs at least one interface")
        if len(set(interfaces)) != len(interfaces):
            raise ValueError("interface names must be unique")
        self.name = name
        self.granularity = granularity
        self.interfaces: Dict[str, T3Interface] = {
            iface: T3Interface(iface, granularity) for iface in interfaces
        }
        self.collector = Collector(
            cpu_capacity_pps,
            objects=objects if objects is not None else t3_object_set(),
        )
        self.obs = obs
        self.ht_estimated_packets = 0.0

    def process_second(self, traffic: Dict[str, Trace]) -> None:
        """One second of traffic per interface, in parallel.

        Each subsystem selects from its own stream; the selected
        packets are merged in time order and offered to the CPU, whose
        per-second budget applies to the merged stream.
        """
        unknown = set(traffic) - set(self.interfaces)
        if unknown:
            raise ValueError("traffic for unknown interfaces: %s" % sorted(unknown))
        selected = [
            self.interfaces[iface].forward_second(batch)
            for iface, batch in traffic.items()
        ]
        merged = Trace.merge(selected)
        characterized = len(self.collector.process_second(merged))
        dropped = len(merged) - characterized
        if dropped:
            self.obs.counter("t3_cpu_dropped_packets").inc(dropped)
        self.obs.counter("t3_cpu_offered_packets").inc(len(merged))
        self.obs.counter("t3_characterized_packets").inc(characterized)
        self.obs.gauge("t3_cpu_offered_pps_max").high(len(merged))
        self.obs.gauge("t3_sampling_granularity").set(self.granularity)
        # Horvitz-Thompson: each second's characterized packets carry
        # the inverse of the selection probability in force *now*, so
        # the total stays unbiased when the granularity is re-keyed
        # mid-run (repro.adaptive.T3BudgetDriver).
        self.ht_estimated_packets += characterized * self.granularity

    def process_traces(self, traffic: Dict[str, Trace]) -> None:
        """Run whole traces through the node, seconds anchored at 0."""
        if not traffic:
            return
        bounds = tile_boundaries(list(traffic.values()), 0, _US_PER_S)
        for s in range(len(bounds[0]) - 1):
            self.process_second(
                {
                    iface: trace.slice_packets(int(b[s]), int(b[s + 1]))
                    for (iface, trace), b in zip(traffic.items(), bounds)
                }
            )

    def set_granularity(self, granularity: int) -> None:
        """Re-key every subsystem's firmware selector to 1-in-k.

        Applied between seconds by the adaptive budget driver; each
        subsystem re-keys as the streaming systematic selector does at
        quality-window boundaries, carrying its phase modulo the new k.
        """
        for iface in self.interfaces.values():
            iface.subsystem.rekey(granularity)
        self.granularity = granularity

    def snmp_total_packets(self) -> int:
        """Forwarding-path packet total across all interfaces."""
        return sum(i.counters.packets for i in self.interfaces.values())

    def estimated_total_packets(self) -> int:
        """Characterized count scaled back up by the granularity.

        Exact only while the granularity never changed; after adaptive
        re-keying use :meth:`horvitz_thompson_total`.
        """
        return self.collector.examined_packets * self.granularity

    def horvitz_thompson_total(self) -> float:
        """Unbiased packet-total estimate across granularity changes."""
        return self.ht_estimated_packets

    def snapshot(self) -> Dict:
        """Per-interface counters and the CPU collector's snapshot."""
        return {
            "node": self.name,
            "interfaces": {
                name: iface.counters.snapshot()
                for name, iface in self.interfaces.items()
            },
            "collector": self.collector.snapshot(),
        }

    def reset(self) -> None:
        """Poll-cycle reset of counters, collector, and estimate."""
        for iface in self.interfaces.values():
            iface.counters.reset()
        self.collector.reset()
        self.ht_estimated_packets = 0.0
