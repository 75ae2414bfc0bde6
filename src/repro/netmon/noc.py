"""The NOC's central collection agent.

"Every fifteen minutes, the central agent at the NOC running the
collection software queries each of the backbone nodes, which report
and then reset their object counters" (Section 2).
:class:`CollectionAgent` drives a set of nodes through a trace in
poll-cycle chunks and accumulates the per-cycle reports.
"""

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.netmon.node import BackboneNode
from repro.obs.instrument import NULL_OBS
from repro.trace.filters import tile_boundaries
from repro.trace.trace import Trace

#: The operational NOC polling period.
POLL_PERIOD_S = 15 * 60


@dataclass(frozen=True)
class PollRecord:
    """One node's report for one poll cycle."""

    cycle: int
    node: str
    snapshot: Dict

    @property
    def snmp_packets(self) -> int:
        """Forwarding-path packet count for the cycle."""
        return self.snapshot["interface"]["packets"]


class CollectionAgent:
    """Polls nodes on a fixed cycle and stores their reports."""

    def __init__(
        self,
        nodes: List[BackboneNode],
        poll_period_s: int = POLL_PERIOD_S,
        obs: Any = NULL_OBS,
    ) -> None:
        if not nodes:
            raise ValueError("the agent needs at least one node")
        if poll_period_s < 1:
            raise ValueError("poll period must be at least a second")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique: %r" % (names,))
        self.nodes = list(nodes)
        self.poll_period_s = poll_period_s
        self.obs = obs
        self.records: List[PollRecord] = []

    def run(self, traffic: Dict[str, Trace]) -> List[PollRecord]:
        """Drive each node through its traffic, polling on the cycle.

        ``traffic`` maps node name to the trace entering that node.
        All traces share a time origin; cycles are aligned wall-clock
        windows of ``poll_period_s``.
        """
        unknown = set(traffic) - {n.name for n in self.nodes}
        if unknown:
            raise ValueError("traffic for unknown nodes: %s" % sorted(unknown))
        period_us = self.poll_period_s * 1_000_000
        bounds = dict(
            zip(traffic, tile_boundaries(list(traffic.values()), 0, period_us))
        )
        n_cycles = max((len(b) - 1 for b in bounds.values()), default=0)
        for cycle in range(n_cycles):
            for node in self.nodes:
                b = bounds.get(node.name)
                if b is not None:
                    node.process_trace(
                        traffic[node.name].slice_packets(
                            int(b[cycle]), int(b[cycle + 1])
                        )
                    )
                snapshot = node.snapshot()
                self.records.append(
                    PollRecord(cycle=cycle, node=node.name, snapshot=snapshot)
                )
                self._record_poll_telemetry(cycle, node.name, snapshot)
                node.reset()
        return self.records

    def _record_poll_telemetry(
        self, cycle: int, node: str, snapshot: Dict
    ) -> None:
        """Per-poll counters and a structured event through ``obs``.

        Free when observability is off (``obs`` defaults to the shared
        null instrumentation); with it on, every poll cycle becomes a
        ``poll`` event carrying the node's forwarding-path count and
        the collector's examined/dropped health counters — the live
        drop-rate feedback Section 2 says operators were missing.
        """
        collector = snapshot.get("collector", {})
        examined = int(collector.get("examined_packets", 0))
        dropped = int(collector.get("dropped_packets", 0))
        packets = int(snapshot.get("interface", {}).get("packets", 0))
        obs = self.obs
        obs.counter("netmon_polls").inc()
        obs.counter("netmon_forwarded_packets").inc(packets)
        obs.counter("netmon_examined_packets").inc(examined)
        obs.counter("netmon_dropped_packets").inc(dropped)
        offered = examined + dropped
        if offered:
            obs.gauge("netmon_drop_rate").set(dropped / offered)
        obs.event(
            "poll",
            cycle=cycle,
            node=node,
            packets=packets,
            examined=examined,
            dropped=dropped,
        )

    def node_series(self, node: str) -> List[PollRecord]:
        """All poll records of one node, in cycle order."""
        return [r for r in self.records if r.node == node]
