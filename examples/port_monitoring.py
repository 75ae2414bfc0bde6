"""Operational port-mix monitoring on a sampled T3 node (Section 8).

A full T3 node — three interface subsystems sampling 1-in-50 in
firmware, forwarding to one characterization CPU — watches ten minutes
of traffic.  From the sampled port-distribution object the operator
estimates each well-known port's traffic share and reports a Wilson
confidence interval, then checks the truth (which the simulation, unlike
the operator, can see) lands inside.

This is the paper's Section 8 extension ("characterizations of network
traffic that are based on proportions, e.g., TCP/UDP port
distribution") wired to the Section 2 collection machinery.

Run:  python examples/port_monitoring.py
"""

import numpy as np

from repro.analysis.confidence import wilson_interval
from repro.netmon.objects import PortDistribution
from repro.netmon.t3node import T3Node
from repro.workload.generator import nsfnet_hour_trace

PORTS = {20: "ftp-data", 23: "telnet", 25: "smtp", 53: "dns", 119: "nntp"}


def main() -> None:
    trace = nsfnet_hour_trace(seed=99, duration_s=600)

    # Split the campus stream across the node's three subsystems, as
    # parallel interface cards would see it.
    thirds = [
        trace.select(np.arange(offset, len(trace), 3)) for offset in range(3)
    ]
    node = T3Node("enss-t3", granularity=50, cpu_capacity_pps=2000)
    node.process_traces(
        {"t3": thirds[0], "ethernet": thirds[1], "fddi": thirds[2]}
    )

    print(
        "node %s: %d packets forwarded, %d sampled for characterization "
        "(1-in-%d per subsystem)"
        % (
            node.name,
            node.snmp_total_packets(),
            node.collector.examined_packets,
            node.granularity,
        )
    )

    sampled_ports = next(
        obj for obj in node.collector.objects if isinstance(obj, PortDistribution)
    )
    sampled_counts = sampled_ports.snapshot()["packets"]
    sampled_total = sum(sampled_counts.values())

    truth_ports = PortDistribution()
    truth_ports.observe(trace)
    truth = truth_ports.proportions()

    print(
        "\n%-10s %10s %22s %10s %8s"
        % ("port", "estimate", "95% Wilson interval", "truth", "covered")
    )
    for port, label in sorted(PORTS.items()):
        observed = sampled_counts.get(port, 0)
        ci = wilson_interval(observed, sampled_total)
        true_share = truth.get(port, 0.0)
        print(
            "%-10s %9.2f%% [%7.2f%%, %7.2f%%] %9.2f%% %8s"
            % (
                "%d/%s" % (port, label),
                100 * ci.estimate,
                100 * ci.low,
                100 * ci.high,
                100 * true_share,
                "yes" if ci.contains(true_share) else "NO",
            )
        )

    print(
        "\nthe sampled object never saw 98% of the packets, yet every "
        "well-known port's share is pinned to a fraction of a percent "
        "— the Section 8 proportion extension in operation."
    )


if __name__ == "__main__":
    main()
