"""Statistics-collection substrate: the NSFNET environment of Section 2.

The paper motivates sampling with the operational history of NSFNET
statistics collection: SNMP interface counters incremented in the
packet-forwarding path (reliable), versus the NNStat categorization
processor that could not keep up with nodal traffic (Figure 1's
growing discrepancy), versus the T3 ARTS design that samples every
fiftieth packet in interface firmware precisely to survive load.

This subpackage is a discrete-event-style simulation of that
environment, driven by the same traces the sampling study uses:

* :mod:`repro.netmon.objects` — the statistical objects of Table 1;
* :mod:`repro.netmon.snmp` — forwarding-path interface counters;
* :mod:`repro.netmon.collector` — the one capacity-limited collector
  of both backbones: optional in-firmware 1-in-N selection, a finite
  per-second examination budget that drops under overload, and
  scale-up estimation (NNStat on T1, ARTS on T3);
* :mod:`repro.netmon.node` — a backbone node wiring counters and a
  collector to an interface;
* :mod:`repro.netmon.t3node` — a T3 node whose parallel interface
  subsystems feed one collector on the main CPU;
* :mod:`repro.netmon.noc` — the central agent polling nodes every
  fifteen minutes and accumulating report series.
"""

from repro.netmon.objects import (
    ArrivalRateHistogram,
    PacketLengthHistogram,
    PortDistribution,
    ProtocolDistribution,
    SizeQuantileObject,
    SourceDestMatrix,
    StatisticalObject,
    VolumeCounter,
    t1_object_set,
    t3_object_set,
)
from repro.netmon.snmp import InterfaceCounters
from repro.netmon.collector import Collector
from repro.netmon.node import BackboneNode
from repro.netmon.t3node import T3Interface, T3Node
from repro.netmon.noc import CollectionAgent, PollRecord
from repro.netmon.estimation import aligned_counts, object_phi, scale_up_counts
from repro.netmon.heavyhitters import MisraGries, TopNMatrix
from repro.netmon.figure1 import CollectionMonth, simulate_collection_history

__all__ = [
    "ArrivalRateHistogram",
    "PacketLengthHistogram",
    "PortDistribution",
    "ProtocolDistribution",
    "SizeQuantileObject",
    "SourceDestMatrix",
    "StatisticalObject",
    "VolumeCounter",
    "t1_object_set",
    "t3_object_set",
    "InterfaceCounters",
    "Collector",
    "BackboneNode",
    "T3Interface",
    "T3Node",
    "CollectionAgent",
    "PollRecord",
    "aligned_counts",
    "object_phi",
    "scale_up_counts",
    "MisraGries",
    "TopNMatrix",
    "CollectionMonth",
    "simulate_collection_history",
]
