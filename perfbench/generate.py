"""Write the benchmark's input pcap for one seed.

    python3 perfbench/generate.py --seed 1993 --out hour.pcap [--slice-s 120]

Runs in its own process so that generating the hour costs neither the
measured process's set-up time nor its peak memory.  The trace is
``nsfnet_hour_trace(seed, 3600)``; ``--slice-s`` keeps only its first
seconds (the self-test's smoke mode).  The file is written beside
``--out`` and renamed into place, so a reader never sees half of it.
"""

import argparse
import os
import sys

import numpy as np

from repro.trace.pcap import write_pcap
from repro.workload.generator import nsfnet_hour_trace

HOUR_S = 3600


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--slice-s", type=int, default=None)
    args = parser.parse_args(argv)

    trace = nsfnet_hour_trace(args.seed, HOUR_S)
    if args.slice_s is not None:
        start = int(trace.timestamps_us[0]) if len(trace) else 0
        stop = np.searchsorted(
            trace.timestamps_us, start + args.slice_s * 1_000_000
        )
        trace = trace.slice_packets(0, int(stop))
    partial = "%s.%d.tmp" % (args.out, os.getpid())
    write_pcap(trace, partial)
    os.replace(partial, args.out)
    print(len(trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
