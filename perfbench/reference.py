"""Compute a workload's reference digests, untimed, in a process of its own.

    python3 perfbench/reference.py --workload batch-grid --pcap hour.pcap \
        --seed 1993 --out reference.json [--oracle]

With ``--oracle`` the outputs come from the program's retained
per-packet paths (``oracle.py``); the digests pinned in
``perfbench/reference/`` for seed 1993 on the full hour were made that
way, and so are the smoke slice's.  Without it, one cross-check pass
computes them: the online workloads in chunks of another size than the
program's default, the grid at ``jobs=1``.  ``run.py`` caches the file.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

from workloads import WORKLOADS, Workspace, digest, run_pass


def compute(workload: str, pcap: str, seed: int, oracle: bool, work_dir: str):
    if oracle:
        from oracle import ORACLES

        return digest(ORACLES[workload](pcap, seed, work_dir))
    ws = Workspace(workload, seed, pcap, work_dir, cross_check=True)
    ws.prepare()
    return digest(run_pass(ws).outputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--pcap", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--oracle", action="store_true")
    args = parser.parse_args(argv)

    work_dir = tempfile.mkdtemp(prefix="perfbench-reference-")
    try:
        digests = compute(
            args.workload, args.pcap, args.seed, args.oracle, work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    partial = "%s.%d.tmp" % (args.out, os.getpid())
    with open(partial, "w") as stream:
        json.dump(digests, stream, indent=1, sort_keys=True)
        stream.write("\n")
    os.replace(partial, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
