"""The repository's benchmark: the calibrated hour, end to end and per layer.

    python3 perfbench/run.py --workload online-flows-warm --seed 1993 \
        --seconds 10 --trace 0

Run it from the root of the repository; it reads the program from
``src/``.  Workloads: ``online-flows-warm``, ``online-adapt-cold`` and
``batch-grid`` (see ``perfbench/README.md``).  With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer ones:
first a table, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Each step runs in a process of its own, started from here:

1. the input pcap for the seed, generated once and cached;
2. the reference digests for the workload and seed, computed once and
   cached (see ``reference.py``; pinned in ``perfbench/reference`` for
   seed 1993 on the full hour);
3. with ``--trace 0``, ``SETUP_PROBES`` fresh processes that only set
   up, so ``setup_s`` is a median;
4. the measured run (``bench.py``).

Generated files go under ``.bench_build/perfbench`` in the repository.
``--smoke`` runs on the first two minutes of the hour and ``--perturb``
flips one keep bit (one grid seed on ``batch-grid``); both exist for the
self-test in ``perfbench/tests``.
"""

import argparse
import glob
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("online-flows-warm", "online-adapt-cold", "batch-grid")
DEFAULT_SEED = 1993
SMOKE_SLICE_S = 120
#: Set-up-only processes per ``--trace 0`` run; with the measured
#: process itself, ``setup_s`` is the median of five.
SETUP_PROBES = 4
#: Input pcaps kept in the cache (about 100 MB each for the hour).
KEEP_INPUTS = 4
#: The whole run must end within this many seconds.
BUDGET_S = 170.0


class BenchError(Exception):
    """A step of the benchmark could not run; no result is printed."""


class Steps:
    """Starts each step's process with the program on its path."""

    def __init__(self, root: str, cache: str) -> None:
        self.root = root
        self.cache = cache
        self.deadline = time.monotonic() + BUDGET_S
        tmp = os.path.join(cache, "tmp")
        os.makedirs(tmp, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [HERE, os.path.join(root, "src")]
        )
        # The engine's scratch directories land inside the checkout.
        self.env["TMPDIR"] = tmp

    def run(self, script: str, *args: str) -> str:
        """Run ``perfbench/<script>``; return its standard output."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before %s" % script)
        command = [sys.executable, os.path.join(HERE, script), *args]
        # A session of its own, so that on a timeout the step's workers
        # are stopped along with it.
        process = subprocess.Popen(
            command,
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            stdout, _ = process.communicate(timeout=remaining)
        except BaseException as error:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                raise BenchError("%s ran out of time" % script) from None
            raise
        if process.returncode != 0:
            raise BenchError("%s exited with %d" % (script, process.returncode))
        return stdout

    def input_pcap(self, seed: int, smoke: bool) -> str:
        """The seed's pcap, generated on first use; older ones evicted."""
        inputs = os.path.join(self.cache, "inputs")
        os.makedirs(inputs, exist_ok=True)
        name = "hour-%d%s.pcap" % (seed, "-smoke" if smoke else "")
        path = os.path.join(inputs, name)
        if os.path.exists(path):
            os.utime(path)
        else:
            args = ["--seed", str(seed), "--out", path]
            if smoke:
                args += ["--slice-s", str(SMOKE_SLICE_S)]
            self.run("generate.py", *args)
        cached = sorted(
            glob.glob(os.path.join(inputs, "*.pcap")), key=os.path.getmtime
        )
        for old in cached[:-KEEP_INPUTS]:
            if old != path:
                os.remove(old)
        return path

    def reference(self, workload: str, seed: int, smoke: bool, pcap: str) -> str:
        """The reference digests' file, computed on first use."""
        name = "%s-%d.json" % (workload, seed)
        if not smoke:
            pinned = os.path.join(HERE, "reference", name)
            if os.path.exists(pinned):
                return pinned
        directory = os.path.join(self.cache, "reference")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, name.replace(".json", "-smoke.json") if smoke else name
        )
        if not os.path.exists(path):
            self.run(
                "reference.py",
                "--workload", workload,
                "--pcap", pcap,
                "--seed", str(seed),
                "--out", path,
                *(["--oracle"] if smoke else []),
            )
        return path

    def bench(self, workload: str, seed: int, pcap: str, *args: str) -> dict:
        work = os.path.join(self.cache, "work", "%d" % os.getpid())
        out = self.run(
            "bench.py",
            "--workload", workload,
            "--seed", str(seed),
            "--pcap", pcap,
            "--work-dir", work,
            "--spawned-at", repr(time.monotonic()),
            *args,
        )
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError("bench.py printed no result")
        return json.loads(lines[-1])


def table(metrics: dict, units: dict) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(
        "%-*s  %14.6g %s" % (width, name, metrics[name], units[name])
        for name in metrics
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    steps = Steps(root, os.path.join(root, ".bench_build", "perfbench"))
    try:
        pcap = steps.input_pcap(args.seed, args.smoke)
        reference = steps.reference(args.workload, args.seed, args.smoke, pcap)
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe = steps.bench(args.workload, args.seed, pcap, "--setup-only")
                setups.append(probe["setup_s"])
        spans = os.path.join(
            steps.cache, "spans", "%s-%d.jsonl" % (args.workload, args.seed)
        )
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        extra = ["--perturb"] if args.perturb else []
        result = steps.bench(
            args.workload,
            args.seed,
            pcap,
            "--reference", reference,
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
            "--spans", spans,
            *extra,
        )
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [metrics["setup_s"]])
    units = result["units"]
    print(table(metrics, units))
    if not args.trace:
        print("window lag samples: %d" % result["lag_samples"])
    print(
        "%d of %d operations failed their output check"
        % (result["failed"], result["attempted"])
    )
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
