"""Benchmark of the WiLIS reproduction: three workloads, one command.

::

    python3 perfbench/run.py --workload fig6_sweep --seed 1 \
        --seconds 15 --trace 0

Run from the root of a checkout.  Workloads (see ``NOTES.md``):

* ``fig6_sweep``    Figure-6 BCJR curves through ``Experiment.run``;
* ``service_mixed`` the HTTP daemon under a warm/cold request mix;
* ``cosim_fig2``    the Figure-2 co-simulation at all eight rates.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` replays the
work list layer by layer and prints the per-layer metrics.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Set-up time is the median of
``SETUP_SAMPLES`` fresh processes, each timed from its start until its
first timed item is ready; the last of them goes on to measure.

``--record FILE`` additionally stores the run's item digests and exact
counts in ``FILE`` (the format of ``perfbench/expected.json``), when
every check passed.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fig6_sweep", "service_mixed", "cosim_fig2")
SETUP_SAMPLES = 3
#: Every child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0


def load_average():
    with open("/proc/loadavg") as handle:
        return float(handle.read().split()[0])


def cpu_ticks():
    """``(steal, total)`` jiffies of all CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def run_child(args, env, deadline, setup_only):
    """Start one child; returns (setup seconds, result or None).

    The child runs in its own process group, so a child that overruns
    the deadline is killed together with any daemon it started.
    """
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    if args.record:
        command += ["--record", os.path.abspath(args.record)]
    started = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=env, start_new_session=True)
    overran = threading.Event()

    def kill_group():
        overran.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(0.0, deadline - started), kill_group)
    watchdog.start()
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if line == "READY":
                setup_s = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, flush=True)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            kill_group()
            proc.wait()
    if overran.is_set():
        raise TimeoutError("benchmark child ran past its deadline")
    if proc.returncode != 0 or setup_s is None:
        raise RuntimeError("benchmark child exited with code %d"
                           % proc.returncode)
    return setup_s, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, metavar="FILE")
    args = parser.parse_args()

    checkout = os.getcwd()
    source = os.path.join(checkout, "src", "repro")
    if not os.path.isdir(source):
        print("perfbench: no src/repro under %s; run from the root of a "
              "checkout" % checkout, file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    load_start = load_average()
    steal_start, total_start = cpu_ticks()
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    setups = []
    samples = 1 if args.trace else SETUP_SAMPLES
    for sample in range(samples):
        setup_s, result = run_child(args, env, deadline,
                                    setup_only=sample < samples - 1)
        setups.append(setup_s)
    if result is None:
        print("perfbench: the measuring child printed no result",
              file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups),
                                        "unit": "s"}
        result["metrics"] = dict(sorted(result["metrics"].items()))
    steal_end, total_end = cpu_ticks()
    print("host: nproc=%d python=%s machine=%s loadavg_1m_start=%.2f "
          "loadavg_1m_end=%.2f cpu_steal_frac=%.4f setup_samples=%s"
          % (os.cpu_count(), platform.python_version(), platform.machine(),
             load_start, load_average(),
             (steal_end - steal_start) / max(1, total_end - total_start),
             ",".join("%.4f" % s for s in setups)))
    for name, metric in result["metrics"].items():
        print("metric %-30s %14.6g %s" % (name, metric["value"],
                                          metric["unit"]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
