"""Benchmark command for rnlie.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs workload W (witness, exhaust, exact or sampled; see README.md) in
a fresh worker process with BLAS and OpenMP pinned to one thread, and
prints one JSON line: whether every output was correct, the operations
attempted and failed, and the metrics.  With --trace 0 those are the
end-to-end metrics, every time scaled to a fixed host speed by the
probe in probe.py; set-up is timed in SETUP_RUNS fresh processes and
reported as their median.  With --trace 1 they are the per-layer
metrics of a traced run, whose spans land in bench/out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
# the same names as workloads.WORKLOADS, listed here so that this parent
# process never imports numpy
WORKLOADS = ("witness", "exhaust", "exact", "sampled")
SETUP_RUNS = 5
TIMEOUT_S = 170.0


def _worker(args, setup_only, deadline):
    """Run one worker; return (set-up seconds at the reference host speed,
    its last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    timer.start()
    setup, last = None, None
    try:
        for line in proc.stdout:
            if setup is None and line.startswith("ready "):
                # the probe's own time left out, the rest scaled by the
                # host's slowdown during set-up
                spent, factor = map(float, line.split()[1:])
                setup = (perf_counter() - t0 - spent) / factor
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or setup is None:
        raise SystemExit(f"{args.workload} worker exited with code {code}")
    return setup, last


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    # a terminated benchmark still kills and waits for its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = perf_counter() + TIMEOUT_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_worker(args, True, deadline)[0])
    setup, line = _worker(args, False, deadline)
    setups.append(setup)
    result = json.loads(line)
    metrics = result["metrics"]
    if not args.trace:
        metrics = {
            "verdicts_per_s": metrics["verdicts_per_s"],
            "verdict_p50_ms": metrics["verdict_p50_ms"],
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": metrics["peak_rss_mb"],
        }
    print(f"{args.workload} seed {args.seed}: {result['passes']} passes, "
          f"set-up runs {[round(s, 3) for s in setups]}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
