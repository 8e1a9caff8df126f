"""One workload in one fresh process; started by run.py.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
                            [--setup-only]

Prints "ready SPENT FACTOR" once set-up (imports, inputs, one warm-up
call of each operation kind) is done, then runs whole passes over the
workload's operations until the timed verdicts add up to --seconds (at
the reference host speed, with --trace 0), and prints one JSON line with
the counts and metrics.  The first pass checks every output against its
reference; later passes must repeat it exactly.

With --trace 0 a host speed probe (probe.py) runs throughout: SPENT is
the seconds it took during set-up and FACTOR the host's slowdown then,
and each verdict time is divided by the slowdown measured around it.
With --trace 1 there is no probe (SPENT 0, FACTOR 1); a checking pass is
followed by untraced and traced passes in turn until the traced ones add
up to --seconds, and the line carries the raw per-layer metrics instead.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import layers  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402
from references import CheckError  # noqa: E402


def _import_rnlie():
    import rnlie
    import rnlie.cli  # noqa: F401  (the sampled workload calls it)

    where = os.path.dirname(os.path.dirname(os.path.abspath(rnlie.__file__)))
    if where != SRC:
        raise SystemExit(f"rnlie was imported from {where}, not from {SRC}")
    return rnlie


class Runner:
    def __init__(self, ops, clock=perf_counter):
        self.ops = ops
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times = []
        self.windows = []  # (start, end) of each verdict, by perf_counter
        self._first = {}
        self._faulty = set()

    def _fail(self, op, why):
        self.correct = False
        print(f"INCORRECT {op.label}: {why}", file=sys.stderr)

    def one_pass(self, tracer=None):
        """Run every op once; return the summed verdict time."""
        spent = 0.0
        checking = not self._first
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.active = True
            start = perf_counter()
            t0 = self.clock()
            try:
                out = op.call()
            except Exception as exc:  # an rnlie error is a failed operation
                out = exc
            dt = self.clock() - t0
            self.windows.append((start, perf_counter()))
            if tracer is not None:
                tracer.active = False
            spent += dt
            self.times.append(dt)
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                print(f"FAILED {op.label}: {out!r}", file=sys.stderr)
                continue
            if checking:
                self._first[i] = workloads.fingerprint(out)
                try:
                    op.check(out)
                except CheckError as exc:
                    if op.fault:
                        self._faulty.add(i)
                    else:
                        self._fail(op, exc)
            elif workloads.fingerprint(out) != self._first[i]:
                self._fail(op, "output differs from the first pass")
            self.failed += i in self._faulty
        return spent


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    host = None if args.trace else probe.Probe()
    if host is not None:
        host.start()
    rnlie = _import_rnlie()
    build, warm_up = workloads.WORKLOADS[args.workload]
    runner = Runner(build(rnlie, args.seed), host.clock if host else perf_counter)
    warm_up(rnlie)
    if host is None:
        print("ready 0 1", flush=True)
    else:
        print(f"ready {host.spent!r} {host.factor()!r}", flush=True)
    if args.setup_only:
        if host is not None:
            host.stop()
        return 0

    if args.trace:
        import tracing

        # after the checking pass, untraced and traced passes alternate,
        # so that the overhead compares passes run under the same conditions
        runner.one_pass()
        tracer = tracing.Tracer()
        untraced = traced = 0.0
        passes = 0
        while passes == 0 or traced < args.seconds:
            untraced += runner.one_pass()
            tracer.install()
            traced += runner.one_pass(tracer)
            tracer.uninstall()
            passes += 1
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"trace-{args.workload}.jsonl.gz"))
        metrics = layers.per_layer(tracer, passes, traced / passes, untraced / passes)
    else:
        # --seconds of verdict time at the reference host speed, so that
        # the number of passes does not move with the host's slowdown
        spent = 0.0
        while spent < args.seconds:
            first = len(runner.times)
            runner.one_pass()
            spent += sum(host.scale(t, *w) for t, w in
                         zip(runner.times[first:], runner.windows[first:]))
        host.stop()
        scaled = [host.scale(t, *w) for t, w in zip(runner.times, runner.windows)]
        n = len(runner.ops)
        passes = len(scaled) // n
        rates = [n / sum(scaled[i:i + n]) for i in range(0, len(scaled), n)]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "verdicts_per_s": (statistics.median(rates), "1/s"),
            "verdict_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
        raw = [n / sum(runner.times[i:i + n]) for i in range(0, len(scaled), n)]
        print(f"{args.workload}: unscaled verdicts_per_s {statistics.median(raw):.4g}, "
              f"verdict_p50_ms {statistics.median(runner.times) * 1e3:.4g}; "
              f"host slowdown {host.factor():.3f}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.correct, "attempted": runner.attempted,
        "failed": runner.failed, "passes": passes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
