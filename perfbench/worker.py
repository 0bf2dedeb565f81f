"""One benchmark process: set up a workload, run its ops, print one JSON line.

Started by run.py, never by hand.  Modes:

  setup   set up and stop at the point where the first op would start
  timed   whole cycles until ops have run for --seconds and --min-ops ops ran
  fixed   exactly --cycles cycles; with --trace, every layer is traced

--t0 is the parent's time.monotonic() just before it started this process
(CLOCK_MONOTONIC is system-wide on Linux), so setup_s includes interpreter
start-up and imports.  The loop time counts the ops (and the kernel runs
between them): each next cycle's inputs are generated outside it.

In setup and timed modes the worker also measures the machine's speed
(refspeed.py): run.py's kernel runs just before it starts the worker and
as many right after set-up, and in the timed loop one kernel
run before every op and one after the last, outside the op times.  run.py
scales the times with them.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import orehopf  # noqa: E402,F401  (imports every layer before tracing wraps it)
import refspeed  # noqa: E402
from tracer import Tracer, merge_summaries  # noqa: E402

OUT = os.path.join(ROOT, "perfbench", "out")
STARTUP_SAMPLES = 5


def run_op(fn):
    try:
        return bool(fn())
    except Exception as exc:  # an op that raises counts as failed
        print(f"op raised {type(exc).__name__}: {exc}", file=sys.stderr)
        return False


def startup_s(env):
    """Median wall time of a child that only imports orehopf.cli."""
    times = []
    for _ in range(STARTUP_SAMPLES):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import orehopf.cli"], env=env,
                       cwd=ROOT, check=True, timeout=60)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--min-ops", type=int, default=0)
    ap.add_argument("--cycles", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    # the cli workload traces its CLI children, not its own set-up
    tracer = None
    if args.trace and args.workload != "cli":
        tracer = Tracer()
        tracer.install()
    import workloads  # after install, so its imported names are the wrapped ones

    os.makedirs(OUT, exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli and args.trace:
        trace_dir = os.path.join(OUT, f"trace-cli-{args.seed}")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        wl = cls(args.seed, launcher=os.path.join(ROOT, "perfbench", "launch.py"),
                 trace_dir=trace_dir)
    else:
        wl = cls(args.seed)
    try:
        result = run(args, wl, tracer)
    finally:
        wl.close()
    print(json.dumps(result))


def run(args, wl, tracer):
    import workloads
    ops = wl.cycle(0)
    setup_end = time.monotonic()
    result = {"setup_s": setup_end - args.t0}
    if args.mode != "fixed":
        result["setup_kernels"] = [refspeed.kernel_s() for _ in range(refspeed.SETUP_PROBES)]
    if args.mode == "setup":
        return result

    timed = args.mode == "timed"
    latencies, labels, failed, kernels = [], [], [], []
    cycle = 0
    loop_s = 0.0
    while True:
        cycle_start = time.perf_counter()
        for label, fn in ops:
            if tracer is not None:
                tracer.op = len(latencies)
            if timed:
                kernels.append(refspeed.kernel_s())
            t = time.perf_counter()
            ok = run_op(fn)
            latencies.append(time.perf_counter() - t)
            labels.append(label)
            if not ok:
                failed.append(label)
        loop_s += time.perf_counter() - cycle_start
        cycle += 1
        if args.mode == "fixed":
            if cycle >= args.cycles:
                break
        elif loop_s >= args.seconds and len(latencies) >= args.min_ops:
            break
        ops = wl.cycle(cycle)
    if tracer is not None:
        tracer.op = -1
    if timed:
        kernels.append(refspeed.kernel_s())

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    result.update(loop_s=loop_s, cycles=cycle, latencies=latencies, labels=labels,
                  failed=failed, kernels=kernels,
                  peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0)
    if args.workload == "cli" or args.trace:
        probe_dir = os.path.join(OUT, f"probe-{os.getpid()}")
        os.makedirs(probe_dir, exist_ok=True)
        try:
            result["known_violations"] = workloads.probe_known_violations(probe_dir)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
    if tracer is not None:
        path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json.gz")
        tracer.dump(path)
        result["trace"] = dict(tracer.summary(), span_file=os.path.relpath(path, ROOT))
    elif args.trace:
        result["trace"] = dict(child_summaries(wl.trace_dir),
                               span_file=os.path.relpath(wl.trace_dir, ROOT))
    if args.trace:
        result["trace"]["startup_s"] = startup_s(workloads.cli_env())
    return result


def child_summaries(trace_dir):
    """Sum the trace summaries written by the traced CLI children."""
    parts = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".summary.json"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                parts.append(json.load(fh))
    return merge_summaries(parts)


if __name__ == "__main__":
    main()
