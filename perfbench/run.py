"""Layered benchmark of orehopf.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src, so
nothing has to be installed.  Workloads (see workloads.py and
BENCHMARK.json): hopf-axioms, module-sweep, cli; "all" runs them in turn,
each with its own summary and JSON line.

--trace 0 measures the end-to-end metrics.  One worker process sets up the
workload and runs whole cycles of ops, one at a time, until the ops have
run for S seconds and at least MIN_OPS[workload] ops completed.  Two more
workers only set up, and setup_s is the median of the three set-up times.
Every time is scaled to a fixed machine speed (refspeed.py): a fixed
kernel of the benchmark's own is timed next to each op and before and
after each set-up, and a wall time is multiplied by REF_S over the
kernel's mean time around it.  The wall times as measured are printed too.
ops_per_s is ops over the summed op times: the loop's time without the
kernel runs.

--trace 1 measures the per-layer metrics.  A fixed number of cycles runs
twice, each time in a fresh worker: untraced, then with every public
function of every orehopf module wrapped (tracer.py).  The counts repeat
exactly for a given seed; trace.overhead_ratio is traced loop time over
untraced loop time.  Spans are written under perfbench/out/.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import refspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hopf-axioms", "module-sweep", "cli")
# at least 100 ops, so that ten samples lie beyond the 90th percentile, in
# whole cycles: 10 of hopf-axioms, 6 of module-sweep and 5 of cli, each
# 20-30 s of ops on a 2-vCPU machine
MIN_OPS = {"hopf-axioms": 330, "module-sweep": 246, "cli": 115}
SETUP_RUNS = 3
FIXED_CYCLES = {"hopf-axioms": 2, "module-sweep": 1, "cli": 1}
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def spawn_worker(args, mode, deadline, **extra):
    """Run worker.py to completion in its own process group; return its
    JSON result.  On timeout the whole group is killed and reaped."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), "--mode", mode]
    for key, value in extra.items():
        if value is True:
            argv.append("--" + key.replace("_", "-"))
        else:
            argv += ["--" + key.replace("_", "-"), str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    # the machine's speed just before set-up; the worker adds its speed
    # just after
    before = [refspeed.kernel_s() for _ in range(refspeed.SETUP_PROBES)] if mode != "fixed" else []
    t0 = time.monotonic()
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{mode} worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    result = json.loads(lines[-1])
    if before:
        result["setup_kernels"] += before
    return result


def timings(lat, setups):
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1000.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def end_to_end(args, deadline):
    workers = [spawn_worker(args, "setup", deadline)]
    timed = spawn_worker(args, "timed", deadline, seconds=args.seconds,
                         min_ops=MIN_OPS[args.workload])
    workers.append(timed)
    while len(workers) < SETUP_RUNS:
        workers.append(spawn_worker(args, "setup", deadline))
    lat = timed["latencies"]
    n = len(lat)
    wall = timings(lat, [w["setup_s"] for w in workers])
    metrics = timings(refspeed.scale(lat, timed["kernels"]),
                      [w["setup_s"] * refspeed.REF_S / statistics.fmean(w["setup_kernels"])
                       for w in workers])
    metrics["peak_rss_mb"] = (timed["peak_rss_mb"], "MB")
    failed = len(timed["failed"])
    print(f"workload {args.workload} seed {args.seed}: {n} ops in "
          f"{timed['loop_s']:.2f} s ({timed['cycles']} cycles, closed loop, 1 caller); "
          f"machine speed {refspeed.REF_S / statistics.fmean(timed['kernels']):.3f} "
          f"x reference")
    print(f"  {'':<18} {'at ref speed':>12} {'':<4} {'wall':>10}")
    for name, (value, unit) in metrics.items():
        basis = f"median of {len(workers)} set-ups" if name == "setup_s" else f"{n} ops"
        as_measured = f"{wall[name][0]:10.4f}" if name in wall else f"{'':10}"
        print(f"  {name:<18} {value:12.4f} {unit:<4} {as_measured} ({basis})")
    print(f"  {'failed_ops_share':<18} {failed / n:12.4f}      ({failed}/{n} ops)")
    report_failures(timed["failed"])
    if "known_violations" in timed:
        report_violations(timed["known_violations"], failed, n)
    return n, failed, metrics


def report_failures(failed):
    if failed:
        kinds = sorted(set(failed))
        print("  FAILED ops by kind: " + ", ".join(
            f"{k} x{failed.count(k)}" for k in kinds))


def report_violations(probes, failed, n):
    still = [name for name, holds in probes.items() if not holds]
    print("  known CLI contract violations (probes, outside the op count): "
          + ", ".join(f"{k} {'holds' if v else 'VIOLATED'}" for k, v in probes.items()))
    print(f"  failed_ops_share counting the probes as ops: "
          f"{(failed + len(still)) / (n + len(probes)):.4f} "
          f"({failed + len(still)}/{n + len(probes)})")


def layer_metrics(t, ops, overhead, violations):
    calls, inclusive, self_s = t["calls"], t["inclusive_s"], t["self_s"]

    def c(*labels):
        return sum(calls.get(label, 0) for label in labels)

    adds = c("linalg.SpanBasis.add")
    certificates = c("reps.rep_check", "reps.is_simple_burnside")
    return {
        "cyclotomic.mul_calls": (c("cyclotomic.Cyclotomic.__mul__",
                                   "cyclotomic.Cyclotomic.__rmul__"), "count"),
        "cyclotomic.inverse_calls": (c("cyclotomic.Cyclotomic.inverse"), "count"),
        "cyclotomic.self_s": (self_s["cyclotomic"], "s"),
        "abgroup.char_eval_calls": (c("abgroup.Character.eval", "abgroup.Character.eval_pow",
                                      "abgroup.SubgroupCharacter.eval"), "count"),
        "abgroup.self_s": (self_s["abgroup"], "s"),
        "hopfcore.multiply_calls": (c("hopfcore.multiply"), "count"),
        "hopfcore.tensor_mul_calls": (c("hopfcore.TensorElem.__mul__"), "count"),
        "hopfcore.comultiply_calls": (c("hopfcore.comultiply"), "count"),
        "hopfcore.antipode_calls": (c("hopfcore.antipode"), "count"),
        "hopfcore.self_s": (self_s["hopfcore"], "s"),
        "quotient.q_reduce_calls": (c("quotient.q_reduce"), "count"),
        "quotient.self_s": (self_s["quotient"], "s"),
        "linalg.rref_calls": (c("linalg.rref"), "count"),
        "linalg.rref_cells": (t["rref_cells"], "count"),
        "linalg.mat_mul_calls": (c("linalg.mat_mul"), "count"),
        "linalg.span_add_calls": (adds, "count"),
        "linalg.span_add_useful_ratio": (t["span_add_useful"] / adds if adds else 0.0,
                                         "ratio"),
        "linalg.self_s": (self_s["linalg"], "s"),
        "reps.rep_check_calls": (c("reps.rep_check"), "count"),
        "reps.burnside_calls": (c("reps.is_simple_burnside"), "count"),
        "reps.are_isomorphic_calls": (c("reps.are_isomorphic"), "count"),
        "reps.classify_calls": (c("reps.classify_simple"), "count"),
        "reps.certificates_per_op": (certificates / ops, "1/op"),
        "reps.burnside_s": (inclusive.get("reps.is_simple_burnside", 0.0), "s"),
        "reps.self_s": (self_s["reps"], "s"),
        "catalog.entry_calls": (c("catalog.catalog_entry"), "count"),
        "catalog.entry_s": (inclusive.get("catalog.catalog_entry", 0.0), "s"),
        "exprparse.parse_calls": (c("exprparse.parse_element"), "count"),
        "exprparse.self_s": (self_s["exprparse"], "s"),
        "cli.startup_s": (t["startup_s"], "s"),
        "cli.main_s": (inclusive.get("cli.main", 0.0), "s"),
        "cli.known_violations": (sum(not v for v in violations.values()), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def traced(args, deadline):
    cycles = FIXED_CYCLES[args.workload]
    plain = spawn_worker(args, "fixed", deadline, cycles=cycles)
    run = spawn_worker(args, "fixed", deadline, cycles=cycles, trace=True)
    ops = len(run["latencies"])
    overhead = run["loop_s"] / plain["loop_s"]
    t = run["trace"]
    metrics = layer_metrics(t, ops, overhead, run["known_violations"])
    failed = sorted(plain["failed"] + run["failed"])
    attempted = len(plain["latencies"]) + ops
    print(f"workload {args.workload} seed {args.seed}: traced run of {cycles} cycle(s), "
          f"{ops} ops; untraced loop {plain['loop_s']:.2f} s, traced loop "
          f"{run['loop_s']:.2f} s, {t['spans']} spans in {t['span_file']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:14.6g} {unit}")
    report_failures(failed)
    report_violations(run["known_violations"], len(run["failed"]), ops)
    return attempted, len(failed), metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "orehopf", "__init__.py")):
        print("error: src/orehopf not found; run from the root of an orehopf checkout",
              file=sys.stderr)
        return 2
    # the vCPUs of a shared host run at different speeds at the same moment
    # (one 25 % faster than the other as often as not), so the kernel must
    # run on the CPU that runs the ops: this process, its workers and their
    # CLI children all stay on one CPU, and none of them runs while another
    # waits for it
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        one = argparse.Namespace(**dict(vars(args), workload=name))
        deadline = time.monotonic() + DEADLINE_S
        try:
            if args.trace:
                attempted, failed, metrics = traced(one, deadline)
            else:
                attempted, failed, metrics = end_to_end(one, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit) in metrics.items()},
        }))
    return 0

if __name__ == "__main__":
    sys.exit(main())
