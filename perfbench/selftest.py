"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (default: all):
  * two traced runs with the same seed must give identical per-layer
    counts (every *_calls metric, linalg.rref_cells,
    linalg.span_add_useful_ratio, reps.certificates_per_op);
  * untraced runs with seed N and N+1 must both complete at least
    run.MIN_OPS[workload] ops, with the same failed-ops share.
Exits 1 on the first mismatch.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import MIN_OPS, ROOT, WORKLOADS  # noqa: E402

EXACT = ("linalg.rref_cells", "linalg.span_add_useful_ratio", "reps.certificates_per_op")


def bench(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit "
                         f"{proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok, message):
    print(("ok   " if ok else "FAIL ") + message, flush=True)
    if not ok:
        raise SystemExit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    args = ap.parse_args()
    for w in args.workloads:
        a, b = (bench(w, args.seed, args.seconds, 1) for _ in range(2))
        counts = sorted(k for k in a["metrics"] if k.endswith("_calls") or k in EXACT)
        differ = [k for k in counts
                  if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        check(not differ, f"{w}: {len(counts)} per-layer counts repeat for seed "
                          f"{args.seed}" + (f"; differ: {differ}" if differ else ""))
        shares = []
        for seed in (args.seed, args.seed + 1):
            r = bench(w, seed, args.seconds, 0)
            check(r["attempted"] >= MIN_OPS[w],
                  f"{w}: seed {seed} ran {r['attempted']} ops (need {MIN_OPS[w]})")
            shares.append(r["failed"] / r["attempted"])
        check(shares[0] == shares[1],
              f"{w}: failed-ops share {shares[0]:.4f} with seed {args.seed}, "
              f"{shares[1]:.4f} with seed {args.seed + 1}")


if __name__ == "__main__":
    main()
