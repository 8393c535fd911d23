#!/usr/bin/env python3
"""Checks that back the benchmark's numbers; run from the repository root.

    python3 perfbench/check.py [--ops 10] [--seeds 1,2] [--seconds 10]

1. Self-test: one corrupted value per workload must be counted as exactly
   one failed op.
2. Exact-count determinism: for every workload and seed, a fixed number of
   ops gives the same digest of per-op message and byte counts, build
   counts, kernel executions, schedule-cache and dereference-cache hits and
   misses, and patches -- twice unpinned and once pinned to one CPU
   (taskset -c 0).  Server batch counts are left out: batch composition
   follows wall-clock arrival order (see README.md).
3. Unseen seed: each end-to-end metric of the second seed stays within the
   metric's bound (BENCHMARK.json) of the first seed's value, either way.  setup_s is
   wall time and only its median over many runs is bounded, so a single
   pair is printed but does not fail the check.

Exits non-zero when any check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args, pin=False):
    cmd = (["taskset", "-c", "0"] if pin else []) + RUN + args
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if out.returncode != 0:
        raise SystemExit("failed (%d): %s" % (out.returncode, " ".join(cmd)))
    lines = out.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"] if len(lines) >= 2 else {}
    return meta, json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--ops", type=int, default=10)
    p.add_argument("--seeds", default="1,2")
    p.add_argument("--seconds", type=float, default=10)
    a = p.parse_args()
    seeds = [int(s) for s in a.seeds.split(",")]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True

    res = subprocess.run(RUN + ["--self-test"], cwd=ROOT)
    print("self-test:", "ok" if res.returncode == 0 else "FAILED")
    ok = ok and res.returncode == 0

    can_pin = shutil.which("taskset") is not None
    for w in workloads:
        for seed in seeds:
            args = ["--workload", w, "--seed", str(seed), "--ops", str(a.ops)]
            digests = [run(args)[0]["counts_digest"] for _ in range(2)]
            if can_pin:
                digests.append(run(args, pin=True)[0]["counts_digest"])
            same = len(set(digests)) == 1
            ok = ok and same
            print("determinism %-15s seed %d: %s %s" %
                  (w, seed, "ok" if same else "MISMATCH", " ".join(digests)))
    if not can_pin:
        print("determinism: taskset not found, pinned runs skipped")

    if len(seeds) >= 2:
        for w in workloads:
            first, second = [
                run(["--workload", w, "--seed", str(s), "--seconds",
                     str(a.seconds), "--trace", "0"])[1]["metrics"]
                for s in seeds[:2]]
            for name, bound in bounds.items():
                x, y = first[name]["value"], second[name]["value"]
                change = (y - x) / x
                within = abs(change) <= bound
                if name != "setup_s":
                    ok = ok and within
                print("unseen seed %-15s %-18s %.6g -> %.6g (%+.2f%%, bound "
                      "%.0f%%): %s" % (w, name, x, y, 100 * change,
                                       100 * bound,
                                       "ok" if within else "OUTSIDE"))
    print("all checks passed" if ok else "SOME CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
