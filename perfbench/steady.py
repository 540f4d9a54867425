#!/usr/bin/env python3
"""Steadiness record: repeated, interleaved runs of the benchmark.

    python3 perfbench/steady.py [--first-seed 1] [--out FILE]

Run from the repository root. Runs every workload of BENCHMARK.json 10
times at its run_seconds, each run with its own seed (first-seed, first-seed
+ 1, ...), interleaving the workloads (run k of every workload before run
k+1 of any). Prints for each end-to-end metric its median, first and third
quartiles (statistics.quantiles, n=4) and their spread, (q3 - q1) / median,
flagged when it reaches a third of the metric's bound or the bound itself.

--out appends the run set to the record FILE (created if missing), with the
host's nproc, hardware threads, compiler, build type and a digest of the
benchmarked sources, then compares every set in FILE: for each metric, how
much worse the worst set median is than the best one, flagged over the bound.
"""
import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
# What the benchmarked program is built from; the record's code_digest.
SOURCES = ["BENCHMARK.json", "perfbench/CMakeLists.txt", "perfbench/run.py",
           "perfbench/src", "src"]


def bench_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def code_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name) for d, _, names in os.walk(path)
            for name in names)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode() + b"\0")
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def build_info():
    info = {"compiler": "unknown", "build_type": "unknown"}
    cache = os.path.join(ROOT, ".bench_build", "perfbench", "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    info["build_type"] = line.split("=", 1)[1].strip()
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                    out = subprocess.run([cxx, "--version"], capture_output=True,
                                         text=True).stdout
                    info["compiler"] = (out.splitlines()[0] if out
                                        else os.path.basename(cxx))
    return info


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit("run failed: %s\n%s" % (" ".join(cmd), done.stderr[-2000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("incorrect run: %s: %s" % (" ".join(cmd), result))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def flag(value, bound):
    if value >= bound:
        return "  <-- OVER BOUND"
    return "  <-- over bound/3" if value >= bound / 3 else ""


def compare_sets(sets, metrics):
    """Prints, per metric, the worst set median against the best one."""
    for k, s in enumerate(sets):
        print("set %d: started %s, seeds %d-%d, code %s"
              % (k + 1, s["started"], s["seeds"][0], s["seeds"][-1],
                 s["code_digest"][:12]))
    for w in sets[-1]["workloads"]:
        for name, m in metrics.items():
            meds = [s["workloads"][w][name]["median"] for s in sets
                    if w in s["workloads"]]
            lo, hi = min(meds), max(meds)
            worse = (hi / lo - 1.0 if m["better"] == "lower"
                     else 1.0 - lo / hi) if lo > 0 else 0.0
            print("%-12s %-14s set medians %s  worst vs best %6.3f%s"
                  % (w, name, " ".join("%.6g" % v for v in meds), worse,
                     "  <-- OVER BOUND" if worse > m["bound"] else ""))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    config = bench_config()
    seconds = config["run_seconds"]
    workloads = [w["name"] for w in config["workloads"]]
    metrics = {m["name"]: m for m in config["end_to_end"]}

    started = datetime.datetime.now(datetime.timezone.utc)
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            runs[w].append(run_once(w, seed, seconds))
            print("seed %d %s %s" % (seed, w, json.dumps(runs[w][-1])),
                  file=sys.stderr, flush=True)

    record = {"started": started.strftime("%Y-%m-%dT%H:%M:%SZ"),
              "code_digest": code_digest(),
              "nproc": len(os.sched_getaffinity(0)),
              "hardware_threads": os.cpu_count(),
              "machine": platform.machine(), "run_seconds": seconds,
              "runs_per_workload": RUNS, "seeds": seeds,
              **build_info(), "workloads": {}}
    for w in workloads:
        record["workloads"][w] = {}
        for name in runs[w][0]:
            s = summarize([r[name] for r in runs[w]])
            record["workloads"][w][name] = s
            print("%-12s %-14s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f%s"
                  % (w, name, s["median"], s["q1"], s["q3"], s["spread"],
                     flag(s["spread"], metrics[name]["bound"])))
    if not args.out:
        return
    sets = []
    if os.path.isfile(args.out):
        with open(args.out) as f:
            sets = json.load(f)["sets"]
    sets.append(record)
    with open(args.out, "w") as f:
        json.dump({"sets": sets}, f, indent=1)
        f.write("\n")
    compare_sets(sets, metrics)


if __name__ == "__main__":
    main()
