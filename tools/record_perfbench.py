#!/usr/bin/env python3
"""Records a parent-vs-change comparison of perfbench as BENCH_perfbench.json.

    python3 tools/record_perfbench.py --baseline <git ref> [options]

Run from the repository root. The baseline is exported with `git archive`
into the build root, so both sides build perfbench from their own sources
with identical benchmark settings; the change side is the working tree.
For each workload the script runs `--pairs` untraced pairs, alternating
which side runs first, then one `--trace 1` run per side for the
per-layer metrics. Each workload entry holds every run's metrics, each
side's median and quartiles, the change's win count on every end-to-end
metric, and the settings, commits, date and host it ran with, so entries
added with --append describe themselves.
"""

import argparse
import datetime
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
END_TO_END = {  # metric -> True when higher is better
    "throughput_qps": True,
    "latency_p50_ms": False,
    "latency_p99_ms": False,
    "sim_s_per_query": False,
    "setup_s": False,
    "peak_rss_mb": False,
}


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_tree(ref, dest):
    """Extracts the committed tree of `ref` into `dest` (once)."""
    if os.path.exists(os.path.join(dest, "perfbench", "run.py")):
        return
    os.makedirs(dest, exist_ok=True)
    blob = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)


def run_side(tree, build_root, workload, seed, seconds, trace):
    """One perfbench run; returns its final JSON object."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_root)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("perfbench failed in %s:\n%s" % (tree, out.stderr[-2000:]))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def summary(values):
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2]}


def host():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cxx = subprocess.run(["c++", "--version"], capture_output=True, text=True)
    return {
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "os": "%s %s" % (platform.system(), platform.release()),
        "compiler": cxx.stdout.splitlines()[0] if cxx.stdout else "",
        "python": platform.python_version(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="git ref of the parent")
    parser.add_argument("--workloads", default="sdss_roomy,sdss_tight,physical_answers")
    parser.add_argument("--seeds", default="1", help="comma-separated seeds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace-seconds", type=int, default=20)
    parser.add_argument("--build-root", default=os.path.join(ROOT, ".bench_build", "record"))
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_perfbench.json"))
    parser.add_argument("--append", action="store_true",
                        help="add these workloads to an existing --out record")
    args = parser.parse_args()

    base_sha = git("rev-parse", args.baseline)
    base_tree = os.path.join(args.build_root, "baseline-src")
    export_tree(base_sha, base_tree)
    sides = {
        "parent": (base_tree, os.path.join(args.build_root, "parent")),
        "change": (ROOT, os.path.join(args.build_root, "change")),
    }
    setup = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": host(),
        "parent": base_sha,
        "change": git("rev-parse", "HEAD") + (" + working tree" if git("status", "--porcelain") else ""),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "trace_seconds": args.trace_seconds,
    }
    record = {"benchmark": "perfbench (BENCHMARK.json)", "workloads": {}}
    if args.append and os.path.exists(args.out):
        with open(args.out) as f:
            record["workloads"] = json.load(f)["workloads"]
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    tree, build = sides[side]
                    runs[side].append(run_side(tree, build, workload, seed,
                                               args.seconds, 0))
                    print("%s seed %d pair %d %s: %.1f q/s" % (
                        workload, seed, i + 1, side,
                        runs[side][-1]["metrics"]["throughput_qps"]), flush=True)
            entry = dict(setup, untraced={}, traced={}, change_wins={})
            for side, results in runs.items():
                entry["untraced"][side] = {
                    "correct": all(r["correct"] for r in results),
                    "failed": sum(r["failed"] for r in results),
                    "attempted": sum(r["attempted"] for r in results),
                    "runs": [r["metrics"] for r in results],
                    "summary": {m: summary([r["metrics"][m] for r in results])
                                for m in END_TO_END},
                }
            for m, higher in END_TO_END.items():
                wins = sum(
                    1 for p, c in zip(runs["parent"], runs["change"])
                    if (c["metrics"][m] > p["metrics"][m]) == higher
                    and c["metrics"][m] != p["metrics"][m])
                entry["change_wins"][m] = "%d/%d" % (wins, args.pairs)
            for side, (tree, build) in sides.items():
                r = run_side(tree, build, workload, seed, args.trace_seconds, 1)
                entry["traced"][side] = dict(r["metrics"], correct=r["correct"])
            record["workloads"]["%s/seed%d" % (workload, seed)] = entry
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=False)
        f.write("\n")
    print("wrote", args.out)


if __name__ == "__main__":
    main()
