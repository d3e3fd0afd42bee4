#!/usr/bin/env python3
"""Builds the bryql benchmark (Release) and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, one table

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; traced runs write their spans to
traces/ there. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The exit status is 0 only
when the build succeeded and every answer and self-check was correct.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["suite-warm", "adhoc-cold", "service-mixed"]


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def build():
    """Configures and builds perfbench_bin; returns its path or None."""
    build_dir = os.path.join(build_root(), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "perfbench_bin"])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                log("build failed: " + " ".join(step))
                return None
    return os.path.join(build_dir, "perfbench_bin")


def program_id():
    """The git commit when there is one, plus a digest of the sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".h", ".txt", ".py")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return commit + "+src." + digest.hexdigest()[:12]


def run_one(binary, args, workload, capture):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", program_id()]
    if args.trace:
        traces = os.path.join(build_root(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (workload,
                                                             args.seed))]
    if not capture:
        return subprocess.run(command).returncode, None
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result


def run_all(binary, args):
    """Every workload in turn, then one table and one combined result."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        code, result = run_one(binary, args, workload, capture=True)
        if code != 0:
            log("%s exited with %d" % (workload, code))
            status = status or code
        if result is None:
            return status or 1
        results[workload] = result
    print("\n%-14s %-34s %14s  %s" % ("workload", "metric", "value", "unit"))
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, result in results.items():
        print("%-14s %-34s %14s" % (workload, "correct", result["correct"]))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print("%-14s %-34s %14.6g  %s" % (workload, name, metric["value"],
                                              metric["unit"]))
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return status or (0 if combined["correct"] else 4)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    binary = build()
    if binary is None:
        return 1
    if args.workload == "all":
        return run_all(binary, args)
    return run_one(binary, args, args.workload, capture=False)[0]


if __name__ == "__main__":
    sys.exit(main())
