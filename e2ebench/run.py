#!/usr/bin/env python3
"""End-to-end benchmark of htqo: builds the library and the benchmark
program as Release from this checkout, then runs one workload (or all four).

    python3 e2ebench/run.py --workload <tpch|cyclic|plan_churn|served_mix|all>
                            --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); build output
goes to a log file there, so the last line of standard output is always the
workload's JSON result. See e2ebench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["tpch", "cyclic", "plan_churn", "served_mix"]


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no htqo sources under {root}/src")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "e2ebench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "htqo_e2e",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return os.path.join(build_dir, "htqo_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)  # absolute values pass through
    binary = build(root, os.path.join(target, "e2ebench"))
    work_dir = os.path.join(target, "e2ebench-work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)

    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        code = subprocess.run(
            [binary, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir]).returncode
        status = status or code
    try:
        os.rmdir(os.path.join(work_dir, "server_traces"))
    except OSError:
        pass
    try:
        os.rmdir(work_dir)
    except OSError:
        pass
    sys.exit(status)


if __name__ == "__main__":
    main()
