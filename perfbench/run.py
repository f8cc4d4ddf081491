#!/usr/bin/env python3
"""Runs one workload of the SOFA benchmark and prints its metrics.

    python3 perfbench/run.py --workload serve_lf --seed 1 --seconds 25 --trace 0

Run from the root of a SOFA checkout. The script builds `sofa_cli` and
the benchmark runner from the checkout's sources (CMake, Release, into
.bench_build/ or $CARGO_TARGET_DIR), then runs the runner, which boots
`sofa_cli serve --listen` as the system under test and drives it over
loopback TCP. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. perfbench/README.md
describes the workloads and every metric.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore_hf", "serve_lf", "ingest_mixed")
BUILD_TIMEOUT_S = 700
RUNNER_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configures (once) and builds sofa_cli + perfbench_runner."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "perfbench-build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs, "--target",
                  "sofa_cli", "perfbench_runner"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                result = subprocess.run(
                    step, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                fail("build timed out (log: %s)" % log_path)
            if result.returncode != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                fail("build failed: %s" % " ".join(step))
    return (os.path.join(out_dir, "sofa", "sofa_cli"),
            os.path.join(out_dir, "perfbench_runner"))


def git_sha():
    """HEAD of the checkout when it is itself a git work tree, else 'unknown'."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.realpath(top.stdout.strip()) == \
                os.path.realpath(ROOT):
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def source_digest():
    """SHA-1 over the sources that make up the measured program and runner,
    so a result stays identifiable in a checkout without git metadata."""
    digest = hashlib.sha1()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "examples", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, name) for name in sorted(filenames))
    for path in paths:
        if path.endswith((".cc", ".h", ".cpp", ".py", ".txt")):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as source:
                digest.update(source.read())
    return digest.hexdigest()[:16]


def kill_group(child):
    """SIGKILLs what is left of the runner's process group (the runner and
    any server it started) and waits until every member has exited."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        child.poll()  # reap the runner itself
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("%s is not a SOFA checkout (no CMakeLists.txt and src/)" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")

    sofa_cli, runner = build(build_dir())
    work_root = os.path.join(ROOT, ".bench_work")
    work_dir = os.path.join(work_root, "run-%s-%d-%d" % (args.workload, args.seed,
                                                         os.getpid()))
    os.makedirs(work_dir)
    env = dict(os.environ, SOFA_GIT_SHA=git_sha())
    command = [runner, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
               "--sofa_cli=" + sofa_cli, "--work_dir=" + work_dir,
               "--cache_dir=" + os.path.join(work_root, "oracle"),
               "--trace_dir=" + os.path.join(work_root, "traces"),
               "--source_digest=" + source_digest()]
    # The runner leads its own process group so that every server it
    # spawned can be reaped here even if it dies abnormally.
    child = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)

    def on_signal(signum, _frame):
        kill_group(child)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = child.wait(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: runner exceeded %d s" % RUNNER_TIMEOUT_S,
              file=sys.stderr)
        code = 3
    kill_group(child)
    child.wait()
    shutil.rmtree(work_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
