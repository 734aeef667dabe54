#!/usr/bin/env python3
"""Builds the tlsharm benchmark from source and runs one workload.

Usage (from the repository root):

  python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 benchmark/run.py --test      # build and run the helpers' tests

The build lives in .bench_build/ at the repository root. The last line of
standard output is the result JSON; README.md explains every field.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def scoped_env():
    """The environment for the build and the run: no TLSHARM_* knob (the
    library reads every knob under that prefix), temporaries in the build
    tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TLSHARM_")}
    env["TMPDIR"] = os.path.join(BUILD, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, env=scoped_env(),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(step))
            return False
    return True


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "benchmark"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def metric_list(spec, trace):
    """The metrics BENCHMARK.json lists for this kind of run, as the binary's
    --metrics argument: the one place their names and units are kept."""
    key = "per_layer" if trace else "end_to_end"
    return ",".join("%s:%s" % (m["name"], m["unit"]) for m in spec[key])


def run_tests():
    if not build("tlsharm_bench_helpers_test"):
        return 1
    return subprocess.run(
        [os.path.join(BUILD, "tlsharm_bench_helpers_test")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()
    if args.test:
        return run_tests()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        log("--seed must be >= 0 and --seconds > 0")
        return 2
    if not build("tlsharm_bench"):
        return 1

    workdir = os.path.join(BUILD, "work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(BUILD, "tlsharm_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--rev", source_rev(),
           "--metrics", metric_list(spec, args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=scoped_env(),
                              stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(proc.stdout, end="", flush=True)
    if proc.returncode != 0:
        log("benchmark exited with %d" % proc.returncode)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
