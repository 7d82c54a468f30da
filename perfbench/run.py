#!/usr/bin/env python3
"""Builds and runs the MedVault service benchmark.

    python3 perfbench/run.py --workload clinic_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark and the medvault library it
drives are compiled from source into $CARGO_TARGET_DIR (default
.bench_build) on first use; later runs only rebuild what changed. The
last line of standard output is the JSON result; build output goes to
standard error. Per-run records (fingerprint, every metric with its
note) and traced spans are written under <build dir>/results.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, stderr=sys.stderr):
            # Leave no half-configured tree behind for the next attempt.
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs, "--target",
                        "medvault_bench", "perfbench_selftest"],
                       stdout=sys.stderr, stderr=sys.stderr):
        return None
    return build_dir


def check_declared(build_dir):
    """The metrics BENCHMARK.json declares are the ones the program emits."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = subprocess.run([os.path.join(build_dir, "medvault_bench"),
                             "--list-metrics"], capture_output=True, text=True,
                            check=True).stdout.split("\n")
    emitted = {kind: [] for kind in ("end_to_end", "per_layer")}
    for line in filter(None, listed):
        kind, name, unit = line.split()
        emitted[kind].append((name, unit))
    ok = True
    for kind in emitted:
        declared = [(m["name"], m["unit"]) for m in spec[kind]]
        same = declared == emitted[kind]
        print(("ok  " if same else "FAIL") + f" BENCHMARK.json {kind} "
              "matches the metrics the benchmark emits")
        ok = ok and same
    return 0 if ok else 1


def main(argv):
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or ".bench_build")
    build_dir = build(build_root)
    if build_dir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv[:1] == ["--selftest"]:
        failed = subprocess.call([os.path.join(build_dir, "perfbench_selftest")])
        return failed or check_declared(build_dir)
    results = os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(build_dir, "medvault_bench")] + argv + [
        "--work-dir", results]
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
