#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the checkout root. The first run configures and builds the
library and the benchmark binary (Release) into .bench_build/; later
runs only re-check the build. Build output goes to stderr; stdout is
the benchmark's own, ending with its one-line JSON result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# CARGO_TARGET_DIR, when set, names the build directory (relative paths
# are taken from the checkout root).
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "autonet_perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not shutil.which("cmake"):
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                       + generator, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "autonet_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    args = sys.argv[1:]
    try:
        build()
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)
    run = subprocess.run([BINARY] + args + ["--repo", ROOT, "--work", BUILD],
                         stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    # The result must name exactly the metrics BENCHMARK.json declares.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    kind = "per_layer" if "--trace" in args and args[args.index("--trace") + 1] == "1" \
        else "end_to_end"
    declared = [m["name"] for m in spec[kind]]
    if sorted(declared) != sorted(result["metrics"]):
        fail("metrics differ from BENCHMARK.json %s" % kind)


if __name__ == "__main__":
    main()
