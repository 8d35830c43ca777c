#!/usr/bin/env python3
"""Build and run the service-stack benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Configures and builds perfbench/ (which
compiles the stack from src/) under $CARGO_TARGET_DIR, default
.bench_build, then runs the perfbench binary.  Its stdout ends with one JSON
result line; this script checks that its metric names are exactly the ones
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer with
--trace 1) before passing it on.  Build output goes to stderr.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then bring the perfbench binary up to date."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   stdout=sys.stderr, check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}


def main(argv):
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    try:
        build(build_dir)
        want = expected_metrics(trace)
    except (subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    try:
        proc = subprocess.run(
            [os.path.join(build_dir, "perfbench"), *argv,
             "--work-dir", os.path.join(build_root, "perfbench-work")],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        print("perfbench: the binary printed no result", file=sys.stderr)
        return proc.returncode or 4
    if got != want:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}", file=sys.stderr)
        return 5
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
