#!/usr/bin/env python3
"""Build perfbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--inject <fault>]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout. The last line of standard output
is one JSON object {correct, attempted, failed, metrics}: with --trace 0 the
metrics are the end_to_end metrics of BENCHMARK.json, with --trace 1 its
per_layer metrics (a layer the workload does not touch reads 0).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures once, then lets CMake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir,
                    "-j", str(len(os.sched_getaffinity(0)))],
                   check=True, stdout=sys.stderr)


def source_provenance():
    """Git revision when the checkout is a repository, and always a digest
    of the library sources the benchmark compiled."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "none"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject", default="",
                    help="deliberate fault the correctness gates must catch")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail(f"{spec_path} not found")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no library sources under {ROOT}/src; run from a checkout")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)

    print("provenance-source " + json.dumps(source_provenance()), flush=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.inject:
        cmd += ["--inject", args.inject]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name} measured in {measured[name]['unit']}, "
                     f"declared in {unit}")
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"{args.workload} did not measure {name}")
        print(f"metric {name} = {metrics[name]['value']:.6g} {unit}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
