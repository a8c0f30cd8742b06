#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 benchmark/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
                             [--scale full|small]

Run from the repository root. The benchmark binary is built from source with
CMake into $CARGO_TARGET_DIR (default: .bench_build) on every call; an
up-to-date build costs well under a second. Build output goes to stderr.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Its metric names and units are checked against
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1); a
mismatch, a failed build or a failed run exits non-zero without a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "--target", "pacon_bench", "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "pacon_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return spec, {m["name"]: m["unit"] for m in section}


def bench_env():
    """Lets glibc malloc back its arenas with transparent huge pages.

    The simulator chases pointers through tens of MB of heap; with 4 KiB
    pages its TLB misses make it the more exposed to other tenants of a
    shared host. Huge pages made iterations faster and their times steadier
    there. Without THP support the tunable has no effect.
    """
    env = dict(os.environ)
    tunables = [t for t in env.get("GLIBC_TUNABLES", "").split(":") if t]
    env["GLIBC_TUNABLES"] = ":".join(tunables + ["glibc.malloc.hugetlb=1"])
    return env


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              env=bench_env())
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: benchmark exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])
    _, expected = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail(f"{workload}: result does not match BENCHMARK.json "
             f"(missing {missing}, extra {extra}, unit mismatch {units})")
    print("\n".join(lines[:-1]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    args = parser.parse_args()

    binary = build()
    spec, _ = expected_metrics(args.trace)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        if args.workload not in names:
            fail(f"unknown workload {args.workload!r}; choose from {names} or all")
        result = run_one(binary, args.workload, args)
        print(json.dumps(result))
        return
    # Every workload in turn; the result line namespaces metrics by workload.
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_one(binary, name, args)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(total))


if __name__ == "__main__":
    main()
