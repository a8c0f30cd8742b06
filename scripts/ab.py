#!/usr/bin/env python3
"""Same-host A/B of the repository benchmark: a parent revision against the working tree.

    python3 scripts/ab.py <parent-rev>

Exports <parent-rev> with `git archive` into build-ab/parent/ and builds each
side with that side's own benchmark/run.py, in its own CARGO_TARGET_DIR
(build-ab/parent-bench/ and build-ab/change-bench/). Then it runs PAIRS pairs
of

    run.py --workload all --seed 1 --seconds <BENCHMARK.json run_seconds> --trace 0

on each side, alternating which side runs first, and prints one row per
workload and end-to-end metric: each side's median [q1, q3], in how many pairs
the change read lower, and the change of the median.

Exit status: 0 when every end-to-end metric's median is within its
BENCHMARK.json bound of the parent's and the failed share did not rise; 1 when
not (the rows marked WORSE); 2 when a side failed to build or run. A row is
marked unresolved when the parent's own quartile spread is wider than the
bound and the change did not read better in every pair; the exit status does
not depend on it. Build and run logs go to build-ab/*.log.
"""
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AB_DIR = os.path.join(ROOT, "build-ab")
PAIRS = 10
SEED = 1


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative(change, parent):
    if parent == 0:
        return 0.0 if change == 0 else float("inf") if change > 0 else float("-inf")
    return (change - parent) / abs(parent)


def failed_share(run):
    return run["failed"] / run["attempted"] if run["attempted"] else 0.0


def compare(spec, parent_runs, change_runs):
    """Rows of the A/B table and the list of gate failures.

    Each run is one run.py result object for `--workload all`. A metric fails
    when its median is worse than the parent's by more than its bound in the
    direction BENCHMARK.json calls worse; the failed share (failed/attempted
    over all workloads) fails on any rise of its median; a change run that
    reports correct=false fails.
    """
    rows, failures = [], []
    pairs = len(parent_runs)
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = f"{workload}/{metric['name']}"
            p = [r["metrics"][key]["value"] for r in parent_runs]
            c = [r["metrics"][key]["value"] for r in change_runs]
            p_q, c_q = quartiles(p), quartiles(c)
            move = relative(c_q[1], p_q[1])
            worse = -move if metric["better"] == "higher" else move
            better_every_pair = all(
                (cv > pv) if metric["better"] == "higher" else (cv < pv) for pv, cv in zip(p, c))
            spread = (p_q[2] - p_q[0]) / abs(p_q[1]) if p_q[1] else 0.0
            if worse > metric["bound"]:
                status = "WORSE"
                failures.append(f"{key}: median {move:+.1%}, bound {metric['bound']:.0%}")
            elif spread > metric["bound"] and not better_every_pair:
                status = "unresolved"
            else:
                status = "ok"
            lower = sum(cv < pv for pv, cv in zip(p, c))
            rows.append((workload, metric["name"], p_q, c_q, f"{lower}/{pairs}", move, status))
    p_q = quartiles([failed_share(r) for r in parent_runs])
    c_q = quartiles([failed_share(r) for r in change_runs])
    status = "ok"
    if c_q[1] > p_q[1]:
        status = "WORSE"
        failures.append(f"failed share: median {p_q[1]:.4%} -> {c_q[1]:.4%}")
    lower = sum(failed_share(cr) < failed_share(pr) for pr, cr in zip(parent_runs, change_runs))
    rows.append(("all", "failed share", p_q, c_q, f"{lower}/{pairs}",
                 relative(c_q[1], p_q[1]), status))
    if not all(r["correct"] for r in change_runs):
        failures.append("a change run reported correct=false")
    return rows, failures


def fmt(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def print_table(rows):
    print("| workload | metric | parent | change | change lower in | median change | gate |")
    print("|---|---|---|---|---|---|---|")
    for workload, metric, p_q, c_q, lower, move, status in rows:
        print(f"| {workload} | {metric} | {fmt(p_q)} | {fmt(c_q)} | {lower} | {move:+.1%} "
              f"| {status} |")


def fail(message):
    print(f"ab.py: {message}", file=sys.stderr)
    sys.exit(2)


def export_parent(rev):
    tree = os.path.join(AB_DIR, "parent")
    shutil.rmtree(tree, ignore_errors=True)
    # tar restores the commit's mtimes, which can be older than objects built
    # from an earlier parent, so the parent's build tree starts over too.
    shutil.rmtree(os.path.join(AB_DIR, "parent-bench"), ignore_errors=True)
    os.makedirs(tree)
    archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE)
    if archive.returncode != 0:
        fail(f"git archive {rev} failed")
    if subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout).returncode != 0:
        fail("unpacking the parent failed")
    return tree


def run_side(side, tree, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(AB_DIR, f"{side}-bench"))
    cmd = [sys.executable, os.path.join(tree, "benchmark", "run.py"), "--workload", "all",
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    with open(os.path.join(AB_DIR, f"{side}.log"), "a") as log:
        proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=log,
                              text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        fail(f"{side} run exited with {proc.returncode}; see build-ab/{side}.log")
    return json.loads(lines[-1])


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(AB_DIR, exist_ok=True)
    trees = {"parent": export_parent(sys.argv[1]), "change": ROOT}
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(side, trees[side], spec["run_seconds"]))
        print(f"ab.py: pair {i + 1}/{PAIRS} done ({order[0]} first)", file=sys.stderr)
    rows, failures = compare(spec, runs["parent"], runs["change"])
    print_table(rows)
    for failure in failures:
        print(f"ab.py: WORSE: {failure}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
