#!/usr/bin/env python3
"""Paired perfbench runs of a parent commit against this checkout.

    python3 tools/perfpair.py --workload import_csv [--pairs 5] [--seconds 20]
        [--seed 7] [--trace 0|1] [--parent REV] [--workdir DIR] [--json PATH]

The parent commit (default: HEAD's first parent, or REV) is exported with
`git archive` into WORKDIR/parent-<sha>, a plain snapshot that leaves no
worktree registered in the repository, and is reused on later calls. Each
tree's `perfbench/run.py` builds into its own directory under WORKDIR, so
neither tree's build is shared or overwritten. The runs alternate parent and
change, swapping which goes first on every pair (ABBA), so slow drift of the
host lands on both sides alike. The host's CPU steal share is read from
/proc/stat around every run and printed with it; a pair with high steal is
worth rerunning.

For every metric the report prints each side's median and quartiles, the
change/parent ratio of the medians, and in how many pairs each side won (by
the metric's direction in BENCHMARK.json). Nothing under perfbench/ is
touched. Exit status is non-zero when a run fails.
"""

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


def export_parent(rev, workdir):
    """Returns the directory holding a snapshot of `rev`, exporting it once."""
    sha = git("rev-parse", rev)
    tree = os.path.join(workdir, "parent-" + sha[:12])
    if not os.path.exists(os.path.join(tree, "perfbench", "run.py")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                                 check=True, stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
    return tree, sha


def cpu_times():
    """(steal, total) jiffies of all CPUs, from the first line of /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]; the
    # guest times are already counted in user and nice.
    return fields[7], sum(fields[:8])


def run_once(tree, build_dir, args):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    command = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    steal0, total0 = cpu_times()
    run = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    steal1, total1 = cpu_times()
    steal = (steal1 - steal0) / max(1, total1 - total0)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        sys.exit(f"perfpair: run failed in {tree} (exit {run.returncode})")
    result = json.loads(run.stdout.rstrip("\n").split("\n")[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}, steal


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parent", default="HEAD^")
    parser.add_argument("--workdir", default=os.path.join(ROOT, ".bench_build", "perfpair"))
    parser.add_argument("--json", help="also write every run's metrics here")
    args = parser.parse_args()

    workdir = os.path.abspath(args.workdir)
    parent_tree, parent_sha = export_parent(args.parent, workdir)
    trees = {
        "parent": (parent_tree, os.path.join(workdir, "build-parent-" + parent_sha[:12])),
        "change": (ROOT, os.path.join(workdir, "build-change")),
    }
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}

    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        steals = []
        for side in order:
            metrics, steal = run_once(*trees[side], args)
            runs[side].append(metrics)
            steals.append(f"{side} steal {100 * steal:.1f}%")
        print(f"pair {pair + 1}/{args.pairs}: " + ", ".join(steals), flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}: "
          f"parent {parent_sha[:12]} against this checkout, {args.pairs} pairs")
    print(f"{'metric':34} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'change/parent':>13} {'wins p/c':>9}")
    for name in sorted(runs["parent"][0]):
        parent = [m[name] for m in runs["parent"]]
        change = [m[name] for m in runs["change"]]
        lower = better.get(name, "lower") == "lower"
        change_wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        parent_wins = sum((p < c) if lower else (p > c) for p, c in zip(parent, change))
        pq = quartiles(parent)
        cq = quartiles(change)
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        print(f"{name:34} {pq[1]:>12.4g} [{pq[0]:.4g}, {pq[2]:.4g}]".ljust(66) +
              f"{cq[1]:>12.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(31) +
              f"{ratio:>13.3f} {parent_wins:>4}/{change_wins}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "parent": parent_sha, "runs": runs}, f, indent=1)


if __name__ == "__main__":
    main()
