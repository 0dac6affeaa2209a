#!/usr/bin/env python3
"""Alternating-pair comparison of two commits on the end-to-end benchmark.

Run from the repository root:

    python3 tools/bench_pairs.py --base HEAD~1 --head HEAD \\
        --workload soak-1m --pairs 10 --first-seed 41

Both commits are checked out as detached `git worktree`s (under --workdir
when given, kept and reused there; otherwise in a temporary directory that
is removed afterwards). Each pair runs `bench_e2e/run.py --trace 0` once in
each worktree on the same seed, as a black box, for the run length that
BENCHMARK.json sets (run_seconds), and the side that runs first alternates
from pair to pair. Pair i uses seed --first-seed + i.

For every end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles, the median ratio head/base, and the pairs the head won
(ties count for neither). The verdict follows the benchmark's rules:

  gain        the head won at least 9/10 of the pairs and the medians
              differ, in the metric's better direction, by more than the
              base's interquartile range
  regression  the head's median is worse than the base's by more than
              the metric's bound
  unresolved  not a regression, but the base's runs spread wider than
              the bound (unless every head run beats every base run)
  same        none of the above

A gain needs at least 10 pairs. The tool also reports failed operations
and on how many seeds the two sides printed the same report digest and
the same metrics digest (the metrics CSV includes the engine's event
counts, so a change that saves events moves that digest alone). Exit
status is 1 when a run is incorrect, an operation fails, or a metric
regresses.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = re.compile(r"digest crc32c report=(\S+) metrics=(\S+)")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(workdir, name, rev):
    """A detached worktree of `rev` at workdir/name, reused if present."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    path = workdir / name
    if path.is_dir():
        git("checkout", "--quiet", "--detach", commit, cwd=path)
    else:
        git("worktree", "add", "--quiet", "--detach", str(path), commit)
    return path, commit


def run_once(tree, workload, seed, seconds):
    cmd = [sys.executable, "bench_e2e/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"bench_pairs: {' '.join(cmd)} failed in {tree}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next((m.groups() for m in map(DIGEST.search, lines) if m), (None, None))
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digest": digest}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summary(values):
    return "{:.6g} [{:.6g}, {:.6g}]".format(statistics.median(values), *quartiles(values))


def verdict(spec, base, head):
    lower = spec["better"] == "lower"
    better = (lambda h, b: h < b) if lower else (lambda h, b: h > b)
    won = sum(better(h, b) for h, b in zip(head, base))
    mb, mh = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    worse_by = (mh - mb) / mb if lower else (mb - mh) / mb
    if (len(base) >= 10 and won * 10 >= 9 * len(base) and better(mh, mb)
            and abs(mh - mb) > q3 - q1):
        v = "gain"
    elif worse_by > spec["bound"]:
        v = "regression"
    elif (q3 - q1) / mb > spec["bound"] and not all(better(h, b) for h in head for b in base):
        v = "unresolved"
    else:
        v = "same"
    return won, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD~1", help="parent revision (default HEAD~1)")
    ap.add_argument("--head", default="HEAD", help="changed revision (default HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=41)
    ap.add_argument("--workdir", type=Path, default=None,
                    help="keep the worktrees here and reuse their builds")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    workdir.mkdir(parents=True, exist_ok=True)
    trees = {}
    try:
        for side, rev in (("base", args.base), ("head", args.head)):
            trees[side] = checkout(workdir, side, rev)
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(trees[side][0], args.workload, seed, seconds))
            b, h = runs["base"][-1]["metrics"], runs["head"][-1]["metrics"]
            print(f"pair {i + 1} seed {seed} ({order[0]} first): "
                  + ", ".join(f"{k} {b[k]:.6g} -> {h[k]:.6g}" for k in b), flush=True)
    finally:
        if args.workdir is None:
            for path, _ in trees.values():
                git("worktree", "remove", "--force", str(path))
            shutil.rmtree(workdir, ignore_errors=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}, run.py --seconds {seconds:g} --trace 0")
    print(f"  base {args.base} = {trees['base'][1][:12]}, head {args.head} = "
          f"{trees['head'][1][:12]}")
    bad = False
    for side in ("base", "head"):
        incorrect = sum(not r["correct"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        print(f"  {side}: {incorrect} incorrect runs, {failed} failed operations")
        bad |= incorrect > 0 or failed > 0
    for i, kind in enumerate(("report", "metrics")):
        same = sum(b["digest"][i] == h["digest"][i] for b, h in zip(runs["base"], runs["head"]))
        print(f"  {kind} digests equal on {same}/{args.pairs} seeds")
    print(f"  {'metric':<12} {'base median [q1, q3]':>40} {'head median [q1, q3]':>40}"
          f" {'ratio':>7} {'won':>6}  verdict")
    for m in spec["end_to_end"]:
        base = [r["metrics"][m["name"]] for r in runs["base"]]
        head = [r["metrics"][m["name"]] for r in runs["head"]]
        won, v = verdict(m, base, head)
        bad |= v == "regression"
        ratio = statistics.median(head) / statistics.median(base)
        print(f"  {m['name']:<12} {summary(base):>40} {summary(head):>40} {ratio:>7.3f}"
              f" {won:>3}/{args.pairs:<2}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
