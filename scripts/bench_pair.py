#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, written to BENCH_<label>.json.

Runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` in a
parent tree and a change tree, N pairs in all, alternating which side runs
first.  Both trees are git checkouts with no uncommitted change under
``src/``.  The JSON file keeps each side's commit and ``src`` tree id,
every run's result and record lines (the record carries nproc, the pinned
BLAS thread variables and the BLAS build), each side's median and
quartiles per end-to-end metric, and the number of pairs the change won on
the named metric (ties count for neither side).  For every end-to-end
metric it also writes the change's relative change of the median (signed,
worse > 0) and a verdict against the metric's ``bound`` in BENCHMARK.json,
and prints one line per metric:

- ``unresolved`` when the parent's IQR / median exceeds the bound, unless
  every change run beats every parent run;
- otherwise ``worse`` when the median is worse by more than the bound,
  else ``ok``.

A run's ``setup_s`` includes a fresh import of the package, which is two to
three times slower when no bytecode is cached, so the file also records the
session's ``PYTHONDONTWRITEBYTECODE`` and, per tree, whether
``src/quadboson/__pycache__`` held ``.pyc`` files for this interpreter's
cache tag before the first run.  Sessions that differ there are not
comparable.

Usage, with the two commits cloned side by side:

    git clone -q . ../parent && git -C ../parent checkout -q HEAD~1
    python scripts/bench_pair.py --parent ../parent --change . \\
        --workload sweep-grid --seed 1 --pairs 10 --metric wall_s --label sweep-grid-seed1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 900.0


def source_ids(tree: Path) -> dict:
    """The checkout's commit and the git tree id of its ``src`` directory."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    if git("status", "--porcelain", "--", "src"):
        sys.exit(f"{tree}: uncommitted changes under src/; the ids would not name what ran")
    return {"git_commit": git("rev-parse", "HEAD"), "src_tree": git("rev-parse", "HEAD:src")}


def has_bytecode(tree: Path) -> bool:
    """Whether the tree's package holds ``.pyc`` files for this interpreter."""
    cache = tree / "src" / "quadboson" / "__pycache__"
    return any(cache.glob(f"*.{sys.implementation.cache_tag}.pyc"))


def run_once(tree: Path, args) -> dict:
    """One benchmark run in ``tree``; returns its record and result objects."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    *_, record, result = proc.stdout.strip().splitlines()
    return {"record": json.loads(record)["record"], "result": json.loads(result)}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Relative change of the change's median over the parent's, signed so
    that worse > 0, and its verdict against ``bound`` (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    p = summary(parent)
    relative = sign * (summary(change)["median"] - p["median"]) / p["median"]
    beats_every_run = max(sign * v for v in change) < min(sign * v for v in parent)
    if p["iqr"] / p["median"] > bound and not beats_every_run:
        word = "unresolved"
    elif relative > bound:
        word = "worse"
    else:
        word = "ok"
    return {"bound": bound, "relative_change": relative, "verdict": word}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent source tree")
    ap.add_argument("--change", type=Path, required=True, help="change source tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--metric", default="wall_s", help="end-to-end metric to count wins on")
    ap.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    args = ap.parse_args(argv)
    if args.pairs < 2:  # the quartiles of each side need two runs
        ap.error(f"--pairs must be at least 2, got {args.pairs}")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.metric not in better:
        ap.error(f"--metric must be one of {sorted(better)}")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    trees = {side: source_ids(tree) for side, tree in sides.items()}
    bytecode = {side: has_bytecode(tree) for side, tree in sides.items()}
    runs = []
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            run = run_once(sides[side], args)
            runs.append({"pair": pair, "side": side, "first": side == order[0], **run})
            value = run["result"]["metrics"][args.metric]["value"]
            print(f"pair {pair} {side:6s} {args.metric} {value:.6g}", file=sys.stderr)

    def values(side, metric):
        return [r["result"]["metrics"][metric]["value"] for r in runs if r["side"] == side]

    sign = 1.0 if better[args.metric] == "lower" else -1.0
    parent_v, change_v = values("parent", args.metric), values("change", args.metric)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent_v, change_v))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent_v, change_v))
    stats = {side: {m: summary(values(side, m)) for m in better} for side in sides}
    verdicts = {m: verdict(values("parent", m), values("change", m), better[m], bound[m])
                for m in better}
    gap = abs(stats["change"][args.metric]["median"] - stats["parent"][args.metric]["median"])
    doc = {
        "label": args.label,
        "command": f"perfbench/run.py --workload {args.workload} --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 0",
        "trees": trees,
        "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "bytecode_before_first_run": bytecode,
        "pairs": args.pairs,
        "metric": args.metric,
        "better": better[args.metric],
        "change_wins": wins,
        "change_losses": losses,
        "median_gap_exceeds_parent_iqr": gap > stats["parent"][args.metric]["iqr"],
        "stats": stats,
        "verdicts": verdicts,
        "runs": runs,
    }
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for m, v in verdicts.items():
        print(f"{m}: parent median {stats['parent'][m]['median']:.6g} (IQR "
              f"{stats['parent'][m]['iqr']:.3g}), change median "
              f"{stats['change'][m]['median']:.6g}, {v['relative_change']:+.1%} "
              f"(bound {v['bound']:.0%}): {v['verdict']}")
    print(f"{args.metric}: change won {wins} of {args.pairs} pairs, parent median "
          f"{stats['parent'][args.metric]['median']:.6g} (IQR "
          f"{stats['parent'][args.metric]['iqr']:.3g}), change median "
          f"{stats['change'][args.metric]['median']:.6g}; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
