"""Paired A/B runs of the benchmark: a base commit against the working tree.

Usage, from the root of a checkout::

    python3 scripts/ab_bench.py --base HEAD --out BENCH_6.json

``--base`` is the commit to compare against: ``HEAD`` while the change is
uncommitted, its parent once it is committed. The base is exported with
``git archive`` into a temporary directory, and the working tree's ``src/``
and ``perfbench/`` are copied into another when the script starts, so
editing the checkout during a series does not change what is measured.

A series is ten pairs. Each pair runs ``perfbench/run.py --trace 0`` once
on each side with the same fresh seed (``--first-seed`` + pair index), for
every workload of ``BENCHMARK.json`` and for its ``run_seconds``; the side
that goes first alternates from pair to pair, so a slow drift of the
host's speed falls on both sides alike. Every run must report
``"correct": true`` and no failed operation.

The output file holds, per workload and metric, the median and quartiles of
each side, the relative change of the medians, and in how many pairs the
working tree was better. Each end-to-end metric with a ``bound`` in
``BENCHMARK.json`` also gets a verdict: ``regressed`` when the new median is
worse than the base median by more than the bound, taken as a fraction of the
base median; ``unresolved`` when the base's quartiles lie further apart than
that, so the series cannot tell; ``ok`` otherwise. The exit code is 1 if any
metric regressed, 0 if not. Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_base(rev: str, dest: str) -> str:
    """Write the tree of rev into dest; return its full commit id."""
    sha = _git("rev-parse", "--verify", rev + "^{commit}")
    archive = subprocess.run(["git", "-C", ROOT, "archive", sha], check=True,
                             capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **safe)
    return sha


def copy_working_tree(dest: str) -> None:
    """Copy the files the benchmark runs on: src/ and perfbench/ (not its _work/)."""
    ignore = shutil.ignore_patterns("_work", "__pycache__")
    for sub in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, sub), os.path.join(dest, sub), ignore=ignore)


def run_bench(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in tree; its metric values, or an error."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited with "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} in {tree} is not correct: {lines[-1]}")
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(summary: dict, bound: float, lower_is_better: bool) -> str:
    """'unresolved', 'regressed' or 'ok' for one metric's summary against bound,
    a fraction of the base median."""
    base = summary["base"]
    if base["q3"] - base["q1"] > bound * abs(base["median"]):
        return "unresolved"
    worse = summary["change"] if lower_is_better else -summary["change"]
    return "regressed" if worse > bound else "ok"


def summarize(runs: dict, lower_is_better: dict, bounds: dict) -> dict:
    """runs[workload][side] is a list of {metric: value}, paired by index;
    bounds maps the metrics that have a bound to it."""
    out = {}
    for workload, sides in runs.items():
        out[workload] = {}
        for metric in sides["base"][0]:
            base = [r[metric] for r in sides["base"]]
            new = [r[metric] for r in sides["new"]]
            sign = 1.0 if lower_is_better.get(metric, True) else -1.0
            b, n = quartiles(base), quartiles(new)
            out[workload][metric] = {
                "base": b, "new": n,
                "change": (n["median"] - b["median"]) / b["median"],
                "wins": sum(sign * (y - x) < 0 for x, y in zip(base, new)),
                "pairs": len(base)}
            if metric in bounds:
                s = out[workload][metric]
                s["bound"] = bounds[metric]
                s["verdict"] = verdict(s, bounds[metric], lower_is_better.get(metric, True))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare the working tree with")
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    lower_is_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"] if "bound" in m}

    runs = {w: {"base": [], "new": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        trees = {"base": os.path.join(tmp, "base"), "new": os.path.join(tmp, "new")}
        base_sha = export_base(args.base, trees["base"])
        copy_working_tree(trees["new"])
        for i in range(PAIRS):
            seed = args.first_seed + i
            order = ("base", "new") if i % 2 == 0 else ("new", "base")
            for workload in workloads:
                for side in order:
                    values = run_bench(trees[side], workload, seed, seconds)
                    runs[workload][side].append(values)
                    print(f"pair {i + 1}/{PAIRS} {workload} {side}: "
                          + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                          file=sys.stderr, flush=True)

    record = {
        "base": base_sha,
        "new": {"head": _git("rev-parse", "HEAD"),
                "dirty": bool(_git("status", "--porcelain", "--", "src", "perfbench"))},
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "settings": {"pairs": PAIRS, "seconds": seconds,
                     "seeds": [args.first_seed, args.first_seed + PAIRS - 1],
                     "trace": 0},
        "note": ("medians and quartiles of each side over the pairs; change is "
                 "(new - base) / base of the medians; wins counts the pairs in "
                 "which new was better; verdict judges the change against "
                 "bound, a fraction of the base median"),
        "workloads": summarize(runs, lower_is_better, bounds),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for workload, metrics in record["workloads"].items():
        for metric, s in metrics.items():
            print(f"{workload:18s} {metric:12s} base {s['base']['median']:.4g} "
                  f"new {s['new']['median']:.4g} ({100 * s['change']:+.1f}%) "
                  f"wins {s['wins']}/{s['pairs']} {s.get('verdict', '')}".rstrip())
    regressed = any(s.get("verdict") == "regressed"
                    for metrics in record["workloads"].values() for s in metrics.values())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
