"""Check that traced call counts repeat exactly across runs.

Runs ``run.py --trace 1`` twice per workload on the same seed and compares
every ``*_calls`` metric and ``schedules.roots_per_point``; later changes cite
these as counts, so they must not drift between runs. Usage, from the root
of a checkout::

    python3 perfbench/check_counts.py [--seed N] [--seconds S]

Exits 0 when every count matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import scenarios

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def counts(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "1"],
                         capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run not correct:\n{out.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith("_calls") or k == "schedules.roots_per_point"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced counts must repeat exactly")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for wl in sorted(scenarios.WORKLOADS):
        a, b = (counts(wl, args.seed, args.seconds) for _ in range(2))
        diff = {k: (a[k], b[k]) for k in a if a[k] != b[k]}
        ok &= not diff
        print(f"{wl}: {len(a)} counts, " + (f"DIFFER {diff}" if diff else "identical"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
