"""Compare the command-line output of a base commit with the working tree.

Usage, from the root of a checkout::

    python3 scripts/same_output.py --base HEAD

``--base`` is the commit to compare against: ``HEAD`` while the change is
uncommitted, its parent once it is committed. The base is exported with
``ab_bench.export_base`` into a temporary directory; the working tree's
``src/`` is run in place.

Each side runs the same commands on the same input files, each in a fresh
directory of its own:

* ``quasiherm run`` on the four builtins, at their defaults and with
  ``--steps 300 --hbar 0.7``;
* ``quasiherm run`` on the scenario files the benchmark generates for each
  workload (``perfbench/scenarios.generate``) at seeds 1 and 2;
* ``quasiherm run`` on files that the admission gates refuse: a metric that
  is not positive definite, an ill-conditioned root, a direct-mode generator
  that is not quasi-Hermitian, entries too large for a double and runs whose
  metric or propagator overflows;
* ``quasiherm demo`` on the four builtins, and ``quasiherm list``.

For ``run`` the CSV bytes, standard output, standard error and exit code are
compared; for ``demo`` and ``list`` all but the CSV. The path of each side's
tree is replaced by ``<tree>`` in both streams first, so a warning that
names a source file compares equal when its line is the same. Every
difference is printed; the exit code is 1 if there is any, 0 if not.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_bench import ROOT, export_base  # noqa: E402

BUILTINS = ("constant-metric-2d", "growing-metric-2d", "nonhermitian-dyson",
            "scalar-exponential")
SEEDS = (1, 2)
MAIN = "import sys; from quasiherm.cli import main; sys.exit(main())"

_SIGMA_X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
_EYE = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
_BUILTIN = {"kind": "builtin", "name": "growing-metric-2d"}

# name -> scenario file text; every one of them ends in exit 3
GATE_FILES = {
    "not-positive-definite": {"dimension": 2, "model": {
        "kind": "pair", "h": _SIGMA_X,
        "theta": {"times": [0.0, 1 / 3, 2 / 3, 1.0], "snapshots": [
            [[[1, 0], [0, 0]], [[0, 0], [1 - 2 * k / 3, 0]]] for k in range(4)]}}},
    "ill-conditioned": {"dimension": 2, "tolerances": {"cond_max": 10.0}, "model": {
        "kind": "pair", "h": _SIGMA_X, "theta": [[[1, 0], [0, 0]], [[0, 0], [1e-4, 0]]]}},
    "direct-mode-violation": {"dimension": 2, "model": {
        "kind": "direct", "H": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "theta": _EYE}},
    "theta-overflows": {"model": _BUILTIN, "time": {"end": 1e300, "steps": 20}},
    "u-overflows-in-step-map": {"model": _BUILTIN, "time": {"steps": 20}, "hbar": 1e-300},
    "u-overflows-in-walk": {"model": _BUILTIN, "time": {"steps": 20}, "hbar": 1e-10},
    # JSON numbers too large for a double parse as inf
    "h-entry-overflows": ('{"dimension": 2, "model": {"kind": "pair", '
                          '"h": [[[0, 0], [1, 0]], [[1, 0], [0, 1e309]]], "theta": '
                          + json.dumps(_EYE) + '}}'),
    "initial-state-entry-overflows": ('{"model": ' + json.dumps(_BUILTIN)
                                      + ', "initial_state": [[1, 0], [0, 1e309]]}'),
}


def write_inputs(inputs: str) -> list[tuple[str, list[str]]]:
    """Write the scenario files under inputs; return (label, command line) pairs."""
    sys.path.insert(0, ROOT)
    from perfbench import scenarios

    cases = [("list", ["list"])]
    for name in BUILTINS:
        cases += [(f"run {name}", ["run", "--scenario", name]),
                  (f"run {name} --steps 300 --hbar 0.7",
                   ["run", "--scenario", name, "--steps", "300", "--hbar", "0.7"]),
                  (f"demo {name}", ["demo", "--scenario", name])]
    for workload in scenarios.WORKLOADS:
        for seed in SEEDS:
            out_dir = os.path.join(inputs, f"{workload}-seed{seed}")
            for entry in scenarios.generate(workload, seed, out_dir):
                cases.append((f"run {workload} seed {seed} {entry['name']}",
                              ["run", "--scenario", entry["path"]]))
    for name, doc in GATE_FILES.items():
        path = os.path.join(inputs, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        cases.append((f"run {name}", ["run", "--scenario", path]))
    return cases


def run_case(tree: str, args: list[str], work: str) -> dict:
    """One command on one side, in the empty directory work; what it left behind."""
    os.makedirs(work)
    if args[0] == "run":
        args = args + ["--out", "out.csv"]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", MAIN, *args], cwd=work, env=env,
                          capture_output=True, text=True)
    out = {"exit code": str(proc.returncode),
           "stdout": proc.stdout.replace(tree, "<tree>"),
           "stderr": proc.stderr.replace(tree, "<tree>")}
    csv = os.path.join(work, "out.csv")
    if os.path.exists(csv):
        with open(csv, encoding="utf-8", newline="") as fh:
            out["csv"] = fh.read()
    return out


def differences(label: str, base: dict, new: dict) -> list[str]:
    out = []
    for what in sorted(set(base) | set(new)):
        a, b = base.get(what), new.get(what)
        if a == b:
            continue
        if a is None or b is None:
            out.append(f"{label}: {what} only on the {'base' if b is None else 'new'} side")
            continue
        diff = list(difflib.unified_diff(a.splitlines(), b.splitlines(), "base", "new",
                                         lineterm="", n=0))
        shown = diff[2:22] + ([f"... {len(diff) - 22} more lines"] if len(diff) > 22 else [])
        out.append(f"{label}: {what} differs\n" + "\n".join("    " + d for d in shown))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare the working tree with")
    args = parser.parse_args(argv)

    found = []
    with tempfile.TemporaryDirectory(prefix="same_output-") as tmp:
        trees = {"base": os.path.join(tmp, "base"), "new": ROOT}
        sha = export_base(args.base, trees["base"])
        inputs = os.path.join(tmp, "inputs")
        cases = write_inputs(inputs)
        for i, (label, cmd) in enumerate(cases):
            seen = {side: run_case(tree, cmd, os.path.join(tmp, "work", side, str(i)))
                    for side, tree in trees.items()}
            found += differences(label, seen["base"], seen["new"])
    for line in found:
        print(line)
    print(f"{len(cases)} commands compared with {sha[:12]}: "
          f"{len(found)} difference{'s' if len(found) != 1 else ''}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
