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
  is not positive definite, an ill-conditioned root (at t = 0 for d = 2, and at
  an interior t for d = 4, past admitted roots that the certificate of
  ``linalg.inverse`` misses), a direct-mode generator
  that is not quasi-Hermitian (also run with ``--steps 300``), entries too
  large for a double or given as JSON bools, grids on which RK4 is unstable
  (two of them for spectra that a column bound on ||h||_2 would miss), runs
  whose metric or propagator would overflow, and a sampled metric on two
  steps, too few for the central difference of omega (also run with
  ``--steps 3``, which the gates admit), tolerances that are zero (a JSON
  integer) or negative, an ``hbar`` given as the string ``"1"``, as ``-1``
  or as JSON ``NaN``, an ``initial_state`` with a JSON ``NaN`` entry, a
  ``time.steps`` of ``2.5``, a ``time.start`` of ``true``, a ``time.end`` of
  ``1e999`` and ``tolerances`` given as ``[]`` (each refused when its TimeGrid
  or Scenario is built, with the text that the same one built in code gets),
  a ``dimension`` that is not theta's, a metric
  refused both at a half-time that only the finest grid of convergence_order
  has and, later, on every grid, a sampled h whose interpolant's slopes
  overflow, and a file that is not UTF-8;
* ``quasiherm run`` on three sampled pair files whose omega_dot rows at the
  grid's ends once hung on rounding or on the metric's span, on a d = 3
  pair file without ``initial_state``, on a d = 4 sampled pair file (the d = 3
  and d = 4 files lie on either side of ``linalg.SMALL_DIM``, where products
  change from rank-one updates to ``np.matmul``) and on a d = 6 pair file whose
  finest convergence grid is walked in several blocks (EDGE_FILES);
* ``quasiherm demo`` on the four builtins, and ``quasiherm list``;
* ``verify.convergence_order`` with both probes on the four builtins at 250
  steps, on the benchmark's convergence-d8 files, the EDGE_FILES and every
  gate file: each probe's order printed with ``%.17g``, or the text of the
  exception that stopped it.

For ``run`` the CSV bytes, standard output, standard error and exit code are
compared; for the other commands all but the CSV. The path of each side's
tree is replaced by ``<tree>`` in both streams first, so a warning that
names a source file compares equal when its line is the same. Every
difference is printed; the exit code is 1 if there is any, 0 if not. Two
CSVs with the same header and row count are compared number by number: for
each column that differs, the count of rows that differ, the largest
|new - base| / |base| (inf where a value turned nan or left zero) and the t of
its row, and the largest |new - base|. Other differences are shown as the first lines of a text diff.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_bench import ROOT, export_base  # noqa: E402

BUILTINS = ("constant-metric-2d", "growing-metric-2d", "nonhermitian-dyson",
            "scalar-exponential")
SEEDS = (1, 2)
MAIN = "import sys; from quasiherm.cli import main; sys.exit(main())"
# argv: a scenario (builtin name or path), then optionally --steps N
CONVERGE = """
import sys
from quasiherm import cli, verify
args = sys.argv[1:]
steps = int(args[args.index("--steps") + 1]) if "--steps" in args else None
for probe in ("u", "ur_corr"):
    try:
        print(probe, "%.17g" % verify.convergence_order(cli.load_scenario(args[0], steps), probe))
    except Exception as e:
        print(probe, f"{type(e).__name__}: {e}")
"""

_SIGMA_X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
_EYE = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
_BUILTIN = {"kind": "builtin", "name": "growing-metric-2d"}


def _pairs(m):
    """A matrix as a scenario file gives it: [re, im] pairs, row by row."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]

# name -> scenario file (a JSON document, its text or its bytes); every one of
# them ends in exit 3
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
    "rk4-unstable": {"model": _BUILTIN, "time": {"steps": 20}, "hbar": 1e-5},
    "bool-entries": {"dimension": 2, "initial_state": [[True, 0], [0, 0]], "model": {
        "kind": "pair", "h": [[[False, 0], [True, 0]], [[1, 0], [0, 0]]], "theta": _EYE}},
    # dt ||h||_2 / hbar = 3, but ||h||_F / sqrt(2) = 2.12 stays below 2 sqrt(2)
    "lopsided-spectrum": {"dimension": 2, "time": {"end": 60.0, "steps": 20}, "model": {
        "kind": "pair", "h": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "theta": _EYE}},
    # h = (1/2) [[1, 1], [1, 1]]: dt ||h||_2 / hbar = 3, but every column norm of h
    # is 1/sqrt(2), so a column bound reads 2.12
    "spread-spectrum": {"dimension": 2, "time": {"end": 60.0, "steps": 20}, "model": {
        "kind": "pair", "h": [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]], "theta": _EYE}},
    # a sampled, moving metric on two steps: the one-sided rows of the central
    # difference of omega would read past the grid's other end
    "two-step-sampled-metric": {"dimension": 2, "time": {"steps": 2}, "model": {
        "kind": "pair", "h": _SIGMA_X,
        "theta": {"times": [0.0, 1 / 3, 2 / 3, 1.0], "snapshots": [
            [[[1 + k / 3, 0], [0, 0]], [[0, 0], [1, 0]]] for k in range(4)]}}},
    # tolerances are refused as given: a JSON integer 0 is named as 0, not 0.0
    "tolerance-integer-zero": {"model": _BUILTIN, "tolerances": {"qh": 0}},
    "negative-naive-floor": {"model": _BUILTIN, "tolerances": {"naive_floor": -1e-3}},
    # hbar is checked as a tolerance is, and initial_state's entries must be finite
    "hbar-string": {"model": _BUILTIN, "hbar": "1"},
    "hbar-negative": {"model": _BUILTIN, "hbar": -1},
    "hbar-nan": '{"model": ' + json.dumps(_BUILTIN) + ', "hbar": NaN}',
    # the time fields are checked by TimeGrid, and the tolerances' section by Scenario
    "time-steps-fraction": {"model": _BUILTIN, "time": {"steps": 2.5}},
    "time-start-bool": {"model": _BUILTIN, "time": {"start": True}},
    "time-end-inf": '{"model": ' + json.dumps(_BUILTIN) + ', "time": {"end": 1e999}}',
    "tolerances-not-object": {"model": _BUILTIN, "tolerances": []},
    "initial-state-nan-entry": ('{"model": ' + json.dumps(_BUILTIN)
                                + ', "initial_state": [[1, 0], [NaN, 0]]}'),
    "theta-not-dimension": {"dimension": 3, "model": {"kind": "pair", "h": _SIGMA_X,
                                                      "theta": _EYE}},
    # h snapshots alternating +-1e308 are finite, but the slopes of their
    # interpolant overflow, so h is nan from t = 0 on
    "h-slopes-overflow": {"dimension": 2, "time": {"steps": 100}, "model": {
        "kind": "pair", "theta": _EYE, "h": {"times": [0.0, 0.25, 0.5, 0.75, 1.0], "snapshots": [
            [[[0, 0], [(-1) ** k * 1e308, 0]], [[(-1) ** k * 1e308, 0], [0, 0]]]
            for k in range(5)]}}},
    "not-utf-8": b'\xff\xfe{"model": 1}',
}


def metric_dips_off_the_coarse_grids(steps):
    """A d = 2 pair file of `steps` steps whose metric diag(1, q(t)) is refused on
    two spans. q is the quadratic 10 (t - t*)^2 - eps up to t = 0.5, which its
    cubic Hermite interpolant reproduces: it dips below zero only around
    t* = 5 / (8 steps), a half-time of the grid of 4 steps steps that the grids
    of steps and 2 steps steps lack, and is positive at every other point of
    those grids. From t = 0.75 on q is -1, so every grid is refused near
    t = 0.59. convergence_order must name that refusal of the grid of steps
    steps, not the earlier one of the finest grid."""
    h_f = 1.0 / (8 * steps)   # the half-step of the grid of 4 steps steps
    t_star, eps = 5 * h_f, 5.0 * h_f * h_f
    times = np.linspace(0.0, 1.0, 9)
    q = [10.0 * (t - t_star) ** 2 - eps if t <= 0.5 else -1.0 for t in times]
    return {"dimension": 2, "time": {"steps": steps}, "model": {
        "kind": "pair", "h": _SIGMA_X, "theta": {"times": times.tolist(), "snapshots": [
            [[[1, 0], [0, 0]], [[0, 0], [v, 0]]] for v in q]}}}


# at d = 2 the grid of 4 x 2100 steps is walked in four blocks, the dip in the first
GATE_FILES["metric-dips-off-the-coarse-grids"] = metric_dips_off_the_coarse_grids(2100)


def ill_conditioned_mid_span():
    """A d = 4 sampled pair file with cond_max 50, whose roots are inverted on
    the np.matmul side of linalg.SMALL_DIM. theta(t) = R diag(1, 2, 3, q(t)) R,
    R = I - J/2 (J all ones) a reflection, and q(t) = 0.01 - 0.0396 t (1 - t),
    a quadratic that the interpolant reproduces: lambda_min/lambda_max = q/3 is
    1/300 at both ends and 1/30000 at t = 0.5. cond(omega) = sqrt(3/q) is 17.3
    at t = 0 and passes 50 near t = 1/3, the interior t that the refusal names.
    The certificate 2 ||omega||_F ||omega^-1||_F <= 50 holds at t = 0 (49.5) and
    fails from about t = 0.006 on, so cond_2norm admits the roots between."""
    r = np.eye(4) - 0.5
    times = np.linspace(0.0, 1.0, 9)
    h = np.eye(4, k=1) + np.eye(4, k=-1)
    return {"dimension": 4, "time": {"steps": 100}, "tolerances": {"cond_max": 50},
            "model": {"kind": "pair", "h": _pairs(h), "theta": {
                "times": times.tolist(), "snapshots": [
                    _pairs(r @ np.diag([1.0, 2.0, 3.0, 0.01 - 0.0396 * t * (1 - t)]) @ r)
                    for t in times]}}}


GATE_FILES["ill-conditioned-mid-span"] = ill_conditioned_mid_span()


def _moving_pair(start, end, steps, snapshots_span=None):
    """A d = 2 pair file: h = sigma_x and theta(t) = diag(1, 1 + t^2) + 0.1 t sigma_x
    on 9 snapshots over snapshots_span (the grid's span by default)."""
    times = np.linspace(*(snapshots_span or (start, end)), 9)
    return {"dimension": 2, "time": {"start": start, "end": end, "steps": steps}, "model": {
        "kind": "pair", "h": _SIGMA_X, "theta": {"times": times.tolist(), "snapshots": [
            [[[1, 0], [0.1 * t, 0]], [[0.1 * t, 0], [1 + t * t, 0]]] for t in times]}}}


def _sampled_pair(dim, steps, seed):
    """A pair file: h(t) = h0 + t a and theta(t) = Om(t)^dagger Om(t), Om(t) =
    3 I + Om0 + t Om1, random (seeded) and sampled on 9 snapshots over [0, 1]."""
    rng = np.random.default_rng(seed)

    def gaussian(scale):
        return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

    h0, a = gaussian(1.0), gaussian(0.1)
    om0, om1 = 3.0 * np.eye(dim) + gaussian(0.2), gaussian(0.2)
    times = np.linspace(0.0, 1.0, 9)
    oms = [om0 + t * om1 for t in times]
    return {"dimension": dim, "time": {"steps": steps}, "model": {"kind": "pair",
        "h": {"times": times.tolist(),
              "snapshots": [_pairs(h0 + h0.conj().T + t * (a + a.conj().T)) for t in times]},
        "theta": {"times": times.tolist(),
                  "snapshots": [_pairs(om.conj().T @ om) for om in oms]}}}


# name -> scenario file that the gates admit, each run and converged as it is:
# on the first two grids, a span test in floating point once gave node 1 (the
# first) or node N - 1 (the second) a one-sided omega_dot row; on the third the
# metric's span is wider than the grid's. The fourth, a d = 3 pair, gives no
# initial_state, so it starts from e0 of theta's size. The fifth, a d = 4 pair,
# is the least d whose products are np.matmul's (linalg.SMALL_DIM = 3), next to
# the fourth on the other side. The sixth, a d = 6 pair,
# is converged on grids of 200, 400 and 800 steps that all take the scan walk;
# the one walk of the 800-step grid is cut into blocks of 256 steps, so the
# coarser two grids' scans stay chunk-aligned only if those cuts are.
EDGE_FILES = {
    "moving-pair-0.5-0.8": _moving_pair(0.5, 0.8, 200),
    "moving-pair-0-5": _moving_pair(0.0, 5.0, 200),
    "moving-pair-wide-metric": _moving_pair(0.0, 1.0, 300, (-0.2, 1.2)),
    "pair-3d-default-state": {"dimension": 3, "time": {"steps": 200}, "model": {
        "kind": "pair", "h": [[[0, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [1, 0]],
                              [[0, 0], [1, 0], [0, 0]]],
        "theta": {"times": [0.0, 0.25, 0.5, 0.75, 1.0], "snapshots": [
            [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1 + t, 0], [0, 0]],
             [[0, 0], [0, 0], [1 + t * t, 0]]] for t in (0.0, 0.25, 0.5, 0.75, 1.0)]}}},
    "pair-4d-sampled": _sampled_pair(4, 200, 4),
    "pair-6d-cut-finest-grid": _sampled_pair(6, 200, 6),
}
# gate file -> the flags it is run with besides none
GATE_FLAGS = {"direct-mode-violation": ["--steps", "300"]}
# gate file -> flags on which the gates admit it
ADMITTED_FLAGS = {"two-step-sampled-metric": ["--steps", "3"]}


def write_inputs(inputs: str) -> list[tuple[str, list[str]]]:
    """Write the scenario files under inputs; return (label, command line) pairs."""
    sys.path.insert(0, ROOT)
    from perfbench import scenarios

    cases = [("list", ["list"])]
    for name in BUILTINS:
        cases += [(f"run {name}", ["run", "--scenario", name]),
                  (f"run {name} --steps 300 --hbar 0.7",
                   ["run", "--scenario", name, "--steps", "300", "--hbar", "0.7"]),
                  (f"demo {name}", ["demo", "--scenario", name]),
                  (f"convergence {name} --steps 250", ["convergence", name, "--steps", "250"])]
    for workload in scenarios.WORKLOADS:
        for seed in SEEDS:
            out_dir = os.path.join(inputs, f"{workload}-seed{seed}")
            for entry in scenarios.generate(workload, seed, out_dir):
                label = f"{workload} seed {seed} {entry['name']}"
                cases.append((f"run {label}", ["run", "--scenario", entry["path"]]))
                if workload == "convergence-d8":
                    cases.append((f"convergence {label}", ["convergence", entry["path"]]))
    for name, doc in EDGE_FILES.items():
        path = os.path.join(inputs, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        cases += [(f"run {name}", ["run", "--scenario", path]),
                  (f"convergence {name}", ["convergence", path])]
    gates = gate_cases(inputs)
    gates += [(f"run {name} {' '.join(flags)}",
               ["run", "--scenario", os.path.join(inputs, name + ".json"), *flags])
              for name, flags in ADMITTED_FLAGS.items()]
    # a gate case's command line is run --scenario PATH [flags]
    return cases + gates + [("convergence" + label[len("run"):], ["convergence", *args[2:]])
                            for label, args in gates]


def gate_cases(inputs: str) -> list[tuple[str, list[str]]]:
    """Write GATE_FILES under the existing directory inputs; return their
    (label, command line) pairs, one per run of GATE_FLAGS included."""
    cases = []
    for name, doc in GATE_FILES.items():
        path = os.path.join(inputs, name + ".json")
        doc = json.dumps(doc) if isinstance(doc, dict) else doc
        with open(path, "wb") as fh:
            fh.write(doc.encode("utf-8") if isinstance(doc, str) else doc)
        cases.append((f"run {name}", ["run", "--scenario", path]))
        if name in GATE_FLAGS:
            flags = GATE_FLAGS[name]
            cases.append((f"run {name} {' '.join(flags)}", ["run", "--scenario", path, *flags]))
    return cases


def run_case(tree: str, args: list[str], work: str) -> dict:
    """One command on one side, in the empty directory work; what it left behind."""
    os.makedirs(work)
    if args[0] == "run":
        args = args + ["--out", "out.csv"]
    code, args = (CONVERGE, args[1:]) if args[0] == "convergence" else (MAIN, args)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=work, env=env,
                          capture_output=True, text=True)
    out = {"exit code": str(proc.returncode),
           "stdout": proc.stdout.replace(tree, "<tree>"),
           "stderr": proc.stderr.replace(tree, "<tree>")}
    csv = os.path.join(work, "out.csv")
    if os.path.exists(csv):
        with open(csv, encoding="utf-8", newline="") as fh:
            out["csv"] = fh.read()
    return out


def csv_differences(base: str, new: str) -> list[str] | None:
    """One line per column that differs between two CSV texts; None when their
    headers or row counts differ."""
    a, b = ([line.split(",") for line in text.splitlines()] for text in (base, new))
    if len(a) != len(b) or a[0] != b[0]:
        return None
    x, y = (np.array(rows[1:], dtype=float) for rows in (a, b))
    differ = np.array(a[1:]) != np.array(b[1:])
    out = []
    for j, name in enumerate(a[0]):
        rows = np.flatnonzero(differ[:, j])
        if rows.size:
            with np.errstate(divide="ignore", invalid="ignore"):
                rel = np.abs(y[rows, j] - x[rows, j]) / np.abs(x[rows, j])
            rel[np.isnan(rel)] = np.inf
            k = int(np.argmax(rel))
            with np.errstate(invalid="ignore"):   # inf - inf where a value stayed inf
                gap = np.nanmax(np.abs(y[rows, j] - x[rows, j]), initial=0.0)
            out.append(f"{name}: {rows.size} rows differ, largest |new - base| / |base| "
                       f"{rel[k]:.3g} at {a[0][0]}={a[rows[k] + 1][0]}, "
                       f"largest |new - base| {gap:.3g}")
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
        shown = csv_differences(a, b) if what == "csv" else None
        if shown is not None:
            out.append(f"{label}: {what} differs\n" + "\n".join("    " + d for d in shown))
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
