"""Command-line front end: run, demo, list.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 usage/IO error,
3 scenario validation or parse error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import models, scenario_io, verify
from .dynamics import Scenario
from .errors import ParseError, QuasihermError
from .schedules import MAX_STEPS

CSV_COLUMNS = ("t", "unitarity_defect", "norm_phys", "res_naive",
               "res_corrected", "res_metric", "res_qh")

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


def _checked(conv, ok, expected: str):
    """argparse type: conv(text) when ok accepts it, else a usage error."""
    def parse(text: str):
        try:
            if ok(value := conv(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_STEPS_ARG = _checked(int, lambda n: 2 <= n <= MAX_STEPS,
                      f"an integer from 2 to {MAX_STEPS}")
_HBAR_ARG = _checked(float, lambda x: math.isfinite(x) and x > 0, "a positive number")


def load_scenario(spec: str, steps: int | None = None, hbar: float | None = None) -> Scenario:
    """Resolve a builtin name or a scenario file path, then apply the overrides."""
    if spec in models.BUILTINS:
        s = models.make_builtin(spec)
    else:
        try:
            with open(spec, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise FileNotFoundError(
                f"cannot read scenario {spec!r}: {e} "
                f"(builtins: {', '.join(models.builtin_names())})") from e
        except UnicodeDecodeError as e:   # read() decodes the whole file at once
            raise ParseError(e.object[:e.start].count(b"\n") + 1,
                             f"scenario {spec!r} is not UTF-8: {e.reason} "
                             f"at byte {e.start}") from None
        s = scenario_io.parse_scenario(text)
    if steps is not None:
        s = s.with_steps(steps)
    if hbar is not None:
        s = dataclasses.replace(s, hbar=hbar)
    return s


_CSV_ROW = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
CSV_CHUNK_ROWS = 4096   # lines formatted by one call: the text held at once stays small


def rows_to_csv(d, fh) -> None:
    """Write the CSV report of the Diagnostics d to the open text file fh:
    a header, then one line per interior node, CSV_CHUNK_ROWS lines per format call."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    cols = [getattr(d, c) for c in CSV_COLUMNS]
    for a in range(0, len(d.t), CSV_CHUNK_ROWS):
        cells = np.column_stack([c[a:a + CSV_CHUNK_ROWS] for c in cols])
        fh.write((_CSV_ROW * len(cells)) % tuple(cells.ravel().tolist()))


def _print_verdicts(vs):
    for v in vs:
        status = "PASS" if v.passed else "FAIL"
        print(f"{status}  {v.name:32s} observed={v.observed:.6e} "
              f"{v.sense} threshold={v.threshold:.6e}")


def cmd_run(scenario: Scenario, out_path: str) -> int:
    d = verify.run_diagnostics(scenario)
    vs = verify.verdicts(d, scenario)
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            rows_to_csv(d, fh)
    except OSError as e:
        print(f"error: cannot write {out_path!r}: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(f"scenario: {scenario.name}  dim={scenario.dim}  "
          f"steps={scenario.grid.steps}  hbar={scenario.hbar:g}")
    _print_verdicts(vs)
    return EXIT_OK if all(v.passed for v in vs) else EXIT_VERDICT_FAIL


def cmd_demo(scenario: Scenario) -> int:
    d = verify.run_diagnostics(scenario)
    vs = verify.verdicts(d, scenario)
    print(f"scenario: {scenario.name}  steps={scenario.grid.steps}")
    print()
    print(f"{'t':>8s}  {'naive residual':>16s}  {'corrected residual':>20s}  "
          f"{'norm drift':>12s}")
    n = len(d.t)
    shown = sorted({*range(0, n, max(1, n // 10)), n - 1})   # about ten nodes and the last
    for k in shown:
        print(f"{d.t[k]:8.4f}  {d.res_naive[k]:16.6e}  {d.res_corrected[k]:20.6e}  "
              f"{d.norm_drift[k]:12.3e}")
    print()
    print(f"at t={d.t[-1]:.4f}: naive residual {d.res_naive[-1]:.4f}, "
          f"corrected residual {d.res_corrected[-1]:.3e}")
    _print_verdicts(vs)
    # verdicts asks the naive residual to exceed a floor exactly when the metric moves
    moving = any(v.name == "NAIVE_FAILS_IFF_METRIC_MOVES" and v.sense == ">=" for v in vs)
    if all(v.passed for v in vs):
        if moving:
            print("\nThe physical norm stays constant even though the metric "
                  "varies in time: evolving with the bare generator H fails, "
                  "while the corrected generator reproduces the defining "
                  "propagator. A moving metric is no obstacle to unitary "
                  "evolution in the physical inner product.")
        else:
            print("\nStatic metric: the bare generator H and the corrected "
                  "generator coincide and both residuals stay at the "
                  "discretization floor.")
        return EXIT_OK
    return EXIT_VERDICT_FAIL


def cmd_list() -> int:
    for name in models.builtin_names():
        s = models.make_builtin(name)
        print(f"{name:22s} dim={s.dim}  span=[{s.grid.t_start:g}, {s.grid.t_end:g}]  "
              f"steps={s.grid.steps}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quasiherm",
        description="Simulate and verify quantum evolution with a time-dependent metric.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write a CSV report")
    p_run.add_argument("--scenario", required=True,
                       help="builtin name or path to a scenario JSON file")
    p_run.add_argument("--steps", type=_STEPS_ARG, default=None, help="override grid steps")
    p_run.add_argument("--hbar", type=_HBAR_ARG, default=None, help="override hbar")
    p_run.add_argument("--out", required=True, help="CSV output path")

    p_demo = sub.add_parser("demo", help="side-by-side naive vs corrected residuals")
    p_demo.add_argument("--scenario", default="growing-metric-2d")
    p_demo.add_argument("--steps", type=_STEPS_ARG, default=None)
    p_demo.add_argument("--hbar", type=_HBAR_ARG, default=None)

    sub.add_parser("list", help="list builtin scenarios")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0

    try:
        if args.command == "list":
            return cmd_list()
        scenario = load_scenario(args.scenario, args.steps, args.hbar)
        if args.command == "run":
            return cmd_run(scenario, args.out)
        return cmd_demo(scenario)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except QuasihermError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def entry():  # console-script target
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
