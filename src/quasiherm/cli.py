"""Command-line front end: run, demo, list.

Exit codes: 0 all verdicts pass, 1 verdict failure, 2 usage/IO error,
3 scenario validation or parse error.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import models, scenario_io, verify
from .dynamics import Scenario
from .errors import QuasihermError

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


_STEPS_ARG = _checked(int, lambda n: n >= 2, "an integer >= 2")
_HBAR_ARG = _checked(float, lambda x: math.isfinite(x) and x > 0, "a positive number")


def load_scenario(spec: str, steps: int | None = None, hbar: float | None = None) -> Scenario:
    """Resolve a builtin name or a scenario file path."""
    overrides = {}
    if steps is not None:
        overrides["steps"] = steps
    if hbar is not None:
        overrides["hbar"] = hbar
    if spec in models.BUILTINS:
        return models.make_builtin(spec, **overrides)
    try:
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise FileNotFoundError(
            f"cannot read scenario {spec!r}: {e} "
            f"(builtins: {', '.join(models.builtin_names())})") from e
    s = scenario_io.parse_scenario(text)
    if steps is not None:
        s = s.with_steps(steps)
    if hbar is not None:
        s.hbar = hbar
    return s


def rows_to_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(
            f"{getattr(r, c):.17g}" for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _print_verdicts(vs):
    for v in vs:
        status = "PASS" if v.passed else "FAIL"
        print(f"{status}  {v.name:32s} observed={v.observed:.6e} "
              f"{v.sense} threshold={v.threshold:.6e}")


def cmd_run(scenario: Scenario, out_path: str) -> int:
    rows = verify.run_diagnostics(scenario)
    vs = verify.verdicts(rows, scenario)
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(rows_to_csv(rows))
    except OSError as e:
        print(f"error: cannot write {out_path!r}: {e}", file=sys.stderr)
        return EXIT_USAGE
    print(f"scenario: {scenario.name}  dim={scenario.dim}  "
          f"steps={scenario.grid.steps}  hbar={scenario.hbar:g}")
    _print_verdicts(vs)
    return EXIT_OK if all(v.passed for v in vs) else EXIT_VERDICT_FAIL


def cmd_demo(scenario: Scenario) -> int:
    rows = verify.run_diagnostics(scenario)
    vs = verify.verdicts(rows, scenario)
    norm0 = rows[0].norm_phys
    print(f"scenario: {scenario.name}  steps={scenario.grid.steps}")
    print()
    print(f"{'t':>8s}  {'naive residual':>16s}  {'corrected residual':>20s}  "
          f"{'norm drift':>12s}")
    stride = max(1, len(rows) // 10)
    shown = list(rows[::stride])
    if shown[-1] is not rows[-1]:
        shown.append(rows[-1])
    for r in shown:
        drift = abs(r.norm_phys / norm0 - 1.0) if norm0 else 0.0
        print(f"{r.t:8.4f}  {r.res_naive:16.6e}  {r.res_corrected:20.6e}  "
              f"{drift:12.3e}")
    print()
    last = rows[-1]
    print(f"at t={last.t:.4f}: naive residual {last.res_naive:.4f}, "
          f"corrected residual {last.res_corrected:.3e}")
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
