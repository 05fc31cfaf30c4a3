"""quasiherm benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It generates the workload's scenario files from ``--seed``
(``scenarios.py``), then starts fresh worker interpreters (``worker.py``) with
``PYTHONPATH=src`` and BLAS pinned to one thread: with ``--trace 0``, a few
that only time set-up and one that runs a closed loop of checked operations
for ``--seconds``; with ``--trace 1``, one worker that alternates untraced and
traced rounds of operations and reports per-layer self times and call counts.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it and
``perfbench/_work/<workload>/result-s<seed>-t<trace>.json`` carry the
provenance, sample counts and failure details.

Workloads (one client, closed loop):

* ``builtins-n2000``: the four builtins at N=2000, d=2, closed-form omega.
  Per-step Python overhead in ``dynamics`` and ``verify`` dominates.
* ``sampled-d32-n500``: a generated pair scenario at d=32, N=500, 9 snapshots.
  omega comes from ``eigh`` roots with a finite-difference derivative, so
  ``linalg`` and ``schedules`` carry the time and admission weighs on set-up.
* ``convergence-d8``: ``verify.convergence_order`` for the ``u`` and
  ``ur_corr`` probes on a generated oracle-free pair scenario at d=8, N=200;
  end states only, no diagnostics and no CSV.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import scenarios

SETUP_WORKERS = 7           # timed set-up samples, besides the measuring worker's own
DEADLINE_MARGIN_S = 140.0   # whole run = --seconds + this, set-up workers included
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# Per-layer metric -> (span name, statistic, unit). "self" is self seconds per
# operation, "calls" calls per operation.
SPAN_METRICS = {
    "dynamics.integrate_u_s": ("dynamics.integrate_u", "self"),
    "dynamics.ur_naive_s": ("dynamics.ur_from_naive_generator", "self"),
    "dynamics.ur_corrected_s": ("dynamics.ur_from_corrected_generator", "self"),
    "dynamics.ur_definition_s": ("dynamics.ur_from_definition", "self"),
    "dynamics.metric_from_ur_s": ("dynamics.metric_from_ur", "self"),
    "dynamics.validate_s": ("dynamics.validate_scenario", "self"),
    "dynamics.evolve_self_s": ("dynamics.evolve", "self"),
    "verify.diagnostics_s": ("verify.diagnostics_from_result", "self"),
    "verify.verdicts_s": ("verify.verdicts", "self"),
    "verify.max_omega_motion_s": ("verify.max_omega_motion", "self"),
    "verify.convergence_order_self_s": ("verify.convergence_order", "self"),
    "schedules.omega_s": ("schedules.OmegaSchedule.omega", "self"),
    "schedules.omega_inv_s": ("schedules.OmegaSchedule.omega_inv", "self"),
    "schedules.omega_dot_s": ("schedules.OmegaSchedule.omega_dot", "self"),
    "schedules.interp_s": ("schedules.OperatorSchedule.__call__", "self"),
    "schedules.omega_inv_calls": ("schedules.OmegaSchedule.omega_inv", "calls"),
    "linalg.principal_sqrt_s": ("linalg.principal_sqrt", "self"),
    "linalg.principal_sqrt_calls": ("linalg.principal_sqrt", "calls"),
    "linalg.eig_hermitian_s": ("linalg.eig_hermitian", "self"),
    "linalg.eig_hermitian_calls": ("linalg.eig_hermitian", "calls"),
    "linalg.inverse_s": ("linalg.inverse", "self"),
    "linalg.inverse_calls": ("linalg.inverse", "calls"),
    "linalg.cond_2norm_calls": ("linalg.cond_2norm", "calls"),
    "scenario_io.parse_s": ("scenario_io.parse_scenario", "self"),
    "models.make_builtin_s": ("models.make_builtin", "self"),
    "spaces.qh_defect_s": ("spaces.quasi_hermiticity_defect", "self"),
    "spaces.qh_defect_calls": ("spaces.quasi_hermiticity_defect", "calls"),
    "cli.rows_to_csv_s": ("cli.rows_to_csv", "self"),
    "cli.cmd_run_self_s": ("cli.cmd_run", "self"),
}

# Spans that must record calls on every operation of a workload's kind.
_RUN_SPANS = (
    "cli.main", "cli.load_scenario", "cli.cmd_run", "cli.rows_to_csv",
    "scenario_io.parse_scenario", "dynamics.evolve", "dynamics.validate_scenario",
    "dynamics.integrate_u", "dynamics.ur_from_definition",
    "dynamics.ur_from_naive_generator", "dynamics.ur_from_corrected_generator",
    "dynamics.metric_from_ur", "verify.run_diagnostics", "verify.diagnostics_from_result",
    "verify.verdicts", "verify.max_omega_motion", "schedules.OmegaSchedule.omega",
    "schedules.OmegaSchedule.omega_inv", "schedules.OmegaSchedule.omega_dot",
    "schedules.OperatorSchedule.__call__", "linalg.inverse", "linalg.cond_2norm",
    "spaces.quasi_hermiticity_defect")
_ROOT_SPANS = ("linalg.principal_sqrt", "linalg.eig_hermitian")
EXPECTED_SPANS = {
    "builtins-n2000": _RUN_SPANS + ("models.make_builtin",),
    "sampled-d32-n500": _RUN_SPANS + _ROOT_SPANS,
    "convergence-d8": ("verify.convergence_order", "dynamics.integrate_u",
                       "dynamics.ur_from_corrected_generator",
                       "schedules.OmegaSchedule.omega", "schedules.OmegaSchedule.omega_inv",
                       "schedules.OmegaSchedule.omega_dot",
                       "schedules.OperatorSchedule.__call__", "linalg.inverse",
                       "linalg.cond_2norm") + _ROOT_SPANS,
}


def _half_grid_points(workload: str) -> int:
    """Distinct half-grid times at which one operation needs omega.

    A run needs omega on the 2N+1 nodes and midpoints of its grid (the
    finite-difference stencil of omega-dot lands on the same points). A
    convergence operation needs it only for the ``ur_corr`` probe, on the
    grids of N, 2N and the 16N reference.
    """
    spec = scenarios.WORKLOADS[workload]
    n = spec["steps"]
    if spec["op"] == "convergence":
        return sum(2 * m + 1 for m in (n, 2 * n, 16 * n))
    return 2 * n + 1


def _scaled_median(samples) -> float:
    """Median of seconds rescaled to the reference host speed (see worker.py)."""
    return statistics.median(el * scale for el, scale in samples)


def _layer_metrics(workload: str, res: dict, files: list[dict]) -> tuple[dict, list[str]]:
    self_s, calls = res["span_self_s"], res["span_calls"]
    out = {}
    for metric, (span, stat) in SPAN_METRICS.items():
        if stat == "self":
            out[metric] = (self_s.get(span, 0.0), "s")
        else:
            out[metric] = (calls.get(span, 0.0), "count")
    for layer in ("scenario_io", "models", "dynamics", "schedules", "linalg", "spaces",
                  "verify", "cli"):
        out[f"{layer}.all_s"] = (sum(v for k, v in self_s.items()
                                     if k.startswith(layer + ".")), "s")
    out["schedules.roots_per_point"] = (calls.get("linalg.principal_sqrt", 0.0)
                                        / _half_grid_points(workload), "ratio")
    out["scenario_io.json_bytes"] = (statistics.fmean(f["json_bytes"] for f in files), "B")
    out["cli.csv_bytes"] = (res["csv_bytes"], "B")
    traced = _scaled_median(res["traced_op_seconds"])
    plain = _scaled_median(res["op_seconds"])
    out["trace.traced_run_s"] = (traced, "s")
    out["trace.untraced_run_s"] = (plain, "s")
    out["trace.overhead_s"] = (traced - plain, "s")
    problems = [f"span {s} recorded no calls" for s in EXPECTED_SPANS[workload]
                if not calls.get(s)]
    problems += [f"call counts differ between operations of {m}"
                 for m in res["count_mismatch"]]
    return out, problems


def _provenance(root: str, args, files: list[dict], blas_threads) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 -- provenance only; older numpy lacks mode=
        blas_version = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "quasiherm")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads_env": WORKER_ENV["OPENBLAS_NUM_THREADS"],
        "blas_threads_runtime": blas_threads,
        "git_sha": _git_sha(root),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {k: v for k, v in scenarios.WORKLOADS[args.workload].items()
                  if k not in ("kind", "op")},
        "scenario_files": [f["name"] for f in files],
    }


def _git_sha(root: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class WorkerFailed(RuntimeError):
    pass


def _run_worker(cfg: dict, deadline: float) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    src = cfg["src"]
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cfg_path = cfg["result_path"] + ".cfg.json"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    if os.path.exists(cfg["result_path"]):
        os.remove(cfg["result_path"])
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
    try:
        proc = subprocess.run([sys.executable, worker, cfg_path], env=env,
                              stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{cfg['mode']} worker timed out") from None
    if proc.returncode != 0 or not os.path.exists(cfg["result_path"]):
        raise WorkerFailed(f"{cfg['mode']} worker exited with {proc.returncode}")
    with open(cfg["result_path"], encoding="utf-8") as fh:
        res = json.load(fh)
    if not os.path.realpath(res["quasiherm_file"]).startswith(os.path.realpath(src) + os.sep):
        raise WorkerFailed(f"worker imported quasiherm from {res['quasiherm_file']}, not {src}")
    return res


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=_positive_int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "quasiherm", "cli.py")):
        print(f"error: no quasiherm sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(root, "perfbench", "_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    files = scenarios.generate(args.workload, args.seed, work)
    spec = scenarios.WORKLOADS[args.workload]

    def cfg(mode: str, tag: str) -> dict:
        return {"mode": mode, "op": spec["op"], "dim": spec["dim"], "files": files, "seconds": args.seconds,
                "trace": args.trace, "work_dir": work, "src": src,
                "result_path": os.path.join(work, f"worker-{tag}.json")}

    try:
        setup = []
        if not args.trace:
            # The first worker also writes the bytecode caches; it is not timed.
            _run_worker(cfg("setup", "warm"), deadline)
            setup = [_run_worker(cfg("setup", f"setup{i}"), deadline)
                     for i in range(SETUP_WORKERS)]
        res = _run_worker(cfg("measure", "measure"), deadline)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setup.append(res)

    problems = list(res["failures"])
    if args.trace:
        layer, layer_problems = _layer_metrics(args.workload, res, files)
        problems += layer_problems
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {
            "run_s": {"value": _scaled_median(res["op_seconds"]), "unit": "s"},
            "setup_s": {"value": _scaled_median((w["setup_s"], w["setup_scale"])
                                                for w in setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    prov = _provenance(root, args, files, res["blas_threads"])
    record = {"provenance": prov, "metrics": metrics,
              "run_samples": len(res["op_seconds"]),
              "traced_samples": len(res["traced_op_seconds"]),
              "run_wall_s": [el for el, _ in res["op_seconds"]],
              "run_scale": [sc for _, sc in res["op_seconds"]],
              "setup_wall_s": [w["setup_s"] for w in setup],
              "setup_scale": [w["setup_scale"] for w in setup],
              "end_rss_mb": res["end_rss_mb"],
              "attempted": res["attempted"], "failed": res["failed"],
              "fail_ratio": res["failed"] / res["attempted"], "problems": problems,
              "spans_path": res.get("spans_path")}
    with open(os.path.join(work, f"result-s{args.seed}-t{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"samples: run={record['run_samples']} traced={record['traced_samples']} "
          f"setup={len(setup)}  fail_ratio={record['fail_ratio']:.6g} "
          f"({res['failed']}/{res['attempted']})")
    if not args.trace:
        print(f"unscaled wall medians: run {statistics.median(record['run_wall_s']):.6g} s, "
              f"setup {statistics.median(record['setup_wall_s']):.6g} s; host speed "
              f"{statistics.median(record['run_scale']):.4g}x the reference")
    for p in problems:
        print(f"problem: {p}")
    for k, m in metrics.items():
        print(f"{k:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
