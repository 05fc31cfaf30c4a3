"""One benchmark worker: set-up, then a closed loop of checked operations.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` pointing at
the checkout's ``src`` and BLAS pinned to one thread. The worker times
``import quasiherm.cli`` plus the first ``cli.load_scenario`` (set-up), then
runs operations back to back until the run's seconds are used up, checking
every one. Usage::

    python3 perfbench/worker.py CONFIG.json

CONFIG holds the mode (``setup`` or ``measure``), the scenario index written
by ``scenarios.generate``, the seconds to measure, the trace flag and the
result path. The result is written as JSON to that path.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

# On a shared host, CPU speed can swing by +-30% over seconds to minutes (it
# did on the 2-core VM the benchmark was built on). Each operation is therefore
# bracketed by a fixed calibration task, and its time is rescaled to a host on
# which that task takes CAL_REF_S: op_s * CAL_REF_S / cal_s, where cal_s is the
# mean of the task's times just before and just after the operation. Single
# task times are noisy, so a longer operation gets more of them: about one
# per CAL_SPACING_S of the previous operation on each side. Set-up, which
# cannot be bracketed (it includes importing numpy), is rescaled by the mean
# of SETUP_CAL_REPS task times right after it. The calibration
# mixes what the program does, at the workload's dimension d: a Python loop of
# d x d complex matmuls and norms, and d x d Hermitian eigh, inverse and
# singular-value calls. A task of the operation's own size tracks its speed
# better (at d=32, a 4x4 loop left twice the spread). CAL_SIZES gives the loop
# steps and LAPACK repetitions per d, each task about CAL_REF_S on the host the
# benchmark was built on. None of these may change once the benchmark has a
# baseline.
CAL_REF_S = 0.025
CAL_SIZES = {2: (1500, 60), 8: (1100, 50), 32: (350, 22)}
CAL_SPACING_S = 0.5
CAL_MAX_REPS = 6
SETUP_CAL_REPS = 5


def _blas_threads() -> int | None:
    """Thread count OpenBLAS reports at run time, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _calibration(dim: int):
    """Return a function that runs the fixed calibration task for dim and times it."""
    import numpy as np
    loops, lapack = CAL_SIZES[dim]
    rng = np.random.default_rng(0)
    a = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / (2 * dim)
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = h + h.conj().T + 4 * dim * np.eye(dim)

    def cal() -> float:
        # The program's uncollected garbage must not leak into the host speed:
        # a collection pass inside the task would lengthen it and shrink the
        # rescaled times. Collections stay in the operations' own timings.
        gc.disable()
        try:
            t0 = time.perf_counter()
            u = np.eye(dim, dtype=complex)
            for _ in range(loops):
                k = a @ u
                u = u + 1e-3 * (k + 0.5 * (a @ k))
                np.linalg.norm(u)
            for _ in range(lapack):
                np.linalg.inv(np.linalg.eigh(h)[1])
                np.linalg.svd(h, compute_uv=False)
            return time.perf_counter() - t0
        finally:
            gc.enable()

    return cal


def main(config_path: str) -> int:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    entries = cfg["files"]

    t0 = time.perf_counter()
    from quasiherm import cli
    first = cli.load_scenario(entries[0]["path"])
    setup_s = time.perf_counter() - t0

    import numpy as np
    import quasiherm
    cal = _calibration(cfg["dim"])
    setup_cal = sum(cal() for _ in range(SETUP_CAL_REPS)) / SETUP_CAL_REPS
    result = {"setup_s": setup_s, "setup_scale": CAL_REF_S / setup_cal,
              "quasiherm_file": quasiherm.__file__}
    if cfg["mode"] == "setup":
        return _write(cfg, result)

    from quasiherm import verify
    import scenarios
    import tracer as tracer_mod

    trace = bool(cfg["trace"])
    tracer = tracer_mod.Tracer() if trace else None
    csv_path = os.path.join(cfg["work_dir"], "out.csv")
    convergence = cfg["op"] == "convergence"

    def make_op(entry):
        if convergence:
            return lambda: (verify.convergence_order(first, "u"),
                            verify.convergence_order(first, "ur_corr"))

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["run", "--scenario", entry["path"], "--out", csv_path])
            return code, buf.getvalue()
        return run

    def check(entry, out) -> list[str]:
        if convergence:
            return scenarios.check_orders(*out)
        return scenarios.check_run(entry, *out, csv_path, cli.CSV_COLUMNS)

    ops = [(e, make_op(e)) for e in entries]
    plain_seconds, traced_seconds = [], []
    attempted = failed = 0
    failures = []
    per_scenario = {e["name"]: {"self_s": [], "calls": [], "csv_bytes": []} for e in entries}
    kept_spans = []
    start = time.perf_counter()
    rnd = 0
    reps = 1
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= cfg["seconds"] and (not trace or rnd >= 2):
            break
        traced_round = trace and rnd % 2 == 1
        for entry, op in ops:
            attempted += 1
            if not convergence:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(csv_path)   # a stale report must not pass the check
            # Each operation starts on a heap without the previous ones'
            # garbage, as a fresh `quasiherm run` would.
            gc.collect()
            cal_times = [cal() for _ in range(reps)]
            if traced_round:
                tracer.install()
            t_op = time.perf_counter()
            try:
                out = tracer.run_op(op) if traced_round else op()
                problems = []
            except Exception as e:  # noqa: BLE001 -- a failed operation is counted, not fatal
                traceback.print_exc()
                out, problems = None, [f"{type(e).__name__}: {e}"]
            finally:
                el = time.perf_counter() - t_op
                if traced_round:
                    tracer.uninstall()
            cal_times += [cal() for _ in range(reps)]
            scale = CAL_REF_S * len(cal_times) / sum(cal_times)
            reps = min(CAL_MAX_REPS, max(1, round(el / CAL_SPACING_S)))
            if out is not None:
                problems = check(entry, out)
            if problems:
                failed += 1
                if len(failures) < 10:
                    failures.append(f"{entry['name']} op {attempted}: " + "; ".join(problems))
            (traced_seconds if traced_round else plain_seconds).append((el, scale))
            if attempted == len(ops):
                # One operation per scenario in a fresh process; the end-of-run
                # figure can sit a little higher.
                first_rss_mb = _max_rss_mb()
            if traced_round:
                spans = tracer.take_spans()
                if out is not None:
                    self_s, calls = tracer.aggregate(spans)
                    rec = per_scenario[entry["name"]]
                    rec["self_s"].append(self_s * scale)
                    rec["calls"].append(calls)
                    if not convergence:
                        rec["csv_bytes"].append(os.path.getsize(csv_path))
                    if len(rec["calls"]) == 1:
                        spans["op"] = np.full(spans["name"].size, attempted)
                        kept_spans.append(spans)
        rnd += 1

    result.update({
        "attempted": attempted, "failed": failed, "failures": failures,
        "op_seconds": plain_seconds, "traced_op_seconds": traced_seconds,
        "peak_rss_mb": first_rss_mb, "end_rss_mb": _max_rss_mb(),
        "blas_threads": _blas_threads(), "rounds": rnd,
    })
    if trace:
        result.update(_layers(tracer, per_scenario))
        if kept_spans:
            spans_path = os.path.join(cfg["work_dir"], "spans.npz")
            np.savez_compressed(spans_path, names=np.array(tracer.names),
                                **{k: np.concatenate([s[k] for s in kept_spans])
                                   for k in kept_spans[0]})
            result["spans_path"] = spans_path
    return _write(cfg, result)


def _layers(tracer, per_scenario) -> dict:
    """Per-operation self seconds and calls by span name, averaged over scenarios.

    Calls must repeat exactly across the traced operations of one scenario;
    a scenario whose counts differ is reported in ``count_mismatch``.
    """
    import numpy as np
    self_means, calls, csv_bytes, mismatch = [], [], [], []
    for name, rec in per_scenario.items():
        if not rec["calls"]:
            mismatch.append(f"{name}: no traced operation completed")
            continue
        c = np.stack(rec["calls"])
        differ = np.nonzero((c != c[0]).any(axis=0))[0]
        if differ.size:
            mismatch.append(name + ": " + ", ".join(
                f"{tracer.names[j]} {sorted(set(c[:, j].tolist()))}" for j in differ))
        calls.append(c[0])
        self_means.append(np.mean(rec["self_s"], axis=0))
        csv_bytes.extend(rec["csv_bytes"])
    if not calls:
        return {"span_self_s": {}, "span_calls": {}, "csv_bytes": 0.0,
                "count_mismatch": mismatch}
    self_s = np.mean(self_means, axis=0)
    mean_calls = np.sum(calls, axis=0) / len(calls)
    return {
        "span_self_s": {n: float(v) for n, v in zip(tracer.names, self_s)},
        "span_calls": {n: float(v) for n, v in zip(tracer.names, mean_calls)},
        "csv_bytes": float(np.mean(csv_bytes)) if csv_bytes else 0.0,
        "count_mismatch": mismatch,
    }


def _write(cfg, result) -> int:
    tmp = cfg["result_path"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, cfg["result_path"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
