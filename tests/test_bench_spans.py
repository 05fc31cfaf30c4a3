"""The benchmark's traced run must keep finding every span it expects.

perfbench/run.py lists, per workload, the functions whose spans a traced
operation has to record (EXPECTED_SPANS). This test installs the
benchmark's tracer, runs a small operation of each workload's kind and
checks that every expected span recorded at least one call, so a refactor
that stops calling one of them shows up here rather than as a failed
``--trace 1`` run. It only reads perfbench/.
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from conftest import pairs
from quasiherm import cli, verify

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _write_pair_file(path, steps):
    """A 3-d pair scenario with a sampled moving metric and a sampled h."""
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 1.0, 5)
    om0 = np.eye(3) + 0.1 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    om1 = 0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    h0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h0 = h0 + h0.conj().T
    thetas, hs = [], []
    for t in times:
        om = om0 + t * om1
        thetas.append(pairs(om.conj().T @ om))
        hs.append(pairs(h0 + t * np.diag([1.0, 0.0, -1.0])))
    doc = {"dimension": 3, "time": {"start": 0.0, "end": 1.0, "steps": steps},
           "model": {"kind": "pair",
                     "h": {"times": list(times), "snapshots": hs},
                     "theta": {"times": list(times), "snapshots": thetas}},
           "initial_state": pairs([1.0, 0.0, 0.0])}
    path.write_text(json.dumps(doc))
    return str(path)


def _run(path, out):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--scenario", path, "--out", str(out)]) == 0


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracer
    return run, tracer


def test_every_expected_span_records_calls(bench, tmp_path):
    run, tracer = bench
    builtin_file = tmp_path / "builtin.json"
    builtin_file.write_text(json.dumps({
        "model": {"kind": "builtin", "name": "constant-metric-2d"},
        "time": {"steps": 1000}}))
    pair_file = _write_pair_file(tmp_path / "pair.json", steps=500)
    out = tmp_path / "out.csv"

    def convergence():
        s = cli.load_scenario(_write_pair_file(tmp_path / "conv.json", steps=10))
        verify.convergence_order(s, "u")
        verify.convergence_order(s, "ur_corr")

    ops = {
        "builtins-n2000": lambda: _run(str(builtin_file), out),
        "sampled-d32-n500": lambda: _run(pair_file, out),
        "convergence-d8": convergence,
    }
    assert sorted(ops) == sorted(run.EXPECTED_SPANS)
    tr = tracer.Tracer()
    for workload, op in ops.items():
        tr.install()
        try:
            tr.run_op(op)
        finally:
            tr.uninstall()
        _, calls = tr.aggregate(tr.take_spans())
        recorded = {name for name, n in zip(tr.names, calls) if n}
        missing = [s for s in run.EXPECTED_SPANS[workload] if s not in recorded]
        assert not missing, f"{workload}: no calls recorded for {missing}"
