import dataclasses
import importlib.util
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import pairs
from quasiherm import cli, dynamics, linalg, make_builtin, scenario_io, spaces, verify
from quasiherm.errors import ParseError, QuasihermError, ValidationError
from quasiherm.schedules import OperatorSchedule, TimeGrid

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

# theta = I and H = [[0, 1], [0, 0]]: H is not quasi-Hermitian, residual sqrt(2)
DIRECT_NOT_QH = json.dumps({
    "dimension": 2,
    "time": {"start": 0.0, "end": 1.0, "steps": 10},
    "model": {
        "kind": "direct",
        "H": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
        "theta": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    },
})


def test_parse_builtin_defaults():
    s = scenario_io.parse_scenario(
        '{"model": {"kind": "builtin", "name": "growing-metric-2d"}}')
    assert s.name == "growing-metric-2d"
    assert s.grid.steps == 2000
    assert (s.grid.t_start, s.grid.t_end) == (0.0, 1.0)
    assert s.hbar == 1.0


def test_parse_unknown_builtin_lists_names():
    with pytest.raises(ValidationError, match="constant-metric-2d"):
        scenario_io.parse_scenario('{"model": {"kind": "builtin", "name": "nope"}}')


def test_parse_direct_violation_reports_residual():
    with pytest.raises(ValidationError, match="1.414"):
        verify.run_diagnostics(scenario_io.parse_scenario(DIRECT_NOT_QH))


@pytest.mark.parametrize("probe", ["u", "ur_corr"])
def test_convergence_order_admits_a_direct_file_as_a_run_does(probe):
    s = scenario_io.parse_scenario(DIRECT_NOT_QH)
    with pytest.raises(ValidationError) as exc:
        verify.convergence_order(s, probe)
    assert str(exc.value) == ("direct-mode generator violates quasi-Hermiticity at t=0 "
                              "(residual 1.41421 > 1e-08)")


def test_convergence_order_forms_no_quasi_hermiticity_residual_for_a_pair(
        monkeypatch, sampled_pair_text):
    """The residual gates direct mode only: the ur_corr probe of a pair scenario
    never forms it, while evolve forms its column once per node."""
    nodes = []
    defect = spaces.quasi_hermiticity_defect

    def counted(h_mat, theta):
        nodes.append(len(h_mat))
        return defect(h_mat, theta)

    monkeypatch.setattr(spaces, "quasi_hermiticity_defect", counted)
    s = scenario_io.parse_scenario(sampled_pair_text).with_steps(100)
    verify.convergence_order(s, "ur_corr")
    assert nodes == []
    dynamics.evolve(s)
    assert sum(nodes) == s.grid.steps + 1


def test_convergence_order_gates_the_metric_only_where_the_probe_reads_it():
    """The u probe of a pair scenario integrates h alone and never reads theta;
    the ur_corr probe takes its roots, and refuses an indefinite theta."""
    s = scenario_io.parse_scenario(json.dumps({
        "dimension": 2, "time": {"start": 0.0, "end": 1.0, "steps": 100},
        "model": {"kind": "pair", "h": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
                  "theta": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]}}))
    with pytest.raises(ValidationError,
                       match=r"^metric rejected: matrix is not positive definite at t=0 "):
        verify.convergence_order(s, "ur_corr")
    assert 3.5 <= verify.convergence_order(s, "u") <= 4.5


def test_parsing_gates_nothing(monkeypatch, sampled_pair_text):
    """A file is admitted once, by evolve: parse_scenario checks its structure
    and takes no Hermiticity test and no decomposition of any matrix."""
    def refuse(*args, **kwargs):
        raise AssertionError("parse_scenario gated a matrix")

    monkeypatch.setattr(linalg, "check_hermitian", refuse)
    for name in ("eig", "eigh", "eigvalsh", "cholesky", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert scenario_io.parse_scenario(sampled_pair_text).kind == "pair"
    assert scenario_io.parse_scenario(DIRECT_NOT_QH).kind == "direct"


def test_parse_error_carries_line():
    with pytest.raises(ParseError) as exc:
        scenario_io.parse_scenario('{\n  "model": oops\n}')
    assert exc.value.line == 2


def test_parse_pair_with_sampled_schedule():
    ts = np.linspace(0.0, 1.0, 5)
    snaps = [[[[1, 0], [0, 0]], [[0, 0], [1 + t * t, 0]]] for t in ts]
    text = json.dumps({
        "dimension": 2,
        "time": {"start": 0.0, "end": 1.0, "steps": 50},
        "model": {
            "kind": "pair",
            "h": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
            "theta": {"times": list(ts), "snapshots": snaps},
        },
        "initial_state": [[1, 0], [0, 0]],
    })
    s = scenario_io.parse_scenario(text)
    assert len(verify.run_diagnostics(s).t) == 49


def _csv_per_cell(d):
    """The CSV report formatted one f-string per cell: the reference for rows_to_csv."""
    lines = [",".join(cli.CSV_COLUMNS)]
    for k in range(len(d.t)):
        lines.append(",".join(f"{float(getattr(d, c)[k]):.17g}" for c in cli.CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _csv_text(d):
    fh = io.StringIO()
    cli.rows_to_csv(d, fh)
    return fh.getvalue()


def _report(*columns):
    """A Diagnostics of the seven CSV columns given, every other column zero."""
    rows = len(columns[0])
    return verify.Diagnostics(*columns, norm_drift=np.zeros(rows),
                              omega_motion=np.zeros(rows + 2), gap_naive=np.zeros(rows),
                              gap_corrected=np.zeros(rows))


def test_rows_to_csv_matches_per_cell_formatting(growing_diag):
    assert verify.Diagnostics._fields[:len(cli.CSV_COLUMNS)] == cli.CSV_COLUMNS
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1]
    shifted = _report(*(np.array([odd[(i + j) % 7] for i in range(7)]) for j in range(7)))
    empty = _report(*[np.empty(0)] * 7)
    # two full chunks of rows and part of a third, and exactly one chunk
    n = 2 * cli.CSV_CHUNK_ROWS + 3
    rng = np.random.default_rng(5)
    long = _report(*(rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
                     for _ in range(7)))
    one_chunk = _report(*(c[:cli.CSV_CHUNK_ROWS] for c in long[:7]))
    for d in (growing_diag, shifted, empty, long, one_chunk):
        assert _csv_text(d) == _csv_per_cell(d)


def test_rows_to_csv_heap_peak_stays_flat_at_1e5_rows(tmp_path):
    """The whole text of 1e5 rows is 13 MB; formatting it at once peaked at 48 MB."""
    n = 100_000
    d = _report(*(np.linspace(1.0, 2.0, n) * np.pi ** k for k in range(7)))
    with open(tmp_path / "out.csv", "w", encoding="utf-8", newline="") as fh:
        tracemalloc.start()
        try:
            cli.rows_to_csv(d, fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "out.csv").stat().st_size > 13e6
    assert peak < 4e6


def test_run_writes_csv_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = cli.main(["run", "--scenario", "growing-metric-2d",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 2000  # header + N-1 interior rows
    assert "PASS  NORM_CONSERVED" in capsys.readouterr().out


def test_run_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["run", "--scenario", "constant-metric-2d", "--steps", "400",
              "--out", str(a)])
    cli.main(["run", "--scenario", "constant-metric-2d", "--steps", "400",
              "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_run_coarse_grid_fails_verdicts(tmp_path):
    out = tmp_path / "coarse.csv"
    code = cli.main(["run", "--scenario", "growing-metric-2d",
                     "--steps", "4", "--out", str(out)])
    assert code == 1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: CORRECTED_GENERATOR_OK judges "
                   "res_corrected on an absolute scale, which grows with hbar (8.05e-6 > 1e-6)")
def test_run_passes_every_verdict_at_a_large_hbar(tmp_path):
    code = cli.main(["run", "--scenario", "growing-metric-2d", "--hbar", "100",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 0


def test_run_unwritable_path_exit_2(tmp_path):
    code = cli.main(["run", "--scenario", "growing-metric-2d", "--steps", "100",
                     "--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 2


def test_run_missing_scenario_exit_2(tmp_path):
    code = cli.main(["run", "--scenario", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_run_invalid_scenario_exit_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"model": {"kind": "builtin", "name": "nope"}}')
    code = cli.main(["run", "--scenario", str(bad), "--out", str(tmp_path / "x.csv")])
    assert code == 3


@pytest.mark.parametrize("name, err", [
    # undecodable bytes are malformed content, as a JSON syntax error is: exit 3
    # with one error line that names the file, not a traceback and exit 1
    ("not-utf-8", "line 1: scenario {path!r} is not UTF-8: invalid start byte at byte 0"),
    # finite snapshots whose interpolant's slopes overflow: h is nan from t = 0
    # on, refused there by name, with no warning on the way
    ("h-slopes-overflow", "pair-mode generator rejected: matrix entries must be finite at t=0"),
], ids=["not-utf-8", "h-slopes-overflow"])
def test_a_gate_file_is_refused_by_name(tmp_path, capsys, name, err):
    [(_, args)] = [case for case in _same_output().gate_cases(str(tmp_path))
                   if case[0] == f"run {name}"]
    code = cli.main(args + ["--out", str(tmp_path / "x.csv")])
    assert (code, capsys.readouterr().err) == (3, f"error: {err.format(path=args[2])}\n")


def test_run_and_demo_evaluate_theta_only_inside_evolve(monkeypatch, tmp_path, capsys):
    """evolve measures the initial norm it gates: no layer after it evaluates
    theta(t0) a second time."""
    s = make_builtin("growing-metric-2d")
    depth, inside, outside = [0], [], []
    evolve, call = dynamics.evolve, OperatorSchedule.__call__

    def counted_evolve(scenario):
        depth[0] += 1
        try:
            return evolve(scenario)
        finally:
            depth[0] -= 1

    def traced_call(sched, ts):
        if sched is s.theta:
            (inside if depth[0] else outside).append(ts)
        return call(sched, ts)

    for mod in (dynamics, verify):   # every module that binds evolve by name
        monkeypatch.setattr(mod, "evolve", counted_evolve)
    monkeypatch.setattr(OperatorSchedule, "__call__", traced_call)
    assert cli.cmd_run(s, str(tmp_path / "x.csv")) == 0
    assert cli.cmd_demo(s) == 0
    assert inside and outside == []


def test_demo_default_pattern(capsys):
    code = cli.main(["demo"])
    out = capsys.readouterr().out
    assert code == 0
    assert "naive residual" in out
    assert "0.3536" in out  # naive residual near t=1, closed form 0.35355


def test_demo_constant_metric(capsys):
    code = cli.main(["demo", "--scenario", "constant-metric-2d"])
    assert code == 0
    assert "Static metric" in capsys.readouterr().out


def test_demo_norm_drift_is_the_verdicts_drift_from_t0(capsys):
    """The demo's norm drift is measured against <phi0|theta(t0)|phi0>, as
    NORM_CONSERVED measures it, not against the norm at the first row: at 20
    steps every interior node is a row, the first reads the drift of one step
    and the largest is the verdict's observed value."""
    s = make_builtin("growing-metric-2d").with_steps(20)
    d = verify.run_diagnostics(s)
    norm0 = s.initial_norm(s.theta(s.grid.times()[:1])[0])
    expect = [f"{x:.3e}" for x in np.abs(d.norm_phys / norm0 - 1.0)]
    cli.main(["demo", "--scenario", "growing-metric-2d", "--steps", "20"])
    rows = capsys.readouterr().out.split("\n\n")[1].splitlines()[1:]
    assert [row.split()[-1] for row in rows] == expect
    assert expect[0] != "0.000e+00"
    [norm] = [v for v in verify.verdicts(d, s) if v.name == "NORM_CONSERVED"]
    assert max(expect, key=float) == f"{norm.observed:.3e}"


def test_list_sorted(capsys):
    assert cli.main(["list"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == sorted(names)
    assert len(names) == 4


@pytest.mark.parametrize("flag, value", [("--steps", "1"), ("--hbar", "-1"),
                                         ("--steps", "100000000")])
def test_run_rejects_bad_flag_with_usage_exit(tmp_path, capsys, flag, value):
    code = cli.main(["run", "--scenario", "growing-metric-2d", flag, value,
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"argument {flag}" in capsys.readouterr().err


BUILTIN = {"kind": "builtin", "name": "growing-metric-2d"}
PAIR_2D = {"kind": "pair", "h": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]],
           "theta": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}


@pytest.mark.parametrize("field, doc", [
    ("time.steps", {"model": BUILTIN, "time": {"steps": "abc"}}),
    ("initial_state", {"dimension": 2, "model": PAIR_2D,
                       "initial_state": [[1, 0], [0, 0], [0, 0]]}),
    ("theta", {"dimension": 3, "model": PAIR_2D}),
    ("time", {"model": BUILTIN, "time": {"steps": 1}}),
    ("hbar", {"model": BUILTIN, "hbar": 0}),
    ("time", {"model": BUILTIN, "time": 5}),
    ("tolerances", {"model": BUILTIN, "tolerances": [1]}),
    ("tolerances.norm_drift", {"model": BUILTIN, "tolerances": {"norm_drift": "x"}}),
    ("tolerances.qh", {"model": BUILTIN, "tolerances": {"qh": -1e-8}}),
    ("tolerances.eps_pos", {"model": BUILTIN, "tolerances": {"eps_pos": None}}),
    ("initial_state", {"model": BUILTIN, "initial_state": [[0, 0], [0, 0]]}),
    ("theta", {"dimension": 2, "time": {"end": 1.5},
               "model": dict(PAIR_2D, theta={"times": [0, 1 / 3, 2 / 3, 1],
                                             "snapshots": [PAIR_2D["theta"]] * 4})}),
    ("tolerances.norm_drfit", {"model": BUILTIN, "tolerances": {"norm_drfit": 1e-30}}),
    # JSON numbers too large for a double parse as inf
    pytest.param("time.end", '{"model": {"kind": "builtin", "name": "growing-metric-2d"}, '
                 '"time": {"end": 1e309}}', id="time.end-overflow"),
    pytest.param("time.start", '{"model": {"kind": "builtin", "name": "growing-metric-2d"}, '
                 '"time": {"start": -1e309}}', id="time.start-overflow"),
    ("dimension", {"dimension": 2.5, "model": PAIR_2D}),
    ("time.steps", {"model": BUILTIN, "time": {"steps": 2.5}}),
    ("time", {"model": BUILTIN, "time": {"steps": 1e300}}),
    ("dimension", {"dimension": 1e300, "model": PAIR_2D}),
    pytest.param("time", {"model": BUILTIN, "time": {"end": 5e-324, "steps": 20}},
                 id="time-zero-spacing"),
    pytest.param("time", {"model": BUILTIN, "time": {"start": -1.7e308, "end": 1.7e308}},
                 id="time-span-overflows"),
    pytest.param("initial_state", {"model": BUILTIN, "initial_state": [[1e-177, 0], [0, 0]]},
                 id="initial-state-norm-underflows"),
    pytest.param("h", '{"dimension": 2, "model": {"kind": "pair", '
                 '"h": [[[0, 0], [1, 0]], [[1, 0], [0, 1e309]]], '
                 '"theta": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}', id="h-entry-overflow"),
    pytest.param("initial_state", '{"model": {"kind": "builtin", "name": "growing-metric-2d"}, '
                 '"initial_state": [[1, 0], [0, 1e309]]}', id="initial-state-entry-overflow"),
    pytest.param("initial_state", {"model": BUILTIN, "initial_state": [[1e300, 0], [0, 0]]},
                 id="initial-state-norm-overflows"),
    # scalars must be JSON numbers, as tolerances must
    pytest.param("hbar", {"model": BUILTIN, "hbar": True}, id="hbar-bool"),
    pytest.param("hbar", {"model": BUILTIN, "hbar": "0.5"}, id="hbar-string"),
    pytest.param("time.start", {"model": BUILTIN, "time": {"start": False, "steps": 50}},
                 id="time.start-bool"),
    pytest.param("time.end", {"model": BUILTIN, "time": {"end": "1"}}, id="time.end-string"),
    pytest.param("time.steps", {"model": BUILTIN, "time": {"steps": "50"}},
                 id="time.steps-string"),
    pytest.param("dimension", {"dimension": "2", "model": PAIR_2D}, id="dimension-string"),
    # matrix and vector entries too: numpy's float conversion would read them as 0, 1 and 1
    pytest.param("h", {"dimension": 2, "model": dict(PAIR_2D, h=[[[False, 0], [True, 0]],
                                                                [[1, 0], [0, 0]]])},
                 id="h-entry-bool"),
    pytest.param("initial_state", {"model": BUILTIN, "initial_state": [[True, 0], [0, 0]]},
                 id="initial-state-entry-bool"),
    pytest.param("theta", {"dimension": 2, "model": dict(PAIR_2D, theta=[[[1, 0], [0, 0]],
                                                                        [[0, 0], ["1", 0]]])},
                 id="theta-entry-string"),
    # a JSON integer too large for a double
    pytest.param("hbar", '{"model": {"kind": "builtin", "name": "growing-metric-2d"}, '
                 '"hbar": 1' + 400 * "0" + '}', id="hbar-huge-int"),
    pytest.param("tolerances.qh", '{"model": {"kind": "builtin", "name": "growing-metric-2d"}, '
                 '"tolerances": {"qh": 1' + 400 * "0" + '}}', id="tolerances.qh-huge-int"),
])
def test_run_malformed_file_names_field_exit_3(tmp_path, capsys, field, doc):
    path = tmp_path / "scenario.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("key, value, text, why", [
    ("naive_floor", -1.0, "-1.0", "expected a finite positive number, got -1.0"),
    ("corrected_analytic", math.inf, "1e309", "expected a finite positive number, got inf"),
    ("qh", math.nan, "NaN", "expected a finite positive number, got nan"),
    ("eps_pos", 0.0, "0.0", "expected a finite positive number, got 0.0"),
    ("qh", 0, "0", "expected a finite positive number, got 0"),   # the value as given
    ("norm_drift", "1e-8", '"1e-8"', 'expected a number, got "1e-8"'),
], ids=["negative", "inf", "nan", "zero", "integer-zero", "string"])
def test_a_bad_tolerance_is_refused_in_code_as_in_a_file(tmp_path, capsys, key, value,
                                                         text, why):
    """A tolerance is a verdict's threshold: a naive_floor of -1 or a
    corrected_analytic of inf would pass its verdict whatever the residuals.
    A scenario built in code is refused with the text a file gets."""
    with pytest.raises(ValidationError) as exc:
        dataclasses.replace(make_builtin("growing-metric-2d"), tolerances={key: value})
    assert str(exc.value) == f"bad tolerances.{key}: {why}"
    path = tmp_path / "scenario.json"
    path.write_text('{"model": {"kind": "builtin", "name": "growing-metric-2d"}, '
                    f'"tolerances": {{"{key}": {text}}}}}')
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_hbar_in_code_is_checked_as_a_tolerance_is():
    """A finite positive real number, not a bool, stored as a float; anything
    else is a ValidationError with the text a tolerance gets. Scenario checks it
    when built, for a file's hbar as for one set in code."""
    base = make_builtin("growing-metric-2d")
    for hbar, why in ((True, "expected a number, got true"),
                      ("1", 'expected a number, got "1"'),
                      (10**400, "int too large to convert to float"),
                      (-1, "expected a finite positive number, got -1"),
                      (np.float64(-1), "expected a finite positive number, got -1.0"),
                      (math.nan, "expected a finite positive number, got nan")):
        with pytest.raises(ValidationError) as exc:
            dataclasses.replace(base, hbar=hbar)
        assert str(exc.value) == f"bad hbar: {why}"
    assert type(dataclasses.replace(base, hbar=2).hbar) is float


@pytest.mark.parametrize("field, kwargs", [
    ("hbar", lambda v: {"hbar": v}),
    ("tolerances.qh", lambda v: {"tolerances": {"qh": v}})], ids=["hbar", "qh"])
def test_a_value_json_cannot_encode_is_shown_by_its_repr(tmp_path, capsys, field, kwargs):
    """A code-built array or complex is shown unquoted, by its repr; a file's
    string of the same characters keeps its JSON quotes."""
    for value, shown in ((np.array(2.0), "array(2.)"), (1 + 0j, "(1+0j)")):
        with pytest.raises(ValidationError) as exc:
            make_builtin("growing-metric-2d", **kwargs(value))
        assert str(exc.value) == f"bad {field}: expected a number, got {shown}"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"model": {"kind": "builtin", "name": "growing-metric-2d"},
                                **kwargs("(1+0j)")}))
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == f'error: bad {field}: expected a number, got "(1+0j)"\n'


# name -> (the value in code, its JSON text)
_BAD_SCALARS = {"bool": (True, "true"), "string": ("1", '"1"'), "zero": (0, "0"),
                "negative": (-1, "-1"), "inf": (math.inf, "1e999"), "nan": (math.nan, "NaN"),
                "huge-int": (10**400, "1" + 400 * "0")}


@pytest.mark.parametrize("field, kwargs, text", [
    *[pytest.param("hbar", {"hbar": v}, f'"hbar": {t}', id=f"hbar-{name}")
      for name, (v, t) in _BAD_SCALARS.items()],
    *[pytest.param("tolerances.qh", {"tolerances": {"qh": v}}, f'"tolerances": {{"qh": {t}}}',
                   id=f"qh-{name}") for name, (v, t) in _BAD_SCALARS.items()],
    pytest.param("initial_state", {"initial_state": np.array([math.nan, 0])},
                 '"initial_state": [[NaN, 0], [0, 0]]', id="initial-state-nan"),
    pytest.param("initial_state", {"initial_state": np.array([1, complex(0, math.inf)])},
                 '"initial_state": [[1, 0], [0, 1e999]]', id="initial-state-inf"),
    *[pytest.param("time.start", {"span": (v, 1.0)}, f'"time": {{"start": {t}}}',
                   id=f"start-{name}") for name, (v, t) in
      {"bool": (True, "true"), "string": ("0", '"0"'), "nan": (math.nan, "NaN")}.items()],
    *[pytest.param("time.end", {"span": (0.0, v)}, f'"time": {{"end": {t}}}',
                   id=f"end-{name}") for name, (v, t) in
      {"inf": (math.inf, "1e999"), "huge-int": _BAD_SCALARS["huge-int"]}.items()],
    pytest.param("time.steps", {"steps": 2.5}, '"time": {"steps": 2.5}', id="steps-fraction"),
    pytest.param("time.steps", {"steps": "abc"}, '"time": {"steps": "abc"}', id="steps-string"),
    pytest.param("time", {"steps": 1}, '"time": {"steps": 1}', id="steps-one"),
    pytest.param("tolerances", {"tolerances": []}, '"tolerances": []', id="tolerances-list"),
])
def test_a_file_and_code_refuse_a_bad_value_with_one_text(tmp_path, capsys, field, kwargs,
                                                          text):
    """A scenario file and the same Scenario built in code are refused when built,
    with one text that names the field, and the file ends in exit 3."""
    with pytest.raises(ValidationError) as exc:
        make_builtin("growing-metric-2d", **kwargs)
    assert str(exc.value).startswith(f"bad {field}: ")
    path = tmp_path / "scenario.json"
    path.write_text('{"model": {"kind": "builtin", "name": "growing-metric-2d"}, ' + text + "}")
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_a_time_grid_built_in_code_is_refused_with_a_files_text():
    """TimeGrid checks its own fields, for make_builtin and with_steps as for a file."""
    for kwargs, text in (({"steps": 2.5}, "bad time.steps: expected an integer, got 2.5"),
                         ({"steps": 1}, "bad time: need from 2 to 10000000 steps, got 1"),
                         ({"span": (0, True)}, "bad time.end: expected a number, got true"),
                         ({"span": (math.nan, 1)},
                          "bad time.start: expected a finite number, got nan")):
        with pytest.raises(ValidationError) as exc:
            make_builtin("growing-metric-2d", **kwargs)
        assert str(exc.value) == text
    with pytest.raises(ValidationError, match="^bad time: t_end must exceed t_start$"):
        TimeGrid(1.0, 0.0, 4)
    with pytest.raises(ValidationError, match="^bad time.steps: expected a number, got true$"):
        make_builtin("growing-metric-2d").with_steps(True)


def test_a_whole_step_count_of_any_numeric_type_runs_as_the_int():
    """steps 300.0 and numpy's int64 300 are the grid of 300 steps: stored as an
    int, and run bit for bit as steps=300 in every Diagnostics column."""
    scenarios = (make_builtin("growing-metric-2d", steps=300),
                 make_builtin("growing-metric-2d", steps=300.0),
                 make_builtin("growing-metric-2d", steps=np.int64(300)),
                 make_builtin("growing-metric-2d").with_steps(np.int64(300)))
    assert all(type(s.grid.steps) is int for s in scenarios)
    runs = [dynamics.evolve(s) for s in scenarios]
    for d in runs[1:]:
        for name, want, got in zip(dynamics.Diagnostics._fields, runs[0], d):
            assert np.array_equal(want, got, equal_nan=True), name


@pytest.mark.parametrize("doc, err", [
    ({"dimension": 3, "model": PAIR_2D}, "theta is 2x2, dimension is 3"),
    ({"dimension": 2, "model": dict(PAIR_2D, h=[[[1, 0], [0, 0], [0, 0]],
                                                [[0, 0], [1, 0], [0, 0]],
                                                [[0, 0], [0, 0], [1, 0]]])},
     "h is 3x3, dimension is 2"),
], ids=["theta", "h"])
def test_a_dimension_that_disagrees_is_refused_naming_both_sizes(tmp_path, capsys, doc, err):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == f"error: {err}\n"


def test_a_scenario_without_initial_state_starts_from_e0_of_thetas_size(tmp_path):
    """Built in code as read from a file: no initial_state is e0, and the
    dimension is theta's."""
    theta = np.diag([1.0, 2.0, 3.0])
    s = dynamics.Scenario(name="e0", grid=TimeGrid(0.0, 1.0, 50),
                          theta=OperatorSchedule.constant_matrix(theta, (0.0, 1.0)),
                          h=OperatorSchedule.constant_matrix(np.ones((3, 3)), (0.0, 1.0)))
    assert s.dim == 3
    assert s.initial_state.dtype == complex and np.array_equal(s.initial_state, [1, 0, 0])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"dimension": 3, "time": {"steps": 50}, "model": {
        "kind": "pair", "h": pairs(np.ones((3, 3))), "theta": pairs(theta)}}))
    read = cli.load_scenario(str(path))
    assert np.array_equal(read.initial_state, s.initial_state)
    assert np.array_equal(verify.run_diagnostics(read).norm_phys,
                          verify.run_diagnostics(s).norm_phys)


@pytest.mark.parametrize("doc, err", [
    ({"model": BUILTIN, "time": {"end": 1e300, "steps": 20}},         # theta overflows
     "metric rejected: matrix entries must be finite at t=5e+298"),
    # u would overflow, but RK4 is unstable on these grids: refused before the walk
    ({"model": BUILTIN, "time": {"steps": 20}, "hbar": 1e-300},
     "time step 0.05 is too large for RK4 at hbar=1e-300: dt*||h||/hbar is at least "
     "5e+298 at t=0, above the stability limit 2*sqrt(2); take more steps"),
    ({"model": BUILTIN, "time": {"steps": 20}, "hbar": 1e-10},
     "time step 0.05 is too large for RK4 at hbar=1e-10: dt*||h||/hbar is at least "
     "5e+08 at t=0, above the stability limit 2*sqrt(2); take more steps"),
], ids=["doc0", "doc1", "doc2"])
def test_run_overflowing_scenario_names_t_exit_3(tmp_path, capsys, doc, err):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {err}\n"


@pytest.mark.parametrize("span, steps", [((1e6, 1e6 + 1e-6), "10000"),   # repeated times
                                         ((0.0, 1e-302), "1000000")])     # subnormal spacing
def test_run_steps_flag_giving_a_degenerate_grid_names_time_exit_3(tmp_path, capsys,
                                                                   span, steps):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"model": BUILTIN,
                                "time": {"start": span[0], "end": span[1], "steps": 2}}))
    code = cli.main(["run", "--scenario", str(path), "--steps", steps,
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: bad time: ")


def _csv_values(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _observed(stdout):
    return {line.split()[1]: float(line.split("observed=")[1].split()[0])
            for line in stdout.splitlines() if line.startswith(("PASS", "FAIL"))}


def test_run_on_a_tiny_span_judges_finite_residuals(tmp_path, capsys):
    """On [0, 1.2e-300] every rate is of order 1e300, so the residual norms
    square entries that overflow; fro_norms keeps them finite, and no verdict
    is judged on inf. The spacing 6e-302 is normal, so the grid stands."""
    end = 1.2e-300
    times = list(np.linspace(0.0, end, 5))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "dimension": 2, "time": {"start": 0.0, "end": end, "steps": 20},
        "model": dict(PAIR_2D, theta={"times": times, "snapshots": [
            [[[1, 0], [0, 0]], [[0, 0], [1 + k, 0]]] for k in range(5)]})}))
    cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    observed = _observed(capsys.readouterr().out)
    assert np.isfinite(_csv_values(tmp_path / "x.csv")).all()
    assert all(np.isfinite(v) for v in observed.values())
    assert observed["NAIVE_FAILS_IFF_METRIC_MOVES"] > 1e299


def test_run_on_an_rk4_unstable_grid_is_refused_naming_hbar_step_and_t(tmp_path, capsys):
    """At hbar = 1e-5 a step of 0.05 lies far outside RK4's stability interval
    (dt ||sigma_x|| / hbar = 5000 against 2 sqrt(2)): u would grow by ~3e13 a
    step. The grid is refused before any verdict is judged on such a u."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"model": BUILTIN, "hbar": 1e-5, "time": {"steps": 20}}))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: time step 0.05 is too large for RK4 at hbar=1e-05: "
                            "dt*||h||/hbar is at least 5000 at t=0, above the stability "
                            "limit 2*sqrt(2); take more steps\n")
    assert not (tmp_path / "x.csv").exists()


def test_run_on_a_lopsided_spectrum_is_refused_by_the_rk4_gate(tmp_path, capsys):
    """h = diag(1, 0) with dt = 3: dt ||h||_2 / hbar = 3 lies outside RK4's
    stability interval, though dt ||h||_F / sqrt(2) reads 2.12 < 2 sqrt(2).
    The largest column norm of h is ||h||_2 here, as for every diagonal h."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"dimension": 2, "time": {"end": 60.0, "steps": 20},
                                "model": dict(PAIR_2D, h=[[[1, 0], [0, 0]],
                                                          [[0, 0], [0, 0]]])}))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: time step 3 is too large for RK4 at hbar=1: "
                            "dt*||h||/hbar is at least 3 at t=0, above the stability "
                            "limit 2*sqrt(2); take more steps\n")


def test_run_on_a_spread_spectrum_is_refused_by_the_rk4_gate(tmp_path, capsys):
    """h = (1/2) [[1, 1], [1, 1]] with dt = 3: dt ||h||_2 / hbar = 3 lies outside
    RK4's stability interval, though every column norm of h is 1/sqrt(2) and
    a column bound reads 2.12. A constant h is gated on its eigenvalues."""
    path = tmp_path / "scenario.json"
    half = [[0.5, 0], [0.5, 0]]
    path.write_text(json.dumps({"dimension": 2, "time": {"end": 60.0, "steps": 20},
                                "model": dict(PAIR_2D, h=[half, half])}))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("error: time step 3 is too large for RK4 at hbar=1: "
                            "dt*||h||/hbar is at least 3 at t=0, above the stability "
                            "limit 2*sqrt(2); take more steps\n")
    assert not (tmp_path / "x.csv").exists()


def _same_output():
    spec = importlib.util.spec_from_file_location("same_output", SCRIPTS / "same_output.py")
    same_output = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_output)
    return same_output


def test_every_gate_file_of_same_output_ends_in_exit_3(tmp_path, capsys):
    """scripts/same_output.py compares these refusals between two commits:
    each run of a gate file must stay one, a single error line and exit 3."""
    same_output = _same_output()
    cases = same_output.gate_cases(str(tmp_path))
    assert len(cases) == len(same_output.GATE_FILES) + len(same_output.GATE_FLAGS)
    for label, args in cases:
        code = cli.main(args + ["--out", str(tmp_path / "x.csv")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, ""), label
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, label


def test_a_finite_difference_omega_dot_needs_three_steps(tmp_path, capsys):
    """On two steps, the one-sided rows of the central difference of omega would
    read past the grid's other end: a run and the ur_corr probe refuse the grid
    alike, naming the step count, and three steps run."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_same_output().GATE_FILES["two-step-sampled-metric"]))
    out = str(tmp_path / "x.csv")
    code = cli.main(["run", "--scenario", str(path), "--steps", "2", "--out", out])
    err = capsys.readouterr().err
    assert code == 3
    assert err == ("error: 2 steps are too few for the central difference of omega: "
                   "take at least 3 steps\n")
    with pytest.raises(ValidationError) as exc:
        verify.convergence_order(cli.load_scenario(str(path)).with_steps(2), "ur_corr")
    assert f"error: {exc.value}\n" == err
    code = cli.main(["run", "--scenario", str(path), "--steps", "3", "--out", out])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    assert len(_csv_values(out)) == 2   # the two interior nodes


@pytest.mark.parametrize("name, t, res_corrected", [
    ("moving-pair-0.5-0.8", 0.5015, 1.17449e-6), ("moving-pair-0-5", 4.975, 1.065006e-4)])
def test_omega_dot_rows_are_chosen_by_half_grid_index(tmp_path, name, t, res_corrected):
    """Only the first two and last two half-grid points take the one-sided rule:
    at the points 2 and 2N - 2 omega_dot is the central difference bit for bit,
    on grids where comparing t -+ dt with the span in floating point put node 1
    or node N - 1 on a one-sided row and doubled its error."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_same_output().EDGE_FILES[name]))
    s = cli.load_scenario(str(path))
    n = s.grid.steps
    (w, _), w_dot = s.omega_schedule().on_block(dynamics.GridBlock(s.grid, 0, n))
    for i in (2, 2 * n - 2):
        assert np.array_equal(w_dot[i], (w[i + 2] - w[i - 2]) / (2.0 * s.grid.spacing)), i
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--scenario", str(path), "--out", str(out)]) in (0, 1)
    rows = _csv_values(out)
    row = rows[np.flatnonzero(np.isclose(rows[:, 0], t, rtol=0, atol=1e-12))[0]]
    assert row[cli.CSV_COLUMNS.index("res_corrected")] == pytest.approx(res_corrected,
                                                                         rel=1e-5)


def test_run_with_a_huge_constant_metric_reconstructs_it(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    big = [[[1e300, 0], [0, 0]], [[0, 0], [1e300, 0]]]
    path.write_text(json.dumps({"dimension": 2, "time": {"steps": 200},
                                "model": dict(PAIR_2D, theta=big)}))
    cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    res_metric = _csv_values(tmp_path / "x.csv")[:, cli.CSV_COLUMNS.index("res_metric")]
    assert np.isfinite(res_metric).all() and res_metric.max() < 1e-12
    assert "PASS  METRIC_RECONSTRUCTED" in capsys.readouterr().out


@pytest.mark.parametrize("scenario", [1e-300, 1.0, 1e300, *sorted(cli.models.BUILTINS)])
def test_run_passes_every_verdict_without_runtime_warnings(tmp_path, capsys, scenario):
    """theta = c I is static at every scale c: motion is judged by
    ||omega^-1 omega_dot||, and ||theta|| neither underflows nor overflows in
    res_metric. The builtins pass under the same filter."""
    if isinstance(scenario, float):
        path = tmp_path / "scenario.json"
        theta = [[[scenario, 0], [0, 0]], [[0, 0], [scenario, 0]]]
        path.write_text(json.dumps({"dimension": 2, "time": {"steps": 2000},
                                    "model": dict(PAIR_2D, theta=theta)}))
        scenario = str(path)
    code = cli.main(["run", "--scenario", scenario, "--out", str(tmp_path / "x.csv")])
    lines = [line.split()[:2] for line in capsys.readouterr().out.splitlines()
             if line.startswith(("PASS", "FAIL"))]
    assert lines == [["PASS", name] for name in ("NORM_CONSERVED", "METRIC_RECONSTRUCTED",
                                                 "QH_HOLDS", "CORRECTED_GENERATOR_OK",
                                                 "NAIVE_FAILS_IFF_METRIC_MOVES")]
    assert code == 0


# gate files whose first refusal in a run is a gate on the metric, which the u
# probe of a pair scenario never reads
THETA_REFUSED = ("not-positive-definite", "ill-conditioned", "ill-conditioned-mid-span",
                 "theta-overflows", "two-step-sampled-metric",
                 "metric-dips-off-the-coarse-grids")


def test_convergence_order_refuses_every_gate_file_with_the_run_message(tmp_path, capsys):
    for label, args in _same_output().gate_cases(str(tmp_path)):
        cli.main(args + ["--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        steps = int(args[args.index("--steps") + 1]) if "--steps" in args else None
        try:
            s = cli.load_scenario(args[2], steps)
        except QuasihermError as e:   # refused at parse, as the run was
            assert f"error: {e}\n" == err, label
            continue
        for probe in ("u", "ur_corr"):
            if probe == "u" and Path(args[2]).stem in THETA_REFUSED:
                continue
            with pytest.raises(QuasihermError) as exc:
                verify.convergence_order(s, probe)
            assert f"error: {exc.value}\n" == err, (label, probe)


@pytest.mark.parametrize("probe", ["u", "ur_corr"])
def test_convergence_order_refuses_a_non_hermitian_h_as_a_run_does(probe):
    """A pair file whose h is not Hermitian, under a moving sampled theta."""
    s = scenario_io.parse_scenario(json.dumps({
        "dimension": 2, "time": {"start": 0.0, "end": 1.0, "steps": 50},
        "model": {"kind": "pair", "h": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
                  "theta": {"times": [0.0, 1 / 3, 2 / 3, 1.0], "snapshots": [
                      [[[1 + k / 3, 0], [0, 0]], [[0, 0], [1, 0]]] for k in range(4)]}}}))
    with pytest.raises(ValidationError) as exc:
        verify.convergence_order(s, probe)
    assert str(exc.value) == "pair-mode generator not Hermitian at t=0 (defect 1.414e+00)"
