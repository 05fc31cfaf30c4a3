import json
import math

import numpy as np
import pytest

from quasiherm import cli, scenario_io, verify
from quasiherm.errors import ParseError, ValidationError


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
    text = json.dumps({
        "dimension": 2,
        "time": {"start": 0.0, "end": 1.0, "steps": 10},
        "model": {
            "kind": "direct",
            "H": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
            "theta": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
        },
    })
    with pytest.raises(ValidationError, match="1.414"):
        scenario_io.parse_scenario(text)


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
    rows = verify.run_diagnostics(s)
    assert len(rows) == 49


def test_serialize_roundtrip_bit_identical_diagnostics():
    s1 = cli.load_scenario("growing-metric-2d", steps=300)
    s2 = scenario_io.parse_scenario(scenario_io.serialize_scenario(s1))
    assert verify.run_diagnostics(s1) == verify.run_diagnostics(s2)


@pytest.mark.parametrize("kind", ["pair", "direct"])
def test_serialize_roundtrip_of_a_file(kind, sampled_pair_text):
    text = sampled_pair_text if kind == "pair" else json.dumps({
        "dimension": 2, "time": {"start": 0.0, "end": 1.0, "steps": 300},
        "model": {"kind": "direct",
                  "H": [[[0, 0], [2 ** 0.5, 0]], [[2 ** -0.5, 0], [0, 0]]],
                  "theta": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]},
        "tolerances": {"qh": 1e-9}})
    s1 = scenario_io.parse_scenario(text)
    s2 = scenario_io.parse_scenario(scenario_io.serialize_scenario(s1))
    assert s2.kind == kind
    assert verify.run_diagnostics(s1) == verify.run_diagnostics(s2)


def _csv_per_cell(rows):
    """The CSV report formatted one f-string per cell: the reference for rows_to_csv."""
    lines = [",".join(cli.CSV_COLUMNS)]
    for r in rows:
        lines.append(",".join(f"{getattr(r, c):.17g}" for c in cli.CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def test_rows_to_csv_matches_per_cell_formatting(growing_rows):
    assert verify.DiagnosticsRow._fields[:len(cli.CSV_COLUMNS)] == cli.CSV_COLUMNS
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1]
    shifted = [verify.DiagnosticsRow(*(odd[(i + j) % 7] for j in range(7)), omega_motion=0.0)
               for i in range(7)]
    for rows in (growing_rows, shifted, []):
        assert cli.rows_to_csv(rows) == _csv_per_cell(rows)


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


@pytest.mark.parametrize("doc, err", [
    ({"model": BUILTIN, "time": {"end": 1e300, "steps": 20}},         # theta overflows
     "metric rejected at t=5e+298: matrix entries must be finite at t=5e+298"),
    ({"model": BUILTIN, "time": {"steps": 20}, "hbar": 1e-300},      # u overflows
     "matrix entries must be finite at t=0.05"),
    ({"model": BUILTIN, "time": {"steps": 20}, "hbar": 1e-10},       # u overflows later
     "matrix entries must be finite at t=0.5"),
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


def test_run_on_an_rk4_unstable_grid_prints_only_verdicts(tmp_path, capsys):
    """At hbar = 1e-5 a step of 0.05 lies far outside RK4's stability region:
    u grows by ~3e13 a step, so u†u overflows in the unitarity defect. That
    product raises no RuntimeWarning, and the run ends in failed verdicts."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"model": BUILTIN, "hbar": 1e-5, "time": {"steps": 20}}))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert "FAIL  NORM_CONSERVED" in captured.out
    defect = _csv_values(tmp_path / "x.csv")[:, cli.CSV_COLUMNS.index("unitarity_defect")]
    assert not np.isfinite(defect).all()


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
