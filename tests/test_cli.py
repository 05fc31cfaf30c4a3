import json

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


@pytest.mark.parametrize("flag, value", [("--steps", "1"), ("--hbar", "-1")])
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
])
def test_run_malformed_file_names_field_exit_3(tmp_path, capsys, field, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert field in capsys.readouterr().err
