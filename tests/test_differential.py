"""Differential testing of the two ways to build a scenario (McKeeman,
"Differential testing for software", Digital Technical Journal 10(1), 1998):
a scenario file run by ``quasiherm run`` and the same values given to the
builders in code are either both admitted, with bit-equal Diagnostics and the
same exit code, or both refused, with the same text.

Each example mutates a document in the fields that ``make_builtin`` takes
(time.start, time.end, time.steps, hbar and the tolerances; a step count drawn
there is at most 50) and draws an initial state in code: absent, or a list of
0 to 4 entries that are numbers, inf, nan, bools (numpy's too), strings or
None. The file holds each entry x as the pair [re x, im x], or [x, 0] when x
is not a number.

The document is test_fuzz's builtin one, built in code by ``make_builtin``, or
a d = 2 pair or direct one whose metric and generator are each a constant or a
sampled schedule, built in code by ``OperatorSchedule.constant_matrix`` or
``sampled`` and ``Scenario``. There the draw also replaces matrix entries
(drawn as the initial state's are) and snapshot times (numbers, inf, nan,
bools, strings or None, or the time it replaces as a string or a bool). A
schedule refuses with its own text, which a file gives after its field: "bad
matrix for h: ...", "bad sampled schedule for theta: ...". Whatever else the
two sides do, a draw that holds an entry or a time that is not a number is
refused.
"""

import copy
import json
import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_fuzz import DOCS, _mutate

from quasiherm import cli, dynamics, make_builtin, scenario_io, verify
from quasiherm.errors import ValidationError
from quasiherm.models import DEFAULT_STEPS
from quasiherm.schedules import OperatorSchedule, TimeGrid

# test_fuzz's builtin document with an hbar to mutate; the initial state is drawn apart
BUILTIN_DOC = {**{k: v for k, v in DOCS[0].items() if k != "initial_state"}, "hbar": 1.0}
ENTRIES = st.one_of(
    st.integers(-3, 50), st.floats(-50.0, 50.0),
    st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan, complex(1.0, math.inf), 1e300, 5e-324,
                     -0.0, 10**400]),
    st.booleans(), st.sampled_from([np.True_, np.False_]),
    st.sampled_from(["", "a", "1", "nan"]), st.none())
# a snapshot time is what a file can hold, so not complex
TIMES = st.one_of(
    st.integers(-3, 50), st.floats(-50.0, 50.0),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, 5e-324, -0.0, 10**400]),
    st.booleans(), st.sampled_from([np.True_, np.False_]),
    st.sampled_from(["", "a", "1", "0.25", "nan"]), st.none())
SNAPSHOT_TIMES = [0.0, 0.25, 0.5, 0.75, 1.0]


def _sampled(f):
    """The sampled schedule of f, a nest of entries at each of SNAPSHOT_TIMES."""
    return {"times": list(SNAPSHOT_TIMES), "snapshots": [f(t) for t in SNAPSHOT_TIMES]}


# (kind, theta's form, the generator's form) -> (theta, the generator), each a
# 2 x 2 nest of entries or a sampled schedule; theta is diag(1, 2) or diag(1, 1 + t^2).
# Each runs as it stands: in direct mode theta H is Hermitian at every t, since
# the interpolant reproduces entries of degree 2 in t.
_THETA = {"constant": [[1, 0], [0, 2]], "sampled": _sampled(lambda t: [[1, 0], [0, 1 + t * t]])}
_GEN = {
    ("pair", "constant"): [[0, 1], [1, 0]],
    ("pair", "sampled"): _sampled(lambda t: [[t, 1], [1, -t]]),
    ("direct", "constant", "constant"): [[0, 2], [1, 0]],
    ("direct", "constant", "sampled"): _sampled(lambda t: [[t, 2], [1, -t]]),
    ("direct", "sampled", "constant"): [[1, 0], [0, -1]],
    ("direct", "sampled", "sampled"): _sampled(lambda t: [[t, 1 + t * t], [1, -t]]),
}
MODELS = [(kind, theta, gen) for kind in ("pair", "direct")
          for theta in ("constant", "sampled") for gen in ("constant", "sampled")]


def _model(kind, theta, gen):
    """Fresh copies of the metric and the generator of one of MODELS."""
    key = (kind, gen) if kind == "pair" else (kind, theta, gen)
    return copy.deepcopy(_THETA[theta]), copy.deepcopy(_GEN[key])


def _field(path) -> bool:
    """A path into a value that make_builtin takes."""
    return (path[:1] in (("hbar",), ("tolerances",))
            or path in (("time", "start"), ("time", "end"), ("time", "steps")))


def _number(x) -> bool:
    return isinstance(x, (int, float, complex)) and not isinstance(x, bool)


def _plain(x):
    """x as a file holds it: a numpy bool as JSON's."""
    return bool(x) if isinstance(x, np.bool_) else x


def _pair(x):
    """x as the [re, im] pair a file holds."""
    return [x.real, x.imag] if _number(x) else [_plain(x), 0]


def _encoded(schedule):
    """A schedule, a nest of entries or a dict of times and snapshots, as a file holds it."""
    if isinstance(schedule, dict):
        return {"times": [_plain(t) for t in schedule["times"]],
                "snapshots": [_encoded(s) for s in schedule["snapshots"]]}
    return [[_pair(x) for x in row] for row in schedule]


def _values(schedule) -> list:
    """Every snapshot time and matrix entry of a schedule."""
    if isinstance(schedule, dict):
        return [*schedule["times"], *(x for s in schedule["snapshots"] for x in _values(s))]
    return [x for row in schedule for x in row]


def _built(what, schedule, span):
    """The schedule built in code; a refusal is raised with a file's text."""
    sampled = isinstance(schedule, dict)
    try:
        if sampled:
            return OperatorSchedule.sampled(schedule["times"], schedule["snapshots"])
        return OperatorSchedule.constant_matrix(schedule, span)
    except (ValueError, TypeError, OverflowError) as e:
        raise ValidationError(f"bad {'sampled schedule' if sampled else 'matrix'} "
                              f"for {what}: {e}") from None


def _in_code(build):
    """evolve on the Scenario that build() makes: the exit code and standard error
    of `quasiherm run`, and the run's Diagnostics."""
    try:
        s = build()
        d = dynamics.evolve(s)
    except ValidationError as e:
        return cli.EXIT_VALIDATION, f"error: {e}\n", None
    passed = all(v.passed for v in verify.verdicts(verify.diagnostics_from_result(d), s))
    return cli.EXIT_OK if passed else cli.EXIT_VERDICT_FAIL, "", d


def _builtin(doc, initial):
    """make_builtin on the values of doc and on initial."""
    time = doc["time"]
    kwargs = {key: doc[key] for key in ("hbar", "tolerances") if key in doc}
    return make_builtin("growing-metric-2d", steps=time.get("steps", DEFAULT_STEPS),
                        span=(time.get("start", 0.0), time.get("end", 1.0)),
                        initial_state=initial, **kwargs)


def _pair_or_direct(doc, kind, theta, gen, initial):
    """The grid, the schedules and the Scenario on the values of doc, on theta and
    gen (nests of entries or sampled schedules) and on initial, in a file's order."""
    time = doc["time"]
    kwargs = {key: doc[key] for key in ("hbar", "tolerances") if key in doc}
    grid = TimeGrid(time.get("start", 0.0), time.get("end", 1.0), time.get("steps", DEFAULT_STEPS))
    span = (grid.t_start, grid.t_end)
    theta = _built("theta", theta, span)
    gen = {"h" if kind == "pair" else "h_big": _built("h" if kind == "pair" else "H", gen, span)}
    return dynamics.Scenario(name="custom", grid=grid, theta=theta, initial_state=initial,
                             **gen, **kwargs)


def _runs_alike(tmp_path, capsys, text, want_code, want_err, want):
    """`quasiherm run` on text ends with want_code and want_err, and when want is not
    None, the file's Diagnostics are want's bit for bit."""
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    assert (code, capsys.readouterr().err) == (want_code, want_err)
    if want is not None:
        got = dynamics.evolve(scenario_io.parse_scenario(text))
        for name, a, b in zip(dynamics.Diagnostics._fields, want, got):
            assert np.array_equal(a, b, equal_nan=True), name


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_file_and_code_admit_and_refuse_alike(tmp_path, capsys, data):
    doc = copy.deepcopy(BUILTIN_DOC)
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data, keep=_field)
    initial = data.draw(st.one_of(st.none(), st.lists(ENTRIES, max_size=4)))
    if initial is not None:
        doc["initial_state"] = [_pair(x) for x in initial]
    text = json.dumps(doc)
    want_code, want_err, want = _in_code(lambda: _builtin(json.loads(text), initial))
    if not all(map(_number, initial or [])):
        assert want_code == cli.EXIT_VALIDATION
    _runs_alike(tmp_path, capsys, text, want_code, want_err, want)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_pair_or_direct_file_and_code_admit_and_refuse_alike(tmp_path, capsys, data):
    kind, *forms = data.draw(st.sampled_from(MODELS))
    theta, gen = _model(kind, *forms)
    sampled = [s for s in (theta, gen) if isinstance(s, dict)]
    doc = {"dimension": 2, "hbar": 1.0, "time": {"start": 0.0, "end": 1.0, "steps": 20},
           "tolerances": {"norm_drift": 1e-8}}
    for _ in range(data.draw(st.integers(0, 3))):
        where = data.draw(st.sampled_from(["field", "entry"] + ["time"] * bool(sampled)))
        if where == "field":
            doc = _mutate(doc, data, keep=_field)
        elif where == "entry":
            m = data.draw(st.sampled_from([theta, gen]))
            if isinstance(m, dict):
                m = data.draw(st.sampled_from(m["snapshots"]))
            m[data.draw(st.integers(0, 1))][data.draw(st.integers(0, 1))] = data.draw(ENTRIES)
        else:
            times = data.draw(st.sampled_from(sampled))["times"]
            k = data.draw(st.integers(0, len(times) - 1))
            disguised = st.sampled_from([str(times[k]), bool(times[k])])   # "0.25", True
            times[k] = data.draw(st.one_of(TIMES, disguised))
    initial = data.draw(st.one_of(st.none(), st.lists(ENTRIES, max_size=4)))
    if initial is not None:
        doc["initial_state"] = [_pair(x) for x in initial]
    doc["model"] = {"kind": kind, "theta": _encoded(theta),
                    "h" if kind == "pair" else "H": _encoded(gen)}
    text = json.dumps(doc)
    want_code, want_err, want = _in_code(
        lambda: _pair_or_direct(json.loads(text), kind, theta, gen, initial))
    if not all(map(_number, _values(theta) + _values(gen) + (initial or []))):
        assert want_code == cli.EXIT_VALIDATION
    _runs_alike(tmp_path, capsys, text, want_code, want_err, want)


def test_every_pair_and_direct_model_runs_as_it_stands(tmp_path, capsys):
    """The documents the draws mutate are admitted, in a file as in code, so a
    draw that leaves them be compares whole runs."""
    for kind, *forms in MODELS:
        theta, gen = _model(kind, *forms)
        doc = {"dimension": 2, "time": {"steps": 20}, "model": {
            "kind": kind, "theta": _encoded(theta), "h" if kind == "pair" else "H": _encoded(gen)}}
        want_code, want_err, want = _in_code(
            lambda: _pair_or_direct(doc, kind, theta, gen, None))
        assert want is not None, (kind, forms, want_err)
        _runs_alike(tmp_path, capsys, json.dumps(doc), want_code, want_err, want)
