"""Differential testing of the two ways to build a scenario (McKeeman,
"Differential testing for software", Digital Technical Journal 10(1), 1998):
a builtin scenario file run by ``quasiherm run`` and the same values given to
``make_builtin`` in code are either both admitted, with bit-equal Diagnostics
and the same exit code, or both refused, with the same text.

Each example mutates the builtin document of test_fuzz in the fields that
``make_builtin`` takes (time.start, time.end, time.steps, hbar and the
tolerances; a step count drawn there is at most 50) and draws an initial
state in code: absent, or a list of 0 to 4 entries that are numbers, inf,
nan, bools (numpy's too), strings or None. The file holds each entry x as the
pair [re x, im x], or [x, 0] when x is not a number.
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

# test_fuzz's builtin document with an hbar to mutate; the initial state is drawn apart
BUILTIN_DOC = {**{k: v for k, v in DOCS[0].items() if k != "initial_state"}, "hbar": 1.0}
ENTRIES = st.one_of(
    st.integers(-3, 50), st.floats(-50.0, 50.0),
    st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan, complex(1.0, math.inf), 1e300, 5e-324,
                     -0.0, 10**400]),
    st.booleans(), st.sampled_from([np.True_, np.False_]),
    st.sampled_from(["", "a", "1", "nan"]), st.none())


def _field(path) -> bool:
    """A path into a value that make_builtin takes."""
    return (path[:1] in (("hbar",), ("tolerances",))
            or path in (("time", "start"), ("time", "end"), ("time", "steps")))


def _pair(x):
    """x as the [re, im] pair a file holds."""
    if isinstance(x, (int, float, complex)) and not isinstance(x, bool):
        return [x.real, x.imag]
    return [bool(x) if isinstance(x, np.bool_) else x, 0]


def _in_code(doc, initial):
    """make_builtin and evolve on the values of doc and on initial: the exit code
    and standard error of `quasiherm run`, and the run's Diagnostics."""
    time = doc["time"]
    kwargs = {key: doc[key] for key in ("hbar", "tolerances") if key in doc}
    try:
        s = make_builtin("growing-metric-2d", steps=time.get("steps", DEFAULT_STEPS),
                         span=(time.get("start", 0.0), time.get("end", 1.0)),
                         initial_state=initial, **kwargs)
        d = dynamics.evolve(s)
    except ValidationError as e:
        return cli.EXIT_VALIDATION, f"error: {e}\n", None
    passed = all(v.passed for v in verify.verdicts(verify.diagnostics_from_result(d), s))
    return cli.EXIT_OK if passed else cli.EXIT_VERDICT_FAIL, "", d


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
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    want_code, want_err, want = _in_code(json.loads(text), initial)
    assert (code, err) == (want_code, want_err)
    if want is not None:
        got = dynamics.evolve(scenario_io.parse_scenario(text))
        for name, a, b in zip(dynamics.Diagnostics._fields, want, got):
            assert np.array_equal(a, b, equal_nan=True), name
