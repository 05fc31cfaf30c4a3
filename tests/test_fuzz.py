"""Fuzzing of scenario files: whatever a file holds, ``quasiherm run`` ends
with one of its documented exit codes (0-3) and never with a traceback.

Each example starts from a valid document and applies a few mutations:
a value anywhere in the document replaced, a key deleted, an unknown key
added, or the JSON text cut short. Numbers drawn for a replacement are
at most 50 apart from a few extremes (±inf, nan, ±1e300, 5e-324) that a
file may hold, and a step count of 1e300 is refused, so no mutated run
takes more than 50 steps.
"""

import copy
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasiherm import cli

SIGMA_X = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
EYE = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
TIME = {"start": 0.0, "end": 1.0, "steps": 20}
TIMES = [0.0, 1 / 3, 2 / 3, 1.0]

DOCS = [
    {"model": {"kind": "builtin", "name": "growing-metric-2d"}, "time": TIME,
     "initial_state": [[1, 0], [0, 0]], "tolerances": {"norm_drift": 1e-8}},
    {"dimension": 2, "hbar": 1.0, "time": TIME,
     "model": {"kind": "pair", "h": SIGMA_X,
               "theta": {"times": TIMES,
                         "snapshots": [[[[1, 0], [0, 0]], [[0, 0], [1 + t * t, 0]]]
                                       for t in TIMES]}}},
    {"dimension": 2, "time": TIME,
     "model": {"kind": "direct",
               "H": [[[0, 0], [math.sqrt(2), 0]], [[1 / math.sqrt(2), 0], [0, 0]]],
               "theta": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}},
    {"dimension": 2, "time": TIME, "model": {"kind": "pair", "h": SIGMA_X, "theta": EYE}},
]

LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 50),
    st.floats(-50.0, 50.0),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324, -0.0]),
    st.sampled_from(["", "abc", "2", "nan", "builtin", "pair", "direct",
                     "growing-metric-2d"]),
    st.sampled_from([[], {}, [1], [[1, 0]], EYE, SIGMA_X, {"times": TIMES}]),
).map(copy.deepcopy)   # later mutations must not reach the shared originals


def _paths(node, prefix=()):
    """Every path into node: dict keys and list indices, the root included."""
    yield prefix
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutate(doc, data):
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(LEAVES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    op = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "replace":
        parent[path[-1]] = data.draw(LEAVES)
    elif op == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[data.draw(st.sampled_from(["extra", "tolerance", "Time"]))] = data.draw(LEAVES)
    return doc


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_run_on_a_mutated_file_ends_with_a_documented_exit_code(tmp_path, capsys, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(DOCS)))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(doc, data)
    text = json.dumps(doc)
    if data.draw(st.booleans()):
        text = text[:data.draw(st.integers(0, len(text)))]
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "x.csv")])
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert capsys.readouterr().err.startswith("error: ")
    capsys.readouterr()
