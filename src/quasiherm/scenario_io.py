"""JSON scenario files.

Schema (all matrices are row-major nests of [re, im] pairs):

    {
      "dimension": 2,
      "hbar": 1.0,
      "time": {"start": 0.0, "end": 1.0, "steps": 2000},
      "model": {"kind": "builtin", "name": "growing-metric-2d"}
             | {"kind": "pair",   "h": <schedule>, "theta": <schedule>}
             | {"kind": "direct", "H": <schedule>, "theta": <schedule>},
      "initial_state": [[1,0],[0,0]],
      "tolerances": { ... optional overrides ... }
    }

A <schedule> is either a constant matrix or a sampled schedule
{"times": [...], "snapshots": [<matrix>, ...]}.

parse_scenario maps the JSON onto a TimeGrid and a Scenario and checks no
number itself: it converts the matrices, passes time.start, time.end,
time.steps, hbar and the tolerances on as given, and the TimeGrid and the
Scenario check them as they check the same values in code, with the same
texts. It checks only the file's own structure: "time" is a JSON object,
model.kind is known, and "dimension" (an integer, checked as time.steps
is) is theta's size, Scenario.dim. An absent initial_state is e0.
"""

from __future__ import annotations

import json

from . import linalg, models
from .dynamics import Scenario
from .errors import ParseError, ValidationError
from .schedules import OperatorSchedule, TimeGrid, _scalar


def _convert(what: str, conv, value):
    """conv(value); a malformed value is a ValidationError that names what."""
    try:
        return conv(value)
    except (KeyError, ValueError, TypeError, OverflowError) as e:   # Overflow: a huge JSON int
        raise ValidationError(f"bad {what}: {e}") from e


def _section(obj: dict, key: str) -> dict:
    """obj[key] as a JSON object, {} when absent; anything else names key."""
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError(f"bad {key}: expected a JSON object, got {json.dumps(value)}")
    return value


def _parse_schedule(obj, span, what: str) -> OperatorSchedule:
    if isinstance(obj, dict):
        return _convert(f"sampled schedule for {what}", lambda o: OperatorSchedule.sampled(
            o["times"], [linalg.matrix_from_pairs(s) for s in o["snapshots"]]), obj)
    return _convert(f"matrix for {what}", lambda o: OperatorSchedule.constant_matrix(
        linalg.matrix_from_pairs(o), span), obj)


def parse_scenario(text: str) -> Scenario:
    """The Scenario a file describes, checked for structure only: types, grid,
    dimensions, span coverage, initial_state and tolerances. Walking admits it."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.lineno, e.msg) from None
    if not isinstance(obj, dict):
        raise ValidationError("scenario file must contain a JSON object")
    model = obj.get("model")
    if not isinstance(model, dict) or "kind" not in model:
        raise ValidationError("missing model.kind")
    kind = model["kind"]

    time = _section(obj, "time")
    grid = TimeGrid(time.get("start", 0.0), time.get("end", 1.0),
                    time.get("steps", models.DEFAULT_STEPS))
    span = (grid.t_start, grid.t_end)
    hbar = obj.get("hbar", 1.0)   # Scenario checks hbar and the tolerances
    tolerances = obj.get("tolerances", {})
    initial = obj.get("initial_state")
    initial_state = (None if initial is None
                     else _convert("initial_state", linalg.vector_from_pairs, initial))

    if kind == "builtin":
        return models.make_builtin(model.get("name", ""), steps=grid.steps, span=span, hbar=hbar,
                                   initial_state=initial_state, tolerances=tolerances)
    if kind not in ("pair", "direct"):
        raise ValidationError(f"unknown model kind {kind!r}")
    dim = _scalar("dimension", obj.get("dimension", 0), "integer")
    if dim < 1:
        raise ValidationError("missing or invalid dimension")
    theta = _parse_schedule(model.get("theta"), span, "theta")
    what, field = ("h", "h") if kind == "pair" else ("H", "h_big")
    gen = _parse_schedule(model.get(what), span, what)
    if theta.dim != dim:
        raise ValidationError(f"theta is {theta.dim}x{theta.dim}, dimension is {dim}")
    return Scenario(name=obj.get("name", "custom"), grid=grid, theta=theta,
                    initial_state=initial_state, hbar=hbar, tolerances=tolerances,
                    **{field: gen})
