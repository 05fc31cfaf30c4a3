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

parse_scenario maps the JSON onto a TimeGrid, schedules and a Scenario and
checks no number itself: it decodes the [re, im] pairs of the matrices and the
initial state, passes them, the snapshot times, the time fields, hbar and the
tolerances on, and the schedules, TimeGrid and Scenario check them as in code
(entries and times under linalg.complex_entries), with the same texts. It
checks only the file's own structure: "time" is a JSON object, model.kind is
known, and "dimension" (an integer, checked as time.steps is) is the built
Scenario's dim.
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


def _parse_schedule(obj, span, what: str) -> OperatorSchedule:
    if isinstance(obj, dict):
        return _convert(f"sampled schedule for {what}", lambda o: OperatorSchedule.sampled(
            o["times"], [linalg.matrix_from_pairs(s) for s in o["snapshots"]]), obj)
    return _convert(f"matrix for {what}", lambda o: OperatorSchedule.constant_matrix(
        linalg.matrix_from_pairs(o), span), obj)


def _initial_state(obj):   # decoded after the schedules, which code builds first
    v = obj.get("initial_state")
    return None if v is None else _convert("initial_state", linalg.vector_from_pairs, v)


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

    time = obj.get("time", {})
    if not isinstance(time, dict):
        raise ValidationError(f"bad time: expected a JSON object, got {json.dumps(time)}")
    grid = TimeGrid(time.get("start", 0.0), time.get("end", 1.0),
                    time.get("steps", models.DEFAULT_STEPS))
    span = (grid.t_start, grid.t_end)
    hbar = obj.get("hbar", 1.0)   # Scenario checks hbar and the tolerances
    tolerances = obj.get("tolerances", {})

    if kind == "builtin":
        return models.make_builtin(model.get("name", ""), steps=grid.steps, span=span, hbar=hbar,
                                   initial_state=_initial_state(obj), tolerances=tolerances)
    if kind not in ("pair", "direct"):
        raise ValidationError(f"unknown model kind {kind!r}")
    dim = _scalar("dimension", obj.get("dimension", 0), "integer")
    if dim < 1:
        raise ValidationError("missing or invalid dimension")
    theta = _parse_schedule(model.get("theta"), span, "theta")
    what, field = ("h", "h") if kind == "pair" else ("H", "h_big")
    gen = _parse_schedule(model.get(what), span, what)
    s = Scenario(name=obj.get("name", "custom"), grid=grid, theta=theta,
                 initial_state=_initial_state(obj), hbar=hbar, tolerances=tolerances,
                 **{field: gen})
    if s.dim != dim:
        raise ValidationError(f"theta is {s.dim}x{s.dim}, dimension is {dim}")
    return s
