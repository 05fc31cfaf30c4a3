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
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import linalg, models, spaces
from .dynamics import Scenario, validate_scenario
from .errors import ParseError, ValidationError
from .schedules import OperatorSchedule, TimeGrid


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


def _number(value) -> int | float:
    """A JSON number, refusing the bools and strings float() and int() would take."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    return value


def _finite(value) -> float:
    """A finite float; JSON turns a number too large for a double into inf."""
    x = float(_number(value))
    if not math.isfinite(x):
        raise ValueError(f"expected a finite number, got {x!r}")
    return x


def _integer(value) -> int:
    """An integer, refusing the truncation int() would apply to 2.5."""
    if isinstance(_number(value), float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return int(value)


def _tolerance(value) -> float:
    """A tolerance from a scenario file: a finite positive JSON number."""
    if not (math.isfinite(_number(value)) and value > 0):
        raise ValueError(f"expected a finite positive number, got {value!r}")
    return float(value)


def _parse_schedule(obj, span, what: str) -> OperatorSchedule:
    if isinstance(obj, dict):
        return _convert(f"sampled schedule for {what}", lambda o: OperatorSchedule.sampled(
            o["times"], [linalg.matrix_from_pairs(s) for s in o["snapshots"]]), obj)
    return _convert(f"matrix for {what}", lambda o: OperatorSchedule.constant_matrix(
        linalg.matrix_from_pairs(o), span), obj)


def parse_scenario(text: str) -> Scenario:
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
    span = (_convert("time.start", _finite, time.get("start", 0.0)),
            _convert("time.end", _finite, time.get("end", 1.0)))
    steps = _convert("time.steps", _integer, time.get("steps", models.DEFAULT_STEPS))
    grid = _convert("time", lambda span: TimeGrid(*span, steps), span)
    hbar = _convert("hbar", lambda v: float(_number(v)), obj.get("hbar", 1.0))
    tolerances = {key: _convert(f"tolerances.{key}", _tolerance, value)
                  for key, value in _section(obj, "tolerances").items()}
    initial = obj.get("initial_state")
    initial_state = (None if initial is None
                     else _convert("initial_state", linalg.vector_from_pairs, initial))

    if kind == "builtin":
        name = model.get("name", "")
        s = models.make_builtin(name, steps=steps, span=span, hbar=hbar,
                                initial_state=initial_state, tolerances=tolerances)
    elif kind in ("pair", "direct"):
        dim = _convert("dimension", _integer, obj.get("dimension", 0))
        if dim < 1:
            raise ValidationError("missing or invalid dimension")
        theta = _parse_schedule(model.get("theta"), span, "theta")
        if initial_state is None:   # the first basis vector; Scenario checks dim
            initial_state = np.zeros(theta.dim, dtype=complex)
            initial_state[0] = 1.0
        common = dict(name=obj.get("name", "custom"), dim=dim, grid=grid,
                      theta=theta, initial_state=initial_state, hbar=hbar,
                      tolerances=tolerances)
        if kind == "pair":
            s = Scenario(h=_parse_schedule(model.get("h"), span, "h"), **common)
        else:
            s = Scenario(h_big=_parse_schedule(model.get("H"), span, "H"), **common)
    else:
        raise ValidationError(f"unknown model kind {kind!r}")

    validate_scenario(s)
    return s


def _serialize_schedule(sched: OperatorSchedule):
    if sched.kind == OperatorSchedule.SAMPLED:
        return {"times": [float(t) for t in sched.sample_times],
                "snapshots": [linalg.matrix_to_pairs(m) for m in sched.snapshots]}
    if sched.constant is not None:
        return linalg.matrix_to_pairs(sched.constant)
    raise ValidationError(f"closed-form schedule {sched.label!r} is not serializable")


def serialize_scenario(s: Scenario) -> str:
    obj = {
        "dimension": s.dim,
        "hbar": s.hbar,
        "time": {"start": s.grid.t_start, "end": s.grid.t_end, "steps": s.grid.steps},
        "initial_state": linalg.vector_to_pairs(s.initial_state),
    }
    if s.tolerances:
        obj["tolerances"] = dict(s.tolerances)
    if s.name in models.BUILTINS:
        obj["model"] = {"kind": "builtin", "name": s.name}
    elif s.h is not None:
        obj["name"] = s.name
        obj["model"] = {"kind": "pair", "h": _serialize_schedule(s.h),
                        "theta": _serialize_schedule(s.theta)}
    else:
        obj["name"] = s.name
        obj["model"] = {"kind": "direct", "H": _serialize_schedule(s.h_big),
                        "theta": _serialize_schedule(s.theta)}
    return json.dumps(obj, indent=2, sort_keys=True)
