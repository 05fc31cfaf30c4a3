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

import numpy as np

from . import linalg, models, spaces
from .dynamics import Scenario, validate_scenario
from .errors import ParseError, QuasihermError, ValidationError
from .schedules import OperatorSchedule, TimeGrid


def _convert(what: str, conv, value):
    """conv(value); a malformed value is a ValidationError that names what."""
    try:
        return conv(value)
    except (KeyError, ValueError, TypeError) as e:
        raise ValidationError(f"bad {what}: {e}") from e


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

    time = obj.get("time", {})
    span = (_convert("time.start", float, time.get("start", 0.0)),
            _convert("time.end", float, time.get("end", 1.0)))
    steps = _convert("time.steps", int, time.get("steps", models.DEFAULT_STEPS))
    grid = _convert("time", lambda span: TimeGrid(*span, steps), span)
    hbar = _convert("hbar", float, obj.get("hbar", 1.0))
    tolerances = dict(obj.get("tolerances", {}))
    initial = obj.get("initial_state")
    initial_state = (None if initial is None
                     else _convert("initial_state", linalg.vector_from_pairs, initial))

    if kind == "builtin":
        name = model.get("name", "")
        s = models.make_builtin(name, steps=steps, span=span, hbar=hbar,
                                initial_state=initial_state, tolerances=tolerances)
    elif kind in ("pair", "direct"):
        dim = _convert("dimension", int, obj.get("dimension", 0))
        if dim < 1:
            raise ValidationError("missing or invalid dimension")
        theta = _parse_schedule(model.get("theta"), span, "theta")
        if initial_state is None:
            initial_state = np.zeros(dim, dtype=complex)
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

    try:
        validate_scenario(s)
    except ValidationError:
        raise
    except QuasihermError as e:
        raise ValidationError(str(e)) from e
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
