"""Builtin closed-form scenarios.

All four are two-dimensional with a constant Hermitian generator
sigma_x, so the Hermitian propagator has the closed form
u(t) = cos(t/hbar) I - i sin(t/hbar) sigma_x, which serves as the
integration oracle. They differ in the metric schedule:

  growing-metric-2d   theta(t) = diag(1, 1 + t^2)   (moving metric)
  constant-metric-2d  theta    = [[2,1],[1,2]]
  scalar-exponential  theta(t) = e^{2t} I           (scalar moving metric)
  nonhermitian-dyson  theta    = Omega† Omega for Omega = [[1,1],[0,1]]
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from .dynamics import Scenario
from .errors import ValidationError
from .schedules import OperatorSchedule, TimeGrid, constant_fn
from .spaces import metric_from_theta

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

DEFAULT_STEPS = 2000
DEFAULT_SPAN = (0.0, 1.0)


def u_oracle_sigma_x(elapsed: float, hbar: float) -> np.ndarray:
    c = np.cos(elapsed / hbar)
    s = np.sin(elapsed / hbar)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _diag(a: float, b: np.ndarray) -> np.ndarray:
    """Stack of diag(a, b[k]), one matrix per entry of b."""
    out = np.zeros((b.size, 2, 2), dtype=complex)
    out[:, 0, 0], out[:, 1, 1] = a, b
    return out


def _growing_metric(span):
    theta = OperatorSchedule(
        2, span,
        lambda ts: _diag(1.0, 1.0 + ts * ts),
        lambda ts: _diag(0.0, 2.0 * ts))
    root = lambda ts: np.sqrt(1.0 + ts * ts)  # noqa: E731
    return theta, (lambda ts: _diag(1.0, root(ts)),
                   lambda ts: _diag(0.0, ts / root(ts)),
                   lambda ts: _diag(1.0, 1.0 / root(ts)))


def _scalar_exponential(span):
    eye = np.eye(2, dtype=complex)

    def times_eye(f):
        return lambda ts: f(ts)[:, None, None] * eye

    theta = OperatorSchedule(
        2, span,
        times_eye(lambda ts: np.exp(2.0 * ts)),
        times_eye(lambda ts: 2.0 * np.exp(2.0 * ts)))
    return theta, (times_eye(np.exp), times_eye(np.exp), times_eye(lambda ts: np.exp(-ts)))


def _static_metric(theta_mat: np.ndarray):
    """A metric that does not move: omega is its principal root, omega_dot zero."""
    def metric(span):
        m = metric_from_theta(theta_mat)
        return (OperatorSchedule.constant_matrix(theta_mat, span),
                (constant_fn(m.omega), constant_fn(np.zeros_like(m.omega)),
                 constant_fn(m.omega_inv)))
    return metric


_DYSON = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)

BUILTINS = {   # name -> span -> (theta schedule, (omega, omega_dot, omega_inv))
    "growing-metric-2d": _growing_metric,
    "constant-metric-2d": _static_metric(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)),
    "scalar-exponential": _scalar_exponential,
    "nonhermitian-dyson": _static_metric(_DYSON.conj().T @ _DYSON),
}


def builtin_names() -> list[str]:
    return sorted(BUILTINS)


def make_builtin(name: str, steps=DEFAULT_STEPS, span=DEFAULT_SPAN, hbar=1.0,
                 initial_state=None, tolerances=MappingProxyType({})) -> Scenario:
    try:
        metric = BUILTINS[name]
    except (KeyError, TypeError):   # TypeError: a name that is not even hashable
        raise ValidationError(
            f"unknown builtin scenario {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    try:
        t_start, t_end = span
    except (TypeError, ValueError):   # not iterable, or not two values
        raise ValidationError(f"bad time: expected a span of two values, got {span!r}") from None
    grid = TimeGrid(t_start, t_end, steps)   # first, for a file's text on a bad span
    theta, omega_analytic = metric(span)
    return Scenario(
        name=name, grid=grid, theta=theta,
        h=OperatorSchedule.constant_matrix(SIGMA_X, span), initial_state=initial_state, hbar=hbar,
        tolerances=tolerances, omega_analytic=omega_analytic,
        u_oracle=u_oracle_sigma_x)
