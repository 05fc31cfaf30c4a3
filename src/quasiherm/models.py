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

import numpy as np

from . import linalg
from .dynamics import Scenario
from .errors import ValidationError
from .schedules import OperatorSchedule, TimeGrid

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

DEFAULT_STEPS = 2000
DEFAULT_SPAN = (0.0, 1.0)


def u_oracle_sigma_x(elapsed: float, hbar: float) -> np.ndarray:
    c = np.cos(elapsed / hbar)
    s = np.sin(elapsed / hbar)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _grid(span, steps):
    return TimeGrid(span[0], span[1], steps)


def _base_kwargs(name, grid, theta, omega_analytic, initial_state, hbar, tolerances):
    if initial_state is None:
        initial_state = np.array([1.0, 0.0], dtype=complex)
    h = OperatorSchedule.constant_matrix(SIGMA_X, (grid.t_start, grid.t_end), label="sigma_x")
    return dict(name=name, dim=2, grid=grid, theta=theta, h=h,
                initial_state=np.asarray(initial_state, dtype=complex),
                hbar=hbar, tolerances=dict(tolerances or {}),
                omega_analytic=omega_analytic, u_oracle=u_oracle_sigma_x)


def growing_metric_2d(steps=DEFAULT_STEPS, span=DEFAULT_SPAN, hbar=1.0,
                      initial_state=None, tolerances=None) -> Scenario:
    grid = _grid(span, steps)
    theta = OperatorSchedule.closed_form(
        2, span,
        lambda t: np.array([[1.0, 0.0], [0.0, 1.0 + t * t]], dtype=complex),
        lambda t: np.array([[0.0, 0.0], [0.0, 2.0 * t]], dtype=complex),
        label="diag(1, 1+t^2)")
    omega_analytic = (
        lambda t: np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 + t * t)]], dtype=complex),
        lambda t: np.array([[0.0, 0.0], [0.0, t / np.sqrt(1.0 + t * t)]], dtype=complex),
        lambda t: np.array([[1.0, 0.0], [0.0, 1.0 / np.sqrt(1.0 + t * t)]], dtype=complex),
    )
    return Scenario(**_base_kwargs("growing-metric-2d", grid, theta, omega_analytic,
                                   initial_state, hbar, tolerances))


def constant_metric_2d(steps=DEFAULT_STEPS, span=DEFAULT_SPAN, hbar=1.0,
                       initial_state=None, tolerances=None) -> Scenario:
    grid = _grid(span, steps)
    theta_mat = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    theta = OperatorSchedule.constant_matrix(theta_mat, span, label="[[2,1],[1,2]]")
    w = linalg.principal_sqrt(theta_mat)
    w_inv = linalg.inverse(w)
    zero = np.zeros((2, 2), dtype=complex)
    omega_analytic = (lambda t: w, lambda t: zero, lambda t: w_inv)
    return Scenario(**_base_kwargs("constant-metric-2d", grid, theta, omega_analytic,
                                   initial_state, hbar, tolerances))


def scalar_exponential(steps=DEFAULT_STEPS, span=DEFAULT_SPAN, hbar=1.0,
                       initial_state=None, tolerances=None) -> Scenario:
    grid = _grid(span, steps)
    eye = np.eye(2, dtype=complex)
    theta = OperatorSchedule.closed_form(
        2, span,
        lambda t: np.exp(2.0 * t) * eye,
        lambda t: 2.0 * np.exp(2.0 * t) * eye,
        label="exp(2t) I")
    omega_analytic = (
        lambda t: np.exp(t) * eye,
        lambda t: np.exp(t) * eye,
        lambda t: np.exp(-t) * eye,
    )
    return Scenario(**_base_kwargs("scalar-exponential", grid, theta, omega_analytic,
                                   initial_state, hbar, tolerances))


def nonhermitian_dyson(steps=DEFAULT_STEPS, span=DEFAULT_SPAN, hbar=1.0,
                       initial_state=None, tolerances=None) -> Scenario:
    grid = _grid(span, steps)
    dyson = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    theta_mat = dyson.conj().T @ dyson
    theta = OperatorSchedule.constant_matrix(theta_mat, span, label="Omega† Omega")
    w = linalg.principal_sqrt(theta_mat)
    w_inv = linalg.inverse(w)
    zero = np.zeros((2, 2), dtype=complex)
    omega_analytic = (lambda t: w, lambda t: zero, lambda t: w_inv)
    return Scenario(**_base_kwargs("nonhermitian-dyson", grid, theta, omega_analytic,
                                   initial_state, hbar, tolerances))


BUILTINS = {
    "growing-metric-2d": growing_metric_2d,
    "constant-metric-2d": constant_metric_2d,
    "scalar-exponential": scalar_exponential,
    "nonhermitian-dyson": nonhermitian_dyson,
}


def builtin_names() -> list[str]:
    return sorted(BUILTINS)


def make_builtin(name: str, **overrides) -> Scenario:
    try:
        builder = BUILTINS[name]
    except KeyError:
        raise ValidationError(
            f"unknown builtin scenario {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    return builder(**overrides)
