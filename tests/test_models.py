"""The builtins' closed forms, evaluated on a whole time array at once."""

import numpy as np
import pytest

from quasiherm import linalg, make_builtin
from quasiherm.schedules import TimeGrid

HALF_GRID = TimeGrid(0.0, 1.0, 2000).half_times()
EYE = np.eye(2, dtype=complex)
DYSON = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)


def static_formulas(theta_mat):
    w = linalg.principal_sqrt(theta_mat)
    w_inv = linalg.inverse(w)
    zero = np.zeros((2, 2), dtype=complex)
    return (lambda t: theta_mat, lambda t: zero,
            lambda t: w, lambda t: zero, lambda t: w_inv)


# theta, theta_dot, omega, omega_dot, omega^-1, one time at a time
PER_TIME = {
    "growing-metric-2d": (
        lambda t: np.array([[1.0, 0.0], [0.0, 1.0 + t * t]], dtype=complex),
        lambda t: np.array([[0.0, 0.0], [0.0, 2.0 * t]], dtype=complex),
        lambda t: np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 + t * t)]], dtype=complex),
        lambda t: np.array([[0.0, 0.0], [0.0, t / np.sqrt(1.0 + t * t)]], dtype=complex),
        lambda t: np.array([[1.0, 0.0], [0.0, 1.0 / np.sqrt(1.0 + t * t)]], dtype=complex)),
    "constant-metric-2d": static_formulas(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)),
    "scalar-exponential": (
        lambda t: np.exp(2.0 * t) * EYE,
        lambda t: 2.0 * np.exp(2.0 * t) * EYE,
        lambda t: np.exp(t) * EYE,
        lambda t: np.exp(t) * EYE,
        lambda t: np.exp(-t) * EYE),
    "nonhermitian-dyson": static_formulas(DYSON.conj().T @ DYSON),
}


@pytest.mark.parametrize("name", sorted(PER_TIME))
def test_builtin_stacks_equal_per_time_formulas_bit_for_bit(name):
    s = make_builtin(name)
    os = s.omega_schedule()
    stacks = (s.theta(HALF_GRID), s.theta.derivative(HALF_GRID), os.omega(HALF_GRID)[0],
              os.omega_dot(HALF_GRID), os.omega_inv(HALF_GRID))
    for stack, formula in zip(stacks, PER_TIME[name]):
        expect = np.stack([formula(t) for t in HALF_GRID])
        assert stack.dtype == expect.dtype and stack.shape == expect.shape
        assert stack.tobytes() == expect.tobytes()
