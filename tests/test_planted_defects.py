"""Which verdict guards what: defects planted in the program, one at a time.

Each test plants one defect as a monkeypatch and runs a scenario whose metric
moves, growing-metric-2d (theta(t) = diag(1, 1 + t^2), h = sigma_x). It pins
the named verdicts that fail, or the gate that refuses the run: a defect that
no verdict or gate catches would be a blind spot of the report. This is
mutation analysis (DeMillo, Lipton and Sayward, IEEE Computer 11(4), 34
(1978)).
"""

import dataclasses

import numpy as np
import pytest

from quasiherm import dynamics, linalg, make_builtin
from quasiherm.errors import ValidationError
from quasiherm.verify import run_diagnostics, verdicts

STEPS = 1000


def _failed(s) -> list[str]:
    """The names of the verdicts that s's run fails, in report order."""
    return [v.name for v in verdicts(run_diagnostics(s), s) if not v.passed]


def _growing(**changes):
    return dataclasses.replace(make_builtin("growing-metric-2d", steps=STEPS), **changes)


def _patch_operators(monkeypatch, change):
    """Plant change(s, ops) -> ops into every Operators that half_grid_operators returns."""
    orig = dynamics.half_grid_operators

    def planted(s, os, blk, strides=(1,)):
        return [change(s, o) for o in orig(s, os, blk, strides)]

    monkeypatch.setattr(dynamics, "half_grid_operators", planted)


@pytest.mark.parametrize("fd_omega_dot", [False, True], ids=["analytic", "fd"])
def test_the_unplanted_run_passes_every_verdict(fd_omega_dot):
    s = _growing()
    assert _failed(s.with_fd_omega_dot() if fd_omega_dot else s) == []


def test_a_flipped_correction_term_fails_only_the_corrected_generator(monkeypatch):
    """G = H + i hbar omega^-1 omega_dot: U_R itself does not move, so only the
    residual against G sees it."""
    _patch_operators(monkeypatch, lambda s, o: o._replace(gen=o.h_big + 1j * s.hbar * o.rate))
    assert _failed(_growing()) == ["CORRECTED_GENERATOR_OK"]


def test_a_mis_scaled_omega_dot_fails_only_the_corrected_generator(monkeypatch):
    """omega_dot doubled: G's correction term and omega_motion double."""
    def doubled(s, o):
        return o._replace(gen=o.h_big - 2j * s.hbar * o.rate, rate=2.0 * o.rate)

    _patch_operators(monkeypatch, doubled)
    assert _failed(_growing()) == ["CORRECTED_GENERATOR_OK"]


def test_h_big_set_to_h_fails_quasi_hermiticity_and_the_corrected_generator(monkeypatch):
    """H = h, with no similarity transform by omega: theta h - h theta != 0 where
    the metric is not scalar, and U_R = omega^-1 u omega_0 is not generated by
    h - i hbar omega^-1 omega_dot."""
    _patch_operators(monkeypatch, lambda s, o: o._replace(
        h_big=o.h, gen=o.h - 1j * s.hbar * o.rate))
    assert _failed(_growing()) == ["QH_HOLDS", "CORRECTED_GENERATOR_OK"]


def test_omega_as_theta_to_the_three_quarters_fails_the_metric_identities(monkeypatch):
    """omega = theta^(3/4) is invertible but not a root of theta: the norm,
    the reconstructed metric and H's quasi-Hermiticity all miss, while G still
    generates U_R = omega^-1 u omega_0, as for any invertible map. The planted
    root comes with its own inverse, V diag(lambda^(-3/4)) V^dagger, as the
    candidate that linalg.inverse certifies."""
    def three_quarters(a, eps_herm=linalg.EPS_HERM, eps_pos=linalg.EPS_POS, t=None,
                       inverse=False):
        eig = linalg.eig_hermitian(a, eps_herm, t)
        w, v = eig.eigenvalues, eig.eigenvectors
        root = linalg.matmul(v * (w ** 0.75)[..., None, :], linalg.dagger(v))
        if not inverse:
            return root
        return root, linalg.matmul(v * (w ** -0.75)[..., None, :], linalg.dagger(v))

    s = _growing(omega_analytic=None)   # omega from the schedule's root, omega_dot by differences
    assert _failed(s) == []
    monkeypatch.setattr(linalg, "principal_sqrt", three_quarters)
    assert _failed(s) == ["NORM_CONSERVED", "METRIC_RECONSTRUCTED", "QH_HOLDS"]


def test_a_non_hermitian_h_is_refused_by_the_h_gate(monkeypatch):
    orig = dynamics._given_generator
    monkeypatch.setattr(dynamics, "_given_generator",
                        lambda s, ts: orig(s, ts) + 1e-3j * np.eye(s.dim))
    with pytest.raises(ValidationError, match=r"^pair-mode generator not Hermitian at t=0 "):
        run_diagnostics(_growing())


def test_a_non_hermitian_h_past_the_gate_fails_the_unitarity_verdicts(monkeypatch):
    """h + i eps I makes u grow by e^(eps t): the norm, the reconstructed metric
    and H = omega^-1 h omega's quasi-Hermiticity miss, but G still generates U_R."""
    orig = dynamics._given_generator
    monkeypatch.setattr(dynamics, "_given_generator",
                        lambda s, ts: orig(s, ts) + 1e-3j * np.eye(s.dim))
    monkeypatch.setattr(dynamics, "_admit_h", lambda s, h, blk: None)
    assert _failed(_growing()) == ["NORM_CONSERVED", "METRIC_RECONSTRUCTED", "QH_HOLDS"]


@pytest.mark.parametrize("state, failed", [
    (None, ["METRIC_RECONSTRUCTED"]),
    (np.array([1.0, 1.0]) / np.sqrt(2.0), ["NORM_CONSERVED", "METRIC_RECONSTRUCTED"])],
    ids=["e0", "e0 + e1"])
def test_a_wrong_theta_at_t0_fails_the_metric_reconstruction(monkeypatch, state, failed):
    """theta(t0) read at the grid's last time, theta(1) = diag(1, 2): every
    reconstructed metric is off. The norm drift is measured against
    <phi0|theta(t0)|phi0>, which for phi0 = e0 is 1 either way, so only a state
    with a component along e1 shows the defect in NORM_CONSERVED."""
    orig = dynamics.validate_scenario

    def planted(s, os, blk, qh=None, strides=(1,)):
        ops, theta = orig(s, os, blk, qh, strides)
        if blk.first == 0:
            theta = theta.copy()
            theta[0] = s.theta(np.array([s.grid.t_end]))[0]
        return ops, theta

    monkeypatch.setattr(dynamics, "validate_scenario", planted)
    assert _failed(_growing(initial_state=state)) == failed
