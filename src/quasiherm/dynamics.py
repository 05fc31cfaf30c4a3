"""Propagator integration and metric reconstruction.

The Hermitian propagator u(t) is integrated with classical fixed-step
RK4 (no re-unitarization, so the unitarity defect stays visible as a
diagnostic). The auxiliary propagator is built three ways: from its
definition omega(t)^-1 u(t) omega(0), from the naive generator H (kept
deliberately, so its failure for moving metrics can be exhibited), and
from the corrected generator G = H - i hbar omega^-1 omega_dot.

Every operator is evaluated once per point of the half-step grid, as a
stack: theta, omega, omega^-1, omega_dot, h, H and G. Because the ODEs are
linear, one RK4 step is a matrix map u -> u + D u with D a polynomial in
the generator at t, t + dt/2 and t + dt; D is formed for all steps at
once and only the update is a Python loop. The grid is walked in blocks
of steps, so the working set is a block of stacks plus the node series
of the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import linalg, spaces
from .errors import NotHermitian, QuasihermError, ValidationError
from .schedules import OmegaSchedule, OperatorSchedule, TimeGrid, evaluate_each

DEFAULT_TOLERANCES = {
    "eps_herm": 1e-10,
    "eps_pos": 1e-10,
    "cond_max": 1e8,
    "eps_res": 1e-8,          # quasi-Hermiticity gate for direct-mode scenarios
    "norm_drift": 1e-8,
    "metric_recon": 1e-6,
    "qh": 1e-8,
    "corrected_analytic": 1e-6,
    "corrected_fd": 1e-4,
    "naive_floor": 1e-2,      # minimum naive residual when the metric moves
    "naive_quiet": 1e-6,      # maximum naive residual when it does not
    "omega_motion": 1e-2,     # |omega_dot| above which the metric counts as moving
}

BLOCK_ENTRIES = 1 << 15  # matrix entries of one operator stack over one block of steps


def grid_blocks(grid: TimeGrid, dim: int):
    """The blocks the integrators walk grid in, sized for dim x dim operators."""
    return grid.blocks(BLOCK_ENTRIES // (2 * dim * dim))


def _on_half_grid(op, grid) -> np.ndarray:
    """op on grid.half_times(): op is a callable of t, or already that stack."""
    if not callable(op):
        return np.asarray(op, dtype=complex)
    ts = grid.half_times()
    return op(ts) if isinstance(op, OperatorSchedule) else evaluate_each(op, ts)


def _rk4_series(m: np.ndarray, grid, u0=None) -> np.ndarray:
    """Integrate U'(t) = M(t) U(t) over grid from U = u0 (identity by default).

    m holds M on grid.half_times(). A step is u -> u + D u with
    D = dt/6 (m1 + 2 m2 A + 2 m2 B + m4 C), A = I + dt/2 m1,
    B = I + dt/2 m2 A, C = I + dt m2 B: classical RK4 for a linear ODE.
    The update is not folded into (I + D) u, whose rounding would repeat
    identically at every step of a constant generator.
    """
    dt = grid.spacing
    eye = np.eye(m.shape[-1])
    m1, m2, m4 = m[:-1:2], m[1::2], m[2::2]
    m2a = m2 @ (eye + (0.5 * dt) * m1)
    m2b = m2 @ (eye + (0.5 * dt) * m2a)
    d = (dt / 6.0) * (m1 + 2.0 * m2a + 2.0 * m2b + m4 @ (eye + dt * m2b))
    out = np.empty((grid.steps + 1,) + m.shape[1:], dtype=complex)
    out[0] = eye if u0 is None else u0
    u = out[0]
    for k in range(grid.steps):
        u = u + d[k] @ u
        out[k + 1] = u
    return out


def integrate_u(h, grid, hbar: float = 1.0, eps_herm: float = linalg.EPS_HERM,
                u0=None) -> np.ndarray:
    """RK4 series for i hbar u' = h(t) u with a Hermiticity gate at every stage.

    h is a callable t -> h(t) or its stack on grid.half_times(); grid is a
    TimeGrid or one of its blocks, and u0 the value at its first node.
    """
    hs = _on_half_grid(h, grid)
    linalg.check_hermitian(hs, eps_herm, t=grid.half_times())
    return _rk4_series((-1j / hbar) * hs, grid, u0)


def ur_from_definition(u_series: np.ndarray, omega_inv: np.ndarray,
                       omega0: np.ndarray) -> np.ndarray:
    """omega(t)^-1 u(t) omega(0), node by node, from the stack of omega^-1."""
    return omega_inv @ u_series @ omega0


def ur_from_naive_generator(h_big, grid, hbar: float = 1.0, u0=None) -> np.ndarray:
    """Integrate i hbar U' = H(t) U. Wrong whenever the metric moves; kept so
    the failure can be measured rather than asserted. h_big, grid and u0 as
    for integrate_u."""
    return _rk4_series((-1j / hbar) * _on_half_grid(h_big, grid), grid, u0)


def ur_from_corrected_generator(gen, grid, hbar: float = 1.0, u0=None) -> np.ndarray:
    """Integrate i hbar U' = G(t) U for G = H - i hbar omega^-1 omega_dot
    (the gen of half_grid_operators). gen, grid and u0 as for integrate_u."""
    return _rk4_series((-1j / hbar) * _on_half_grid(gen, grid), grid, u0)


def metric_from_ur(ur_series: np.ndarray, theta0: np.ndarray, grid,
                   cond_max: float = linalg.COND_MAX) -> np.ndarray:
    """Per-node reconstruction (U^-1)† theta(0) U^-1 on the nodes of grid
    (a TimeGrid or one of its blocks)."""
    th0 = linalg.as_matrix(theta0)
    ui = linalg.inverse(ur_series, cond_max, t=grid.times())
    return linalg.dagger(ui) @ th0 @ ui


class Operators(NamedTuple):
    """Operator stacks at a 1-D array of times."""
    h: np.ndarray          # Hermitian generator
    h_big: np.ndarray      # quasi-Hermitian generator H
    gen: np.ndarray        # corrected generator G = H - i hbar omega^-1 omega_dot
    omega_inv: np.ndarray


def half_grid_operators(s: "Scenario", os: OmegaSchedule, ts: np.ndarray) -> Operators:
    """h, H, G and omega^-1 at the times ts, each operator evaluated once per time."""
    w = os.omega(ts)
    wi = os.omega_inv(ts, omega=w)
    if s.h is not None:
        h = s.h(ts)
        h_big = wi @ h @ w
    else:
        h_big = s.h_big(ts)
        h = w @ h_big @ wi
    gen = h_big - 1j * s.hbar * (wi @ os.omega_dot(ts, omega=w))
    return Operators(h, h_big, gen, wi)


@dataclass
class Scenario:
    """Full problem description for one run.

    Exactly one of h (pair mode: Hermitian generator given) or h_big
    (direct mode: quasi-Hermitian generator given) is set; the other is
    derived through the metric root.
    """
    name: str
    dim: int
    grid: TimeGrid
    theta: OperatorSchedule
    initial_state: np.ndarray
    h: OperatorSchedule | None = None        # pair mode
    h_big: OperatorSchedule | None = None    # direct mode
    hbar: float = 1.0
    tolerances: dict = field(default_factory=dict)
    omega_analytic: tuple | None = None      # (omega, omega_dot, [omega_inv]) callables
    u_oracle: Callable | None = None         # u_oracle(elapsed, hbar) -> matrix

    def __post_init__(self):
        if (self.h is None) == (self.h_big is None):
            raise ValueError("set exactly one of h (pair) or h_big (direct)")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        v = np.asarray(self.initial_state, dtype=complex)
        if v.shape != (self.dim,):
            raise ValueError("initial state dimension mismatch")
        self.initial_state = v

    @property
    def kind(self) -> str:
        return "pair" if self.h is not None else "direct"

    def tol(self, key: str) -> float:
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])

    def omega_schedule(self, fd_omega_dot: bool = False) -> OmegaSchedule:
        return OmegaSchedule(
            self.theta, fd_step=self.grid.spacing,
            analytic=self.omega_analytic,
            use_analytic_derivative=not fd_omega_dot,
            eps_herm=self.tol("eps_herm"), eps_pos=self.tol("eps_pos"),
            cond_max=self.tol("cond_max"))

    def with_steps(self, steps: int) -> "Scenario":
        return replace(self, grid=TimeGrid(self.grid.t_start, self.grid.t_end, steps))


def validate_scenario(s: Scenario) -> None:
    """Admission gates on every node; raises ValidationError with the first failing t."""
    os = s.omega_schedule()
    for blk in grid_blocks(s.grid, s.dim):
        ts = blk.times()
        theta = s.theta(ts)
        try:
            os.omega(ts)  # positive-definiteness gate
        except QuasihermError as e:
            where = "" if getattr(e, "t", None) is None else f" at t={e.t:g}"
            raise ValidationError(f"metric rejected{where}: {e}") from e
        if s.kind == "pair":
            try:
                linalg.check_hermitian(s.h(ts), s.tol("eps_herm"), t=ts)
            except NotHermitian as e:
                raise ValidationError(f"pair-mode generator not Hermitian at t={e.t:g} "
                                      f"(defect {e.defect:.3e})") from None
        else:
            res = spaces.quasi_hermiticity_defect(s.h_big(ts), theta)
            bad = res > s.tol("eps_res")
            if bad.any():
                k = int(np.argmax(bad))
                raise ValidationError(
                    f"direct-mode generator violates quasi-Hermiticity at t={ts[k]:g} "
                    f"(residual {res[k]:.6g} > {s.tol('eps_res'):g})")


@dataclass
class EvolutionResult:
    """Per-node series for one integrated scenario."""
    scenario: Scenario
    grid: TimeGrid
    u_series: np.ndarray
    ur_series: np.ndarray          # from the definition
    ur_naive_series: np.ndarray
    ur_corr_series: np.ndarray
    theta_series: np.ndarray
    theta_recon: np.ndarray
    states: np.ndarray             # reference-space kets U_R(t) phi0
    norms_phys: np.ndarray
    unitarity_defect: np.ndarray
    h_big_series: np.ndarray       # H at the nodes
    gen_series: np.ndarray         # G = H - i hbar omega^-1 omega_dot at the nodes
    fd_omega_dot: bool


def evolve(s: Scenario, fd_omega_dot: bool = False) -> EvolutionResult:
    validate_scenario(s)
    os = s.omega_schedule(fd_omega_dot)
    grid = s.grid
    shape = (grid.steps + 1, s.dim, s.dim)
    u, ur, ur_naive, ur_corr, theta_recon, h_big, gen = (
        np.empty(shape, dtype=complex) for _ in range(7))
    defect = np.empty(grid.steps + 1)
    eye = np.eye(s.dim)
    u[0] = ur_naive[0] = ur_corr[0] = eye
    omega0 = os.omega(grid.t_start)
    theta_series = s.theta(grid.times())

    for blk in grid_blocks(grid, s.dim):
        ops = half_grid_operators(s, os, blk.half_times())
        nodes = slice(blk.first, blk.last + 1)
        u[nodes] = integrate_u(ops.h, blk, s.hbar, s.tol("eps_herm"), u0=u[blk.first])
        ur[nodes] = ur_from_definition(u[nodes], ops.omega_inv[::2], omega0)
        ur_naive[nodes] = ur_from_naive_generator(ops.h_big, blk, s.hbar,
                                                  u0=ur_naive[blk.first])
        ur_corr[nodes] = ur_from_corrected_generator(ops.gen, blk, s.hbar,
                                                     u0=ur_corr[blk.first])
        theta_recon[nodes] = metric_from_ur(ur[nodes], theta_series[0], blk,
                                            s.tol("cond_max"))
        h_big[nodes] = ops.h_big[::2]
        gen[nodes] = ops.gen[::2]
        defect[nodes] = linalg.fro_norms(linalg.dagger(u[nodes]) @ u[nodes] - eye)

    states = np.einsum("kij,j->ki", ur, s.initial_state)
    norms = np.einsum("ki,kij,kj->k", states.conj(), theta_series, states).real

    return EvolutionResult(s, grid, u, ur, ur_naive, ur_corr,
                           theta_series, theta_recon, states, norms, defect,
                           h_big, gen, fd_omega_dot)
