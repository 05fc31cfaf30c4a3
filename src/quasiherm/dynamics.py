"""Propagator integration and metric reconstruction.

The Hermitian propagator u(t) is integrated with classical fixed-step
RK4 (no re-unitarization, so the unitarity defect stays visible as a
diagnostic). The auxiliary propagator is built three ways: from its
definition omega(t)^-1 u(t) omega(0), from the naive generator H (kept
deliberately, so its failure for moving metrics can be exhibited), and
from the corrected generator G = H - i hbar omega^-1 omega_dot.

Every operator is evaluated once per point of the half-step grid, as a
stack: theta, omega, omega^-1, omega^-1 omega_dot, h, H and G. The integrators take
their generator as that stack, never as a function of t. Because the ODEs are
linear, one RK4 step is a matrix map u -> u + D u with D a polynomial in
the generator at t, t + dt/2 and t + dt; D is formed for all steps at
once and only the update is a Python loop. The grid is walked in blocks
of steps, so the working set is a block of stacks plus the node series
of the result.

The same pass forms every per-node column of the report, among them the
residuals of the central difference of U_R against H (positive as dt -> 0
whenever the metric moves) and against G (shrinking like dt^2).

Admission has two entry points. validate_scenario gates every node without
taking a metric root (positivity from eigenvalues alone); evolve applies the
same gates inside its half-grid pass, on the stacks it computes anyway, so a
scenario that was never admitted is refused with the same messages.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import linalg, spaces
from .errors import NotHermitian, OutOfRange, QuasihermError, ValidationError
from .schedules import OmegaSchedule, OperatorSchedule, TimeGrid

DEFAULT_TOLERANCES = {
    "eps_herm": linalg.EPS_HERM,
    "eps_pos": linalg.EPS_POS,
    "cond_max": linalg.COND_MAX,
    "eps_res": 1e-8,          # quasi-Hermiticity gate for direct-mode scenarios
    "norm_drift": 1e-8,
    "metric_recon": 1e-6,
    "qh": 1e-8,
    "corrected_analytic": 1e-6,
    "corrected_fd": 1e-4,
    "naive_floor": 1e-2,      # minimum naive residual when the metric moves
    "naive_quiet": 1e-6,      # maximum naive residual when it does not
    "omega_motion": 1e-2,     # |omega^-1 omega_dot| above which the metric counts as moving
}

BLOCK_ENTRIES = 1 << 15  # matrix entries of one operator stack over one block of steps


def grid_blocks(grid: TimeGrid, dim: int):
    """The blocks the integrators walk grid in, sized for dim x dim operators."""
    return grid.blocks(BLOCK_ENTRIES // (2 * dim * dim))


def _rk4_series(m: np.ndarray, grid, u0=None) -> np.ndarray:
    """Integrate U'(t) = M(t) U(t) over grid from U = u0 (identity by default).

    m holds M on grid.half_times(). A step is u -> u + D u with
    D = dt/6 (m1 + 2 m2 A + 2 m2 B + m4 C), A = I + dt/2 m1,
    B = I + dt/2 m2 A, C = I + dt m2 B: classical RK4 for a linear ODE.
    The update is not folded into (I + D) u, whose rounding would repeat
    identically at every step of a constant generator.

    When every matrix of m is the same (a constant generator, as for the
    builtins' sigma_x), all step maps are the same matrix: D is formed once,
    from the same arithmetic as each per-step D, and serves every step.
    """
    dt = grid.spacing
    eye = np.eye(m.shape[-1])
    if (m[-1] == m[0]).all() and (m == m[0]).all():   # ends first: a varying m exits early
        m1 = m2 = m4 = m[:1]
    else:
        m1, m2, m4 = m[:-1:2], m[1::2], m[2::2]
    with np.errstate(over="ignore", invalid="ignore"):   # metric_from_ur refuses inf and nan
        m2a = m2 @ (eye + (0.5 * dt) * m1)
        m2b = m2 @ (eye + (0.5 * dt) * m2a)
        d = (dt / 6.0) * (m1 + 2.0 * m2a + 2.0 * m2b + m4 @ (eye + dt * m2b))
        d = np.broadcast_to(d, (grid.steps,) + d.shape[1:])
        out = np.empty((grid.steps + 1,) + m.shape[1:], dtype=complex)
        out[0] = eye if u0 is None else u0
        for dk, u, nxt in zip(d, out, out[1:]):
            np.matmul(dk, u, out=nxt)
            np.add(u, nxt, out=nxt)
    return out


def integrate_u(h: np.ndarray, grid, hbar: float = 1.0,
                eps_herm: float = linalg.EPS_HERM, u0=None) -> np.ndarray:
    """RK4 series for i hbar u' = h(t) u with a Hermiticity gate at every stage.

    h is the stack of h(t) on grid.half_times(); grid is a TimeGrid or one
    of its blocks, and u0 the value at its first node.
    """
    linalg.check_hermitian(h, eps_herm, t=grid.half_times())
    return _rk4_series((-1j / hbar) * h, grid, u0)


def ur_from_definition(u_series: np.ndarray, omega_inv: np.ndarray,
                       omega0: np.ndarray) -> np.ndarray:
    """omega(t)^-1 u(t) omega(0), node by node, from the stack of omega^-1."""
    with np.errstate(over="ignore", invalid="ignore"):   # as in _rk4_series
        return omega_inv @ u_series @ omega0


def ur_from_naive_generator(h_big: np.ndarray, grid, hbar: float = 1.0,
                            u0=None) -> np.ndarray:
    """Integrate i hbar U' = H(t) U. Wrong whenever the metric moves; kept so
    the failure can be measured rather than asserted. h_big, grid and u0 as
    for integrate_u."""
    return _rk4_series((-1j / hbar) * h_big, grid, u0)


def ur_from_corrected_generator(gen: np.ndarray, grid, hbar: float = 1.0,
                                u0=None) -> np.ndarray:
    """Integrate i hbar U' = G(t) U for G = H - i hbar omega^-1 omega_dot
    (the gen of half_grid_operators). gen, grid and u0 as for integrate_u."""
    return _rk4_series((-1j / hbar) * gen, grid, u0)


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
    omega: np.ndarray
    omega_inv: np.ndarray
    rate: np.ndarray       # omega^-1 omega_dot, the correction term of G over -i hbar


def half_grid_operators(s: "Scenario", os: OmegaSchedule, ts: np.ndarray) -> Operators:
    """The operator stacks at the times ts, each operator evaluated once per time."""
    w = os.omega(ts)
    wi = os.omega_inv(ts, omega=w)
    if s.h is not None:
        h = s.h(ts)
        h_big = wi @ h @ w
    else:
        h_big = s.h_big(ts)
        h = w @ h_big @ wi
    rate = wi @ os.omega_dot(ts, omega=w)
    gen = h_big - 1j * s.hbar * rate
    return Operators(h, h_big, gen, w, wi, rate)


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
    omega_analytic: tuple | None = None      # (omega, omega_dot, omega_inv): times -> stack
    u_oracle: Callable | None = None         # u_oracle(elapsed, hbar) -> matrix

    def __post_init__(self):
        if (self.h is None) == (self.h_big is None):
            raise ValueError("set exactly one of h (pair) or h_big (direct)")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValidationError(f"hbar must be a finite positive number, got {self.hbar:g}")
        for key in self.tolerances:
            if key not in DEFAULT_TOLERANCES:
                raise ValidationError(f"bad tolerances.{key}: not a known tolerance "
                                      f"(known: {', '.join(DEFAULT_TOLERANCES)})")
        ends = np.array([self.grid.t_start, self.grid.t_end])
        for what, sched in (("theta", self.theta), ("h", self.h), ("H", self.h_big)):
            if sched is None:
                continue
            if sched.dim != self.dim:
                raise ValidationError(f"{what} is {sched.dim}x{sched.dim}, "
                                      f"dimension is {self.dim}")
            try:
                sched.check_span(ends)
            except OutOfRange as e:
                raise ValidationError(f"{what} does not cover the grid: {e}") from None
        v = np.asarray(self.initial_state, dtype=complex)
        if v.shape != (self.dim,):
            raise ValidationError(f"initial_state has shape {v.shape}, "
                                  f"dimension is {self.dim}")
        if not v.any():
            raise ValidationError("initial_state is the zero vector")
        self.initial_state = v

    @property
    def kind(self) -> str:
        return "pair" if self.h is not None else "direct"

    def tol(self, key: str) -> float:
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])

    def omega_schedule(self) -> OmegaSchedule:
        return OmegaSchedule(
            self.theta, fd_step=self.grid.spacing, analytic=self.omega_analytic,
            eps_herm=self.tol("eps_herm"), eps_pos=self.tol("eps_pos"),
            cond_max=self.tol("cond_max"))

    def with_steps(self, steps: int) -> "Scenario":
        try:
            grid = TimeGrid(self.grid.t_start, self.grid.t_end, steps)
        except ValueError as e:
            raise ValidationError(f"bad time: {e}") from e
        return replace(self, grid=grid)

    def with_fd_omega_dot(self) -> "Scenario":
        """This scenario with omega_dot taken by central differences of omega."""
        w = self.omega_analytic
        return self if w is None else replace(self, omega_analytic=(w[0], None, w[2]))


@contextmanager
def _gate(what: str):
    """Raise a gate that fails inside as a ValidationError naming what and its t."""
    try:
        yield
    except QuasihermError as e:
        where = "" if getattr(e, "t", None) is None else f" at t={e.t:g}"
        if isinstance(e, NotHermitian):
            raise ValidationError(f"{what} not Hermitian{where} "
                                  f"(defect {e.defect:.3e})") from None
        raise ValidationError(f"{what} rejected{where}: {e}") from e


def _check_quasi_hermitian(s: Scenario, res: np.ndarray, ts: np.ndarray) -> None:
    """The direct-mode gate: res, the quasi-Hermiticity residual of H against
    theta at the times ts, stays below eps_res at every one of them."""
    bad = res > s.tol("eps_res")
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(
            f"direct-mode generator violates quasi-Hermiticity at t={ts[k]:g} "
            f"(residual {res[k]:.6g} > {s.tol('eps_res'):g})")


def validate_scenario(s: Scenario) -> None:
    """Admission gates on every node; raises ValidationError with the first failing t.

    The metric is gated on its eigenvalues alone (no root is taken), and only
    where omega is not analytic.
    """
    for blk in grid_blocks(s.grid, s.dim):
        ts = blk.times()
        theta = s.theta(ts)
        if s.omega_analytic is None:
            with _gate("metric"):
                linalg.check_positive_definite(theta, s.tol("eps_herm"),
                                               s.tol("eps_pos"), t=ts)
        if s.kind == "pair":
            with _gate("pair-mode generator"):
                linalg.check_hermitian(s.h(ts), s.tol("eps_herm"), t=ts)
        else:
            _check_quasi_hermitian(
                s, spaces.quasi_hermiticity_defect(s.h_big(ts), theta), ts)


@dataclass
class EvolutionResult:
    """Per-node series for one integrated scenario; res_* are nan at both end nodes."""
    scenario: Scenario
    grid: TimeGrid
    u_series: np.ndarray
    ur_series: np.ndarray          # from the definition
    ur_naive_series: np.ndarray
    ur_corr_series: np.ndarray
    theta_series: np.ndarray
    theta_recon: np.ndarray
    norms_phys: np.ndarray
    unitarity_defect: np.ndarray
    res_naive: np.ndarray          # ||i hbar U_R' - H U_R||_F, U_R' a central difference
    res_corrected: np.ndarray      # ||i hbar U_R' - G U_R||_F
    res_metric: np.ndarray         # ||theta_recon - theta||_F / ||theta||_F
    omega_motion: np.ndarray       # ||omega^-1 omega_dot||_F at the nodes
    qh_residual: np.ndarray        # quasi-Hermiticity residual of H against theta at the nodes


def evolve(s: Scenario) -> EvolutionResult:
    """Integrate s over its grid and form every per-node column in one half-grid pass.

    The admission gates of validate_scenario run inside the pass: the metric
    through the root omega, the Hermiticity of h through integrate_u and, in
    direct mode, quasi-Hermiticity at the nodes (whose residual is kept in
    both modes, for the diagnostics). A failure raises the same
    ValidationError as admission, naming the first failing t of its block.
    """
    os = s.omega_schedule()
    grid = s.grid
    shape = (grid.steps + 1, s.dim, s.dim)
    u, ur, ur_naive, ur_corr, theta_recon = (np.empty(shape, dtype=complex) for _ in range(5))
    defect, omega_motion, qh, res_naive, res_corrected, res_metric = (
        np.full(grid.steps + 1, np.nan) for _ in range(6))
    eye = np.eye(s.dim)
    u[0] = ur_naive[0] = ur_corr[0] = eye
    with _gate("metric"):
        theta_series = linalg.as_matrices(s.theta(grid.times()), t=grid.times())
    h_gate = ("pair-mode generator" if s.kind == "pair"
              else "Hermitian equivalent of the direct-mode generator")

    for blk in grid_blocks(grid, s.dim):
        with _gate("metric"):
            ops = half_grid_operators(s, os, blk.half_times())
        nodes = slice(blk.first, blk.last + 1)
        if blk.first == 0:
            omega0 = ops.omega[0].copy()
        omega_motion[nodes] = linalg.fro_norms(ops.rate[::2])
        # only the node values of omega were needed: free the stacks
        ops = ops._replace(omega=None, rate=None)
        qh[nodes] = spaces.quasi_hermiticity_defect(ops.h_big[::2], theta_series[nodes])
        if s.kind == "direct":
            _check_quasi_hermitian(s, qh[nodes], blk.times())
        with _gate(h_gate):
            u[nodes] = integrate_u(ops.h, blk, s.hbar, s.tol("eps_herm"),
                                   u0=u[blk.first])
        ur[nodes] = ur_from_definition(u[nodes], ops.omega_inv[::2], omega0)
        ur_naive[nodes] = ur_from_naive_generator(ops.h_big, blk, s.hbar,
                                                  u0=ur_naive[blk.first])
        ur_corr[nodes] = ur_from_corrected_generator(ops.gen, blk, s.hbar,
                                                     u0=ur_corr[blk.first])
        theta_recon[nodes] = metric_from_ur(ur[nodes], theta_series[0], blk,
                                            s.tol("cond_max"))
        with np.errstate(over="ignore", invalid="ignore"):   # an RK4-unstable grid
            defect[nodes] = linalg.fro_norms(linalg.dagger(u[nodes]) @ u[nodes] - eye)
        # interior nodes k, whose central difference reaches blk.last, written above
        k = slice(max(blk.first, 1), blk.last)
        at_k = slice(2 * (k.start - blk.first), 2 * (k.stop - blk.first), 2)   # on the half grid
        lhs = (1j * s.hbar * (ur[k.start + 1:k.stop + 1] - ur[k.start - 1:k.stop - 1])
               / (2.0 * grid.spacing))
        res_naive[k] = linalg.fro_norms(lhs - ops.h_big[at_k] @ ur[k])
        res_corrected[k] = linalg.fro_norms(lhs - ops.gen[at_k] @ ur[k])
        theta = theta_series[k]
        res_metric[k] = linalg.fro_norms(theta_recon[k] - theta) / linalg.fro_norms(theta)

    states = np.einsum("kij,j->ki", ur, s.initial_state)   # reference-space kets U_R(t) phi0
    norms = np.einsum("ki,kij,kj->k", states.conj(), theta_series, states).real

    return EvolutionResult(s, grid, u, ur, ur_naive, ur_corr, theta_series, theta_recon,
                           norms, defect, res_naive, res_corrected, res_metric,
                           omega_motion, qh)
