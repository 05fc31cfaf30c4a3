"""Propagator integration and metric reconstruction.

The Hermitian propagator u(t) is integrated with classical fixed-step
RK4 (no re-unitarization, so the unitarity defect stays visible as a
diagnostic). The auxiliary propagator is built three ways: from its
definition omega(t)^-1 u(t) omega(0), from the naive generator H (kept
deliberately, so its failure for moving metrics can be exhibited), and
from the corrected generator G = H - i hbar omega^-1 omega_dot.

Every operator is evaluated once per point of the half-step grid, as a
stack: theta, omega, omega^-1, omega^-1 omega_dot, h, H and G. omega and
omega_dot come from the one OmegaSchedule of a walk (on_block), which alone
decides which metric roots each block takes. A root's inverse is not a
second factorization: on_block hands out X = V diag(1/sqrt(lambda)) V^dagger
from the eigendecomposition that took the root, and linalg.inverse admits it
by the certificate that holds for any X (falling back, matrix by matrix,
to inv and the SVD where it does not certify). The integrators take
their generator as that stack, never as a function of t. Because the ODEs are
linear, one RK4 step is a matrix map u -> u + D u with D a polynomial in
the generator at t, t + dt/2 and t + dt; D is formed for all steps at
once. For d <= SCAN_MAX_DIM, on grids of at least SCAN_MIN_STEPS steps, the
maps are then composed by a chunked scan, whose Python loops run over the
steps of one chunk and over the chunks, not over every step; products of
maps are kept as their difference from I (delta form), so their rounding
stays relative to the step, not to the propagator. Otherwise the walk goes
step by step.

Every product over a stack (the step maps, the scan's partial products and
nodes, U_R from its definition, the reconstructed metric, H, omega^-1
omega_dot and the residuals) is linalg.matmul, whose timings linalg gives;
the walk over single matrices (_walk: the chunk starts, the tail and the
step-by-step walk) keeps np.matmul, where the extra ufunc calls would not pay.

A Scenario checks itself when built, in code as from a file, with a file's
texts: one of h and h_big is set, its initial state (e0 by default) is first a
nonzero reference-space ket of theta's size, its schedules cover its grid (a
TimeGrid, which checks itself) and yield matrices of that size, and hbar and
the tolerances, a mapping of known keys, are finite positive reals (_scalar).
evolve walks the grid a block of steps at a time, keeps no node series and
fills the run's one record, Diagnostics, with every per-node column: among
them the residuals of the central difference of U_R against H (positive as
dt -> 0 whenever the metric moves) and against G (shrinking like dt^2), and
the norm drift against the initial physical norm, the one evaluation of
theta(t0) a run takes. It refuses an initial state of no measurable physical
norm once the first block is admitted, before any walk.
end_states walks one probe (u or U_corr) to the end of the grids of N, 2N,
... steps in one walk of the finest grid's blocks, whose stacks every coarser
grid reads at its own half-times, every 2nd or 4th point; grid_blocks cuts
the grids so that each block of a coarser grid's own walk is a run of the
finest grid's blocks. Both admit each block as they go: validate_scenario
gates the metric, the given generator (h or H) on finite entries (the pair u
probe, which roots no metric, gates h alone) and in direct mode the
quasi-Hermiticity of H at the nodes; then _admit_h gates the Hermiticity of h
and the stability of each walked grid's RK4 step (gate_h), once per block. A
refusal names the first failing time of the half-step grid that is actually
run; when the one walk of end_states is refused, the grids are walked one at
a time, coarsest first, so the refusal names the coarsest grid that fails.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import linalg, spaces
from .errors import NotHermitian, OutOfRange, QuasihermError, ValidationError
from .schedules import GridBlock, OmegaSchedule, OperatorSchedule, TimeGrid, _scalar, _shown

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
RK4_LIMIT = 2.0 * np.sqrt(2.0)   # |R(iy)| <= 1 for RK4's step map exactly when |y| <= this
SCAN_CHUNK = 32     # steps per chunk of the scan walk (_rk4_series)
# Above this d a block (BLOCK_ENTRIES / (2 d^2) steps) holds too few chunks for
# the scan to repay its SCAN_CHUNK batched iterations: the walk goes step by step.
SCAN_MAX_DIM = 6
# Nor does a grid of fewer steps repay them (at d = 2 to 6 the scan was 13-50%
# slower than the plain loop on 64-128 steps, and 9-25% faster from 192 on).
SCAN_MIN_STEPS = 5 * SCAN_CHUNK


def _chunk(dim: int, grid) -> int:
    """Steps per chunk of the walk of dim x dim step maps over grid, a TimeGrid
    or one of its blocks; 1 is the plain loop. Chosen by the whole grid, never
    by a block, so a run's bits do not depend on how it is cut."""
    steps = (grid.grid if isinstance(grid, GridBlock) else grid).steps
    return SCAN_CHUNK if dim <= SCAN_MAX_DIM and steps >= SCAN_MIN_STEPS else 1


def grid_blocks(grid: TimeGrid, dim: int) -> list[GridBlock]:
    """The blocks the integrators walk grid in, sized for dim x dim operators:
    the grid's steps over the least power-of-two count of blocks that holds at
    most BLOCK_ENTRIES / (2 d^2) steps a block, each rounded up to whole units
    of q steps (4 SCAN_CHUNK for d <= SCAN_MAX_DIM, 4 above; one unit at least).
    Every block has that size but the last.

    A grid of twice the steps takes twice the count and the same size (or stays
    one block), so each block of the grids of N and 2N steps is a run of the 4N
    grid's blocks. Every cut of all three falls on a chunk, where a block's walk
    continues the whole grid's walk bit for bit: a run's bits do not depend on
    the block size.
    """
    q = 4 * SCAN_CHUNK if dim <= SCAN_MAX_DIM else 4
    most = max(q, BLOCK_ENTRIES // (2 * dim * dim) // q * q)
    count = 1 << (-(-grid.steps // most) - 1).bit_length()   # the least 2^k >= steps / most
    size = -(-grid.steps // (count * q)) * q
    return [GridBlock(grid, a, min(a + size, grid.steps)) for a in range(0, grid.steps, size)]


def _constant(m: np.ndarray) -> bool:   # every matrix of m is m[0]; a varying m exits early
    return bool((m[-1] == m[0]).all() and (m == m[0]).all())


def _walk(maps, series: np.ndarray) -> None:
    """series[k + 1] = series[k] + maps[k] series[k], from series[0], in place,
    one np.matmul per step."""
    for dk, u, nxt in zip(maps, series, series[1:]):
        np.matmul(dk, u, out=nxt)
        np.add(u, nxt, out=nxt)


def _rk4_series(m: np.ndarray, grid, u0=None) -> np.ndarray:
    """Integrate U'(t) = M(t) U(t) over grid from U = u0 (identity by default).

    m holds M on grid.half_times(). A step is u -> u + D u with
    D = dt/6 (m1 + 2 m2 A + 2 m2 B + m4 C), A = I + dt/2 m1,
    B = I + dt/2 m2 A, C = I + dt m2 B: classical RK4 for a linear ODE.

    The walk is a chunked scan of the step maps (Blelloch 1990), in chunks
    of C = _chunk(d) steps from the first step, so no Python loop is N
    long; one is C long and one N/C:
    1. the partial products of each chunk, all chunks at once, as
       X_j = X_{j-1} + D_j X_{j-1} + D_j, the product of the first j + 1
       step maps less I (X overwrites D);
    2. the chunk starts b_{i+1} = b_i + X_{C-1} b_i, a loop over the chunks;
    3. every other node of chunk i as b_i + X_j b_i, in one stacked
       product; its last node is b_{i+1} itself, so a block that starts
       there starts from the bits the whole grid's walk carries on with.
    The tail of fewer than C steps, and every step when C = 1, takes the
    plain walk u -> u + D u. Products are kept in this delta form, never
    folded into I + D or I + X: near I, the rounding of such a fold is a
    relative error of the whole propagator, which would repeat identically
    at every step of a constant generator. Chunks start at multiples of C,
    so a block cut there (grid_blocks) walks the same arithmetic as the
    whole grid.

    When every matrix of m is the same (a constant generator, as for the
    builtins' sigma_x), all step maps are the same matrix: D is formed once,
    from the same arithmetic as each per-step D, and one chunk's X serves
    every chunk.
    """
    dt = grid.spacing
    dim = m.shape[-1]
    eye = np.eye(dim)
    constant = _constant(m)
    if constant:
        m1 = m2 = m4 = m[:1]
    else:
        m1, m2, m4 = m[:-1:2], m[1::2], m[2::2]
    c = _chunk(dim, grid)
    scanned = grid.steps - grid.steps % c if c > 1 else 0
    with np.errstate(over="ignore", invalid="ignore"):   # metric_from_ur refuses inf and nan
        m2a = linalg.matmul(m2, eye + (0.5 * dt) * m1)
        m2b = linalg.matmul(m2, eye + (0.5 * dt) * m2a)
        d = (dt / 6.0) * (m1 + 2.0 * m2a + 2.0 * m2b + linalg.matmul(m4, eye + dt * m2b))
        out = np.empty((grid.steps + 1, dim, dim), dtype=complex)
        out[0] = eye if u0 is None else u0
        if scanned:
            x = (np.repeat(d, c, axis=0) if constant else d[:scanned]).reshape(-1, c, dim, dim)
            dx = np.empty((x.shape[0], dim, dim), dtype=complex)
            for j in range(1, c):
                linalg.matmul(x[:, j], x[:, j - 1], out=dx)
                x[:, j] += dx
                x[:, j] += x[:, j - 1]
            starts = np.empty((scanned // c + 1, dim, dim), dtype=complex)
            starts[0] = out[0]
            _walk(np.broadcast_to(x[:, -1], starts[1:].shape), starts)
            nodes = out[1:scanned + 1].reshape(-1, c, dim, dim)
            linalg.matmul(x[:, :-1], starts[:-1, None], out=nodes[:, :-1])
            nodes[:, :-1] += starts[:-1, None]
            nodes[:, -1] = starts[1:]
        _walk(np.broadcast_to(d, (grid.steps,) + d.shape[1:])[scanned:], out[scanned:])
    return out


def gate_h(h: np.ndarray, grid, hbar: float = 1.0,
           eps_herm: float = linalg.EPS_HERM) -> None:
    """Refuse h, the stack of h(t) on grid.half_times(), unless it is Hermitian at
    every stage (NotHermitian) and every RK4 step of grid is stable (ValidationError).

    |R(iy)|^2 = 1 - y^6/72 + y^8/576 exceeds 1 exactly when |y| > 2 sqrt(2), and
    y = dt ||h||_2 / hbar for the extreme eigenvalue of h, which is taken when
    every matrix of h is h[0]. For a varying h the largest column 2-norm stands
    in for ||h||_2, which it never exceeds, so no stable grid is refused; it is
    never below ||h||_F / sqrt(d), and exact for a diagonal h. fro_norms takes
    each column as a d x 1 matrix, so it does not overflow.
    """
    ts = grid.half_times()
    linalg.check_hermitian(h, eps_herm, t=ts)
    if _constant(h):
        norm2 = np.abs(linalg.eig_hermitian(h[:1], eps_herm, t=ts).eigenvalues).max(axis=-1)
    else:   # (n, d): ||h e_j||
        norm2 = linalg.fro_norms(np.swapaxes(h, -1, -2)[..., None]).max(axis=-1)
    with np.errstate(over="ignore"):
        y = norm2 * grid.spacing / hbar
    unstable = y > RK4_LIMIT
    if unstable.any():
        k = int(np.argmax(unstable))
        raise ValidationError(
            f"time step {grid.spacing:g} is too large for RK4 at hbar={hbar:g}: "
            f"dt*||h||/hbar is at least {y[k]:.6g} at t={ts[k]:g}, above the "
            f"stability limit 2*sqrt(2); take more steps")


def integrate_u(h: np.ndarray, grid, hbar: float = 1.0, u0=None) -> np.ndarray:
    """RK4 series for i hbar u' = h(t) u. h is the stack of h(t) on
    grid.half_times(), admitted by gate_h; grid is a TimeGrid or one of its
    blocks, and u0 the value at its first node."""
    return _rk4_series((-1j / hbar) * h, grid, u0)


def ur_from_definition(u_series: np.ndarray, omega_inv: np.ndarray,
                       omega0: np.ndarray) -> np.ndarray:
    """omega(t)^-1 u(t) omega(0), node by node, from the stack of omega^-1."""
    with np.errstate(over="ignore", invalid="ignore"):   # as in _rk4_series
        return linalg.matmul(linalg.matmul(omega_inv, u_series), omega0)


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
    return linalg.matmul(linalg.matmul(linalg.dagger(ui), th0), ui)


class Operators(NamedTuple):
    """Operator stacks at a 1-D array of times."""
    h: np.ndarray          # Hermitian generator
    h_big: np.ndarray      # quasi-Hermitian generator H
    gen: np.ndarray        # corrected generator G = H - i hbar omega^-1 omega_dot
    omega: np.ndarray
    omega_inv: np.ndarray
    rate: np.ndarray       # omega^-1 omega_dot, the correction term of G over -i hbar


def half_grid_operators(s: "Scenario", os: OmegaSchedule, blk: GridBlock,
                        strides=(1,)) -> list[Operators]:
    """The operator stacks on every stride-th point of blk's half grid, one
    Operators per stride. Each operator is evaluated once per time: a stride's
    h, H, omega and omega^-1 are views of the stacks on every point. The roots
    (omega and the X that os.omega_inv certifies as omega^-1) and each
    stride's own omega_dot come from os.on_block (os the omega schedule of
    blk's grid, which roots each point of a walk once)."""
    ts = blk.half_times()
    roots, *w_dots = os.on_block(blk, strides)
    w, wi = roots[0], os.omega_inv(ts, roots)
    rates = [linalg.matmul(wi[::k], w_dot) for k, w_dot in zip(strides, w_dots)]
    del w_dots   # each is read once: free them before h and H are formed
    given = _given_generator(s, ts)
    if s.kind == "pair":
        h, h_big = given, linalg.matmul(linalg.matmul(wi, given), w)
    else:
        h, h_big = linalg.matmul(linalg.matmul(w, given), wi), given
    return [Operators(h[::k], h_big[::k], h_big[::k] - 1j * s.hbar * rate, w[::k], wi[::k], rate)
            for k, rate in zip(strides, rates)]


@dataclass
class Scenario:
    """Full problem description for one run, checked when it is built.

    Exactly one of h (pair mode: Hermitian generator given) or h_big
    (direct mode: quasi-Hermitian generator given) is set; the other is
    derived through the metric root. dim is theta's size, as theta yields it.
    """
    name: str
    grid: TimeGrid
    theta: OperatorSchedule
    initial_state: np.ndarray | None = None   # None: e0
    h: OperatorSchedule | None = None        # pair mode
    h_big: OperatorSchedule | None = None    # direct mode
    hbar: float = 1.0
    tolerances: dict = field(default_factory=dict)
    omega_analytic: tuple | None = None      # (omega, omega_dot, omega_inv): times -> stack
    u_oracle: Callable | None = None         # u_oracle(elapsed, hbar) -> matrix
    dim: int = field(init=False)

    def __post_init__(self):
        if (self.h is None) == (self.h_big is None):
            raise ValidationError("bad model: set exactly one of h (pair) or h_big (direct)")
        self.dim = np.shape(self.theta(np.array(self.theta.span[:1])))[-1]   # a time theta covers
        try:   # first, as a file's initial_state is decoded before the rest is checked
            v = spaces.reference_ket(np.eye(self.dim)[0] if self.initial_state is None
                                     else self.initial_state).components
        except (ValueError, OverflowError) as e:
            raise ValidationError(f"bad initial_state: {e}") from None
        if v.size != self.dim:
            raise ValidationError(f"initial_state has shape {v.shape}, dimension is {self.dim}")
        if not v.any():
            raise ValidationError("initial_state is the zero vector")
        self.initial_state = v
        self.hbar = _scalar("hbar", self.hbar, "finite positive")
        if not isinstance(self.tolerances, Mapping):
            raise ValidationError(f"bad tolerances: expected a JSON object, "
                                  f"got {_shown(self.tolerances)}")
        tolerances = {}
        for key, value in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise ValidationError(f"bad tolerances.{key}: not a known tolerance "
                                      f"(known: {', '.join(DEFAULT_TOLERANCES)})")
            tolerances[key] = _scalar(f"tolerances.{key}", value, "finite positive")
        self.tolerances = tolerances
        ends = np.array([self.grid.t_start, self.grid.t_end])
        for what, sched in (("theta", self.theta), ("h", self.h), ("H", self.h_big)):
            if sched is None:
                continue
            try:
                sched.check_span(ends)
            except OutOfRange as e:
                raise ValidationError(f"{what} does not cover the grid: {e}") from None
            shape = np.shape(sched(ends[:1]))[1:]
            if shape != (self.dim, self.dim):
                raise ValidationError(f"{what} is {'x'.join(map(str, shape))}, "
                                      f"dimension is {self.dim}")

    @property
    def kind(self) -> str:
        return "pair" if self.h is not None else "direct"

    def tol(self, key: str) -> float:
        return self.tolerances.get(key, DEFAULT_TOLERANCES[key])

    def initial_norm(self, theta0: np.ndarray) -> float:
        """<phi0|theta0|phi0>, theta0 the metric at t0; refused (ValidationError)
        unless it is a positive finite number to measure a drift against."""
        phi0 = self.initial_state
        with np.errstate(over="ignore", invalid="ignore"):
            norm0 = float((phi0.conj() @ theta0 @ phi0).real)
        if not 0.0 < norm0 < np.inf:   # underflows, or overflows to inf or nan
            size = "small" if norm0 <= 0.0 else "large"
            raise ValidationError(f"initial_state has physical norm {norm0:g}, "
                                  f"too {size} to measure a drift against")
        return norm0

    def omega_schedule(self) -> OmegaSchedule:
        """The omega schedule of a walk of this grid (OmegaSchedule.on_block)."""
        return OmegaSchedule(self.theta, self.grid, analytic=self.omega_analytic,
                             eps_herm=self.tol("eps_herm"), eps_pos=self.tol("eps_pos"),
                             cond_max=self.tol("cond_max"))

    def with_steps(self, steps: int) -> "Scenario":
        return replace(self, grid=TimeGrid(self.grid.t_start, self.grid.t_end, steps))

    @property
    def fd_omega_dot(self) -> bool:
        """Whether omega_dot is a central difference of omega, not a closed form."""
        return self.omega_analytic is None or self.omega_analytic[1] is None

    def with_fd_omega_dot(self) -> "Scenario":
        """This scenario with omega_dot taken by central differences of omega."""
        w = self.omega_analytic
        return self if self.fd_omega_dot else replace(self, omega_analytic=(w[0], None, w[2]))


@contextmanager
def _gate(what: str):
    """Raise a gate that fails inside as a ValidationError naming what; the
    failure's own message names its t."""
    try:
        yield
    except ValidationError:   # already names its field and t
        raise
    except QuasihermError as e:
        if isinstance(e, NotHermitian):
            where = "" if e.t is None else f" at t={e.t:g}"
            raise ValidationError(f"{what} not Hermitian{where} "
                                  f"(defect {e.defect:.3e})") from None
        raise ValidationError(f"{what} rejected: {e}") from e


def _given_generator(s: Scenario, ts: np.ndarray) -> np.ndarray:
    """s's given generator on the times ts, h in pair mode and H in direct mode;
    an inf or nan entry is refused, naming the generator and the first such t."""
    with _gate(f"{s.kind}-mode generator"):
        return linalg.as_matrices((s.h if s.kind == "pair" else s.h_big)(ts), t=ts)


def validate_scenario(s: Scenario, os: OmegaSchedule, blk, qh: np.ndarray | None = None,
                      strides=(1,)) -> tuple[list[Operators], np.ndarray]:
    """Admit the metric over one block of s's grid: its operator stacks on the
    half grid, one Operators per stride (half_grid_operators; strides[0] is 1),
    and theta at its nodes.

    The metric is gated through theta and through omega = sqrt(theta), its
    inverse and its derivative; in direct mode a quasi-Hermiticity residual of
    H above eps_res is refused at its node. Each raises ValidationError naming
    the first failing t. h is left to _admit_h, once for each grid walked. The
    residual is formed in direct mode, or when qh is given: an array that
    receives it node by node.
    """
    ts = blk.times()
    with _gate("metric"):
        theta = linalg.as_matrices(s.theta(ts), t=ts)
        ops = half_grid_operators(s, os, blk, strides)
    if s.kind == "direct" or qh is not None:
        res = spaces.quasi_hermiticity_defect(ops[0].h_big[::2], theta)
        bad = res > s.tol("eps_res")
        if s.kind == "direct" and bad.any():
            k = int(np.argmax(bad))
            raise ValidationError(
                f"direct-mode generator violates quasi-Hermiticity at t={ts[k]:g} "
                f"(residual {res[k]:.6g} > {s.tol('eps_res'):g})")
        if qh is not None:
            qh[:] = res
    return ops, theta


def _admit_h(s: Scenario, h: np.ndarray, blk) -> None:
    """gate_h of s's h over blk, a failed gate raised as a ValidationError. blk
    lies within one block of grid_blocks(blk.grid, s.dim), so where a walk of
    that grid alone sees a block of constant h, so does the gate."""
    with _gate("pair-mode generator" if s.kind == "pair"
               else "Hermitian equivalent of the direct-mode generator"):
        gate_h(h, blk, s.hbar, s.tol("eps_herm"))


class Diagnostics(NamedTuple):
    """The report of one run: one 1-D column per quantity. evolve fills every
    grid node (res_naive and res_corrected are nan at both ends), and
    verify.diagnostics_from_result cuts all but omega_motion to the interior
    nodes. The first seven are the CSV columns, in order."""
    t: np.ndarray
    unitarity_defect: np.ndarray   # ||u^dagger u - I||_F
    norm_phys: np.ndarray          # <U_R phi0 | theta | U_R phi0>
    res_naive: np.ndarray          # ||i hbar U_R' - H U_R||_F, U_R' a central difference
    res_corrected: np.ndarray      # ||i hbar U_R' - G U_R||_F
    res_metric: np.ndarray         # ||theta_recon - theta||_F / ||theta||_F
    res_qh: np.ndarray             # quasi-Hermiticity residual of H against theta
    norm_drift: np.ndarray         # |norm_phys / <phi0|theta(t0)|phi0> - 1|
    omega_motion: np.ndarray       # ||omega^-1 omega_dot||_F
    gap_naive: np.ndarray          # ||U_naive - U_R||_F, U_naive integrated from H
    gap_corrected: np.ndarray      # ||U_corr - U_R||_F, U_corr integrated from G


def evolve(s: Scenario) -> Diagnostics:
    """Integrate s over its grid and form every column of its report, at every
    node, in one half-grid pass.

    Each block is admitted as it is reached (validate_scenario), and only the
    columns outlive it: the next block starts from u, U_naive and U_corr at
    its last node, and its central difference reads U_R at the node before. A
    failure raises ValidationError naming the first failing t of its block.
    """
    os = s.omega_schedule()
    d = Diagnostics(s.grid.times(), *(np.full(s.grid.steps + 1, np.nan)
                                      for _ in Diagnostics._fields[1:]))
    u0 = naive0 = corr0 = None   # carried from the block before
    before = np.empty((0, s.dim, s.dim), dtype=complex)   # U_R at the node before it

    for blk in grid_blocks(s.grid, s.dim):
        nodes = slice(blk.first, blk.last + 1)
        [ops], theta = validate_scenario(s, os, blk, d.res_qh[nodes])
        _admit_h(s, ops.h, blk)
        if blk.first == 0:   # admitted: refuse a bad initial norm before any walk
            omega0, theta0 = ops.omega[0].copy(), theta[0].copy()
            norm0 = s.initial_norm(theta0)
        d.omega_motion[nodes] = linalg.fro_norms(ops.rate[::2])
        # only the node values of omega were needed: free the stacks
        ops = ops._replace(omega=None, rate=None)
        u = integrate_u(ops.h, blk, s.hbar, u0)
        ur = ur_from_definition(u, ops.omega_inv[::2], omega0)
        ur_naive = ur_from_naive_generator(ops.h_big, blk, s.hbar, naive0)
        ur_corr = ur_from_corrected_generator(ops.gen, blk, s.hbar, corr0)
        theta_recon = metric_from_ur(ur, theta0, blk, s.tol("cond_max"))
        with np.errstate(over="ignore", invalid="ignore"):   # an RK4-unstable grid
            d.unitarity_defect[nodes] = linalg.fro_norms(linalg.matmul(linalg.dagger(u), u)
                                                         - np.eye(s.dim))
        d.gap_naive[nodes] = linalg.fro_norms(ur_naive - ur)
        d.gap_corrected[nodes] = linalg.fro_norms(ur_corr - ur)
        states = np.einsum("kij,j->ki", ur, s.initial_state)   # reference-space kets U_R(t) phi0
        d.norm_phys[nodes] = np.einsum("ki,kij,kj->k", states.conj(), theta, states).real
        d.res_metric[nodes] = linalg.fro_norms(theta_recon - theta) / linalg.fro_norms(theta)
        # the block's nodes but its last (and node 0) have both neighbours in wide
        wide = np.concatenate((before, ur))
        p = slice(1 - before.shape[0], blk.steps)
        k, at_k = slice(blk.first + p.start, blk.last), slice(2 * p.start, 2 * p.stop, 2)
        lhs = 1j * s.hbar * (wide[2:] - wide[:-2]) / (2.0 * s.grid.spacing)
        d.res_naive[k] = linalg.fro_norms(lhs - linalg.matmul(ops.h_big[at_k], ur[p]))
        d.res_corrected[k] = linalg.fro_norms(lhs - linalg.matmul(ops.gen[at_k], ur[p]))
        u0, naive0, corr0, before = u[-1], ur_naive[-1], ur_corr[-1], ur[-2:-1]

    d.norm_drift[:] = np.abs(d.norm_phys / norm0 - 1.0)
    return d


def end_states(s: Scenario, probe: str, levels: int = 1) -> list[np.ndarray]:
    """The probe's propagator, u or U_corr, at the end of the grids of N 2^j
    steps for j < levels, N being s's steps, coarsest first; a pair's u probe
    reads h alone, no metric root.

    One walk of the finest grid's blocks serves every grid. Each block is
    admitted as evolve admits it, and its stacks are formed, each metric point
    rooted, once: grid j reads them at every 2^(levels-1-j)-th half-grid
    point, which are its own half-times bit for bit, with its own omega_dot
    (OmegaSchedule.on_block at that stride) and its own gate_h. Each block of
    a coarser grid's own walk is a run of the finest grid's blocks
    (grid_blocks), so each end state has the bits of a walk of its grid alone,
    and the pass takes every gate those walks take: it refuses whenever one of
    them would. The grids are then walked one at a time, coarsest first, and
    the first of those walks that refuses is raised. A finest grid of too many
    steps is refused before any walk.
    """
    if probe not in ("u", "ur_corr"):
        raise ValueError(f"unknown probe {probe!r}")
    fine = s.with_steps(s.grid.steps << (levels - 1))
    try:
        return _nested_end_states(fine, probe, levels)
    except QuasihermError:
        if levels == 1:
            raise
    return [end_states(s.with_steps(s.grid.steps << j), probe)[0] for j in range(levels)]


def _nested_end_states(s: Scenario, probe: str, levels: int) -> list[np.ndarray]:
    """end_states' one walk of s, the finest grid's scenario. linspace(a, b,
    2n + 1) is linspace(a, b, 2kn + 1)[::k] bit for bit for k a power of 2, so
    the grid of n steps reads its own half-times at the finest grid's points."""
    strides = [1 << j for j in range(levels)]   # finest first
    grids = [s.grid] + [s.with_steps(s.grid.steps >> j).grid for j in range(1, levels)]
    os, ends = s.omega_schedule(), [None] * levels
    walk = ur_from_corrected_generator if probe == "ur_corr" else integrate_u
    for blk in grid_blocks(s.grid, s.dim):
        if probe == "u" and s.kind == "pair":
            h = _given_generator(s, blk.half_times())
            stacks = [h[::k] for k in strides]
        else:   # only the walked stacks outlive the admission
            ops, _ = validate_scenario(s, os, blk, strides=strides)
            h = ops[0].h
            stacks = [o.gen if probe == "ur_corr" else o.h for o in ops]
            del ops
        level_blocks = [GridBlock(g, blk.first // k, blk.last // k)
                        for g, k in zip(grids, strides)]
        for lb, k in zip(level_blocks, strides):
            _admit_h(s, h[::k], lb)
        del h
        for j, lb in enumerate(level_blocks):
            ends[j] = walk(stacks[j], lb, s.hbar, ends[j])[-1]
            stacks[j] = None   # no walked stack outlives its walk
    return ends[::-1]
