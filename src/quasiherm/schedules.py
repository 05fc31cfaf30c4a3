"""Time grids and time-dependent operator schedules.

A schedule is a value function and its time derivative on a span: given in
closed form, a fixed matrix (constant_matrix), or the cubic Hermite
interpolant of uniform snapshots with its exact derivative (sampled). The
derived omega schedule serves omega, its inverse and its time derivative
from a metric schedule, with a finite-difference fallback for the derivative.

Every evaluator takes a 1-D array of times and returns a stack of shape
(n, d, d), one matrix per time: closed forms, the analytic omega, omega_dot
and omega^-1, and the sampled interpolant are each called once for all the
times. The integrators evaluate each operator once per point of the
half-step grid t0, t0 + dt/2, ..., t1 (TimeGrid.half_times), a block of
steps at a time (TimeGrid.blocks). The finite-difference derivative reads
omega on a window of that lattice, which holds every point of its stencil:
a block's own points and two beyond either end. The walkers root each point
of the window once, at its own half-time, and pass the roots around the
node two blocks share to the next block (dynamics.half_grid_operators);
the central rows are two slices of the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import OutOfRange

_SPAN_SLACK = 1e-9
_LATTICE_RTOL = 1e-6
_TINY = np.finfo(float).tiny   # the smallest normal double
_EPS = np.finfo(float).eps
MAX_STEPS = 10**7   # a d=2 `quasiherm run` peaks near 100 B/step (tracemalloc): ~1 GB here


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ValueError(f"need from 2 to {MAX_STEPS} steps, got {self.steps}")
        if not np.isfinite(self.t_end - self.t_start):
            raise ValueError(f"the span [{self.t_start:.15g}, {self.t_end:.15g}] is too long: "
                             "its length overflows")
        if not self.spacing >= _TINY:
            raise ValueError(f"the spacing {self.spacing:g} of {self.steps} steps over "
                             f"[{self.t_start:.15g}, {self.t_end:.15g}] is zero or subnormal")
        # Each half-grid time is off by at most a few eps * max|t|, so a half
        # step above 8 eps * max|t| keeps them strictly increasing; below
        # that, the times themselves are compared.
        top = max(abs(self.t_start), abs(self.t_end))
        if not (0.5 * self.spacing > 8 * _EPS * top or np.all(np.diff(self.half_times()) > 0)):
            raise ValueError(f"{self.steps} steps over [{self.t_start:.15g}, {self.t_end:.15g}] "
                             "give times that do not strictly increase")

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    @cached_property
    def _half_times(self) -> np.ndarray:
        ts = np.linspace(self.t_start, self.t_end, 2 * self.steps + 1)
        ts.flags.writeable = False
        return ts

    def times(self) -> np.ndarray:   # the nodes: every other half-grid time
        return self._half_times[::2]

    def half_times(self) -> np.ndarray:
        """Nodes and step midpoints, computed once per grid (read-only)."""
        return self._half_times

    def blocks(self, max_steps: int) -> list["GridBlock"]:
        """Consecutive blocks of at most max_steps steps covering the grid."""
        count = -(-self.steps // max(1, max_steps))
        edges = [self.steps * i // count for i in range(count + 1)]
        return [GridBlock(self, a, b) for a, b in zip(edges[:-1], edges[1:])]


@dataclass(frozen=True)
class GridBlock:
    """Steps first..last of a grid, with the grid's own spacing and times."""
    grid: TimeGrid
    first: int
    last: int

    @property
    def steps(self) -> int:
        return self.last - self.first

    @property
    def spacing(self) -> float:
        return self.grid.spacing

    def times(self) -> np.ndarray:
        return self.grid.half_times()[2 * self.first:2 * self.last + 1:2]

    def half_times(self) -> np.ndarray:
        return self.grid.half_times()[2 * self.first:2 * self.last + 1]


def constant_fn(m: np.ndarray):
    """The times -> stack function of a fixed matrix."""
    return lambda ts: np.broadcast_to(m, (ts.size,) + m.shape)


class OperatorSchedule:
    """t -> A(t) on a fixed span: a function of a 1-D array of times that returns
    a stack, with a .derivative method of the same shape."""

    def __init__(self, dim, span, value_fn, deriv_fn):
        """value_fn and deriv_fn map a 1-D array of times to a stack."""
        self.dim = dim
        self.span = (float(span[0]), float(span[1]))
        self._value = value_fn
        self._deriv = deriv_fn

    @classmethod
    def constant_matrix(cls, matrix, span):
        m = linalg.as_matrix(matrix)
        return cls(m.shape[0], span, constant_fn(m), constant_fn(np.zeros_like(m)))

    @classmethod
    def sampled(cls, times, snapshots):
        """The cubic Hermite interpolant of the snapshots with central-difference
        slopes (one-sided at the ends), and its exact, continuous derivative."""
        ts = np.asarray(times, dtype=float)
        if ts.ndim != 1 or ts.size < 4:
            raise ValueError("sampled schedules need at least 4 snapshot times")
        dt = np.diff(ts)
        if not (dt > 0).all():
            raise ValueError("snapshot times must be strictly increasing")
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            raise ValueError("snapshot times must be uniformly spaced")
        mats = np.stack([linalg.as_matrix(s) for s in snapshots])
        if mats.shape[0] != ts.size:
            raise ValueError("snapshot count must match snapshot times")
        spacing = float(dt[0])
        slopes = np.empty_like(mats)
        slopes[1:-1] = (mats[2:] - mats[:-2]) / (2.0 * spacing)
        slopes[0] = (-3.0 * mats[0] + 4.0 * mats[1] - mats[2]) / (2.0 * spacing)
        slopes[-1] = (3.0 * mats[-1] - 4.0 * mats[-2] + mats[-3]) / (2.0 * spacing)

        def interval(t):   # the snapshot interval of each time and the offset in it, in [0, 1]
            j = np.clip(((t - ts[0]) / spacing).astype(int), 0, ts.size - 2)
            return j, ((t - ts[j]) / spacing)[:, None, None]

        def value_fn(t):
            j, s = interval(t)
            s2, s3 = s * s, s * s * s
            h00 = 2.0 * s3 - 3.0 * s2 + 1.0
            h10 = s3 - 2.0 * s2 + s
            h01 = -2.0 * s3 + 3.0 * s2
            h11 = s3 - s2
            return (h00 * mats[j] + h10 * spacing * slopes[j]
                    + h01 * mats[j + 1] + h11 * spacing * slopes[j + 1])

        def deriv_fn(t):   # d/dt of value_fn, term by term
            j, s = interval(t)
            s2 = s * s
            return ((6.0 * s2 - 6.0 * s) * (mats[j] - mats[j + 1]) / spacing
                    + (3.0 * s2 - 4.0 * s + 1.0) * slopes[j]
                    + (3.0 * s2 - 2.0 * s) * slopes[j + 1])

        return cls(mats.shape[1], (ts[0], ts[-1]), value_fn, deriv_fn)

    def check_span(self, ts):
        """Raise OutOfRange for the first time of the 1-D array ts outside the span."""
        if np.ndim(ts) != 1:
            raise ValueError(f"expected a 1-D array of times, got shape {np.shape(ts)}")
        lo, hi = self.span
        slack = _SPAN_SLACK * (hi - lo)
        bad = (ts < lo - slack) | (ts > hi + slack)
        if bad.any():
            t = ts[int(np.argmax(bad))]
            raise OutOfRange(f"t={t:g} outside schedule span [{lo:g}, {hi:g}]")

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        self.check_span(ts)
        with np.errstate(over="ignore", invalid="ignore"):   # the finiteness gates refuse inf
            return self._value(ts)

    def derivative(self, ts: np.ndarray) -> np.ndarray:
        self.check_span(ts)
        return self._deriv(ts)


def _fd_stencil(ts, step, span):
    """(r, fwd, bwd, below, above) of the central difference with the given step
    at the times ts: the step in spacings of ts; how many of the first and of
    the last times take the one-sided rule because a central stencil would
    leave the span; and how many lattice points before ts[0] and after ts[-1]
    the stencil reads.

    ts must be uniform with a spacing that divides step (one time counts as
    spaced by step); other ts raise ValueError."""
    n = ts.size
    h = ts[1] - ts[0] if n > 1 else step
    r = int(round(step / h)) if h > 0 else 0
    if (r < 1 or abs(r * h - step) > _LATTICE_RTOL * step
            or not np.allclose(np.diff(ts), h, rtol=_LATTICE_RTOL, atol=0.0)):
        raise ValueError(f"the finite-difference step {step:g} is not a multiple of the "
                         f"spacing of the {n} times, or they are not uniformly spaced")
    lo, hi = span
    fwd = int(np.count_nonzero(ts - step < lo))
    bwd = int(np.count_nonzero(ts[fwd:] + step > hi))
    mid = fwd + bwd < n   # central rows read i -+ r, one-sided rows i +- r and i +- 2r
    below = max(0, r - fwd if mid else 0, 2 * r + bwd - n if bwd else 0)
    above = max(0, r - bwd if mid else 0, 2 * r + fwd - n if fwd else 0)
    return r, fwd, bwd, below, above


def _lattice_times(ts, h, lo, hi):
    """The times at the lattice indices lo..hi-1 of the uniform times ts,
    continued past either end by the spacing h."""
    n = ts.size
    if 0 <= lo and hi <= n:
        return ts[lo:hi]
    idx = np.arange(lo, hi)
    return np.where(idx < 0, ts[0] + idx * h,
                    np.where(idx >= n, ts[-1] + (idx - (n - 1)) * h,
                             ts[np.clip(idx, 0, n - 1)]))


def _fd_derivative(w, lead, ts, step, span):
    """d/dt of a function at the times ts by central differences with the given
    step, second-order one-sided where a central stencil would leave the span.

    ts as for _fd_stencil. w holds the function on a window of the lattice of
    ts, w[lead + i] at ts[i], and at every point the stencil reads:
    a central row is (w[i + r] - w[i - r]) / (2 step), two slices of the
    window; the rows at either end of the span take [-3, 4, -1]."""
    r, fwd, bwd, below, above = _fd_stencil(ts, step, span)
    n = ts.size
    if lead < below or w.shape[0] < lead + n + above:
        raise ValueError(f"a window of {w.shape[0]} points with the first time at {lead} "
                         "does not hold every point of the stencil")
    a, b, end = lead + fwd, lead + n - bwd, lead + n   # window indices: central rows a..b-1
    out = np.empty((n,) + w.shape[1:], dtype=complex)
    out[:fwd] = -3.0 * w[lead:a] + 4.0 * w[lead + r:a + r] - w[lead + 2 * r:a + 2 * r]
    np.subtract(w[a + r:b + r], w[a - r:b - r], out=out[fwd:n - bwd])
    out[n - bwd:] = 3.0 * w[b:end] - 4.0 * w[b - r:end - r] + w[b - 2 * r:end - 2 * r]
    out /= 2.0 * step
    return out


class OmegaSchedule:
    """omega(t), omega(t)^-1 and d/dt omega(t) derived from a metric schedule.

    omega is the principal square root of theta(t) unless analytic forms
    are supplied: analytic = (omega, omega_dot, omega_inv), each a function
    of a 1-D array of times that returns a stack. omega_dot or omega_inv may
    be None: the derivative is then a central difference of omega with step
    fd_step, and the inverse the gated inverse of omega. Each method takes a
    1-D array of times and returns a stack, like the schedules; the central
    difference needs times spaced evenly by a divisor of fd_step.
    """

    def __init__(self, theta_schedule: OperatorSchedule, fd_step: float,
                 analytic=None, eps_herm=linalg.EPS_HERM, eps_pos=linalg.EPS_POS,
                 cond_max=linalg.COND_MAX):
        self.theta = theta_schedule
        self.span = theta_schedule.span
        self.fd_step = float(fd_step)
        self._omega_fn, self._omega_dot_fn, self._omega_inv_fn = analytic or (None,) * 3
        self._eps_herm = eps_herm
        self._eps_pos = eps_pos
        self._cond_max = cond_max

    def omega(self, ts: np.ndarray) -> np.ndarray:
        if self._omega_fn is not None:
            return self._omega_fn(ts)
        return linalg.principal_sqrt(self.theta(ts), self._eps_herm, self._eps_pos, t=ts)

    def omega_inv(self, ts: np.ndarray, omega=None) -> np.ndarray:
        """omega^-1 at the times ts; pass omega = self.omega(ts) if it is already at hand."""
        if self._omega_inv_fn is not None:
            return self._omega_inv_fn(ts)
        w = self.omega(ts) if omega is None else omega
        return linalg.inverse(w, self._cond_max, t=ts)

    def _reach(self, ts: np.ndarray) -> tuple[int, int]:
        """How many lattice points before ts[0] and after ts[-1] omega_dot(ts)
        reads omega at: none when omega_dot is analytic."""
        if self._omega_dot_fn is not None:
            return 0, 0
        return _fd_stencil(ts, self.fd_step, self.span)[3:]

    def omega_dot(self, ts: np.ndarray, window=None, lead=0) -> np.ndarray:
        """d/dt omega at the times ts.

        A central difference reads omega on a window of the lattice of ts:
        window[lead + i] at ts[i], and every point that _reach(ts) counts
        around them. Without a window, omega is taken here on that window in
        one call, past either end of ts at times continued by its spacing."""
        if self._omega_dot_fn is not None:
            return self._omega_dot_fn(ts)
        if window is None:
            self.theta.check_span(ts)
            below, above = self._reach(ts)
            h = ts[1] - ts[0] if ts.size > 1 else self.fd_step
            window = self.omega(_lattice_times(ts, h, -below, ts.size + above))
            lead = below
        return _fd_derivative(window, lead, ts, self.fd_step, self.span)
