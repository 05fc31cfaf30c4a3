"""Time grids and time-dependent operator schedules.

A schedule is either CLOSED_FORM (analytic evaluator plus analytic time
derivative) or SAMPLED (uniform snapshots, piecewise-cubic Hermite
interpolation with finite-difference slopes). The derived omega schedule
wraps a metric schedule and serves omega, its inverse and its time
derivative, with a finite-difference fallback for the derivative.

Every evaluator takes a time or a 1-D array of times; an array gives a
stack of shape (n, d, d), one matrix per time. A time-dependent operator
is given only as a function of a 1-D array of times that returns such a
stack: closed forms, the analytic omega, omega_dot and omega^-1, and the
sampled interpolant are each called once for all the times (a single time
is an array of one). The integrators evaluate each operator once per point
of the half-step grid t0, t0 + dt/2, ..., t1 (TimeGrid.half_times), a block
of steps at a time (TimeGrid.blocks). On such a grid the finite-difference
derivative takes its stencil points from the grid itself (an index shift),
so each metric root is computed once per point.
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
MAX_STEPS = 10**7   # a d=2 run keeps about 1 kB per step: some 10 GB at this size


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


def _times(t) -> tuple[np.ndarray, bool]:
    """(1-D float array of times, whether t was a single time)."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError(f"expected a time or a 1-D array of times, got shape {ts.shape}")
    return np.atleast_1d(ts), ts.ndim == 0


def _as_stack(a, n: int) -> np.ndarray:
    """A matrix or a stack as a stack of n matrices."""
    a = np.asarray(a, dtype=complex)
    return a.reshape((n,) + a.shape[-2:])


class OperatorSchedule:
    """t -> A(t) on a fixed span; callable, with a .derivative method."""

    CLOSED_FORM = "closed_form"
    SAMPLED = "sampled"

    def __init__(self, kind, dim, span, value_fn, deriv_fn,
                 sample_times=None, snapshots=None, constant=None, label=""):
        self.kind = kind
        self.dim = dim
        self.span = (float(span[0]), float(span[1]))
        self._value = value_fn   # 1-D array of times -> stack
        self._deriv = deriv_fn
        self.sample_times = sample_times
        self.snapshots = snapshots
        self.constant = constant  # set when the schedule is a fixed matrix
        self.label = label

    @classmethod
    def closed_form(cls, dim, span, value_fn, deriv_fn, label=""):
        """value_fn and deriv_fn map a 1-D array of times to a stack."""
        return cls(cls.CLOSED_FORM, dim, span, value_fn, deriv_fn, label=label)

    @classmethod
    def constant_matrix(cls, matrix, span, label=""):
        m = linalg.as_matrix(matrix)
        zero = np.zeros_like(m)
        return cls(cls.CLOSED_FORM, m.shape[0], span,
                   lambda ts: np.broadcast_to(m, (ts.size,) + m.shape),
                   lambda ts: np.broadcast_to(zero, (ts.size,) + m.shape),
                   constant=m, label=label)

    @classmethod
    def sampled(cls, times, snapshots):
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
        dim = mats.shape[1]
        spacing = float(dt[0])
        slopes = np.empty_like(mats)
        slopes[1:-1] = (mats[2:] - mats[:-2]) / (2.0 * spacing)
        slopes[0] = (-3.0 * mats[0] + 4.0 * mats[1] - mats[2]) / (2.0 * spacing)
        slopes[-1] = (3.0 * mats[-1] - 4.0 * mats[-2] + mats[-3]) / (2.0 * spacing)

        def value_fn(t):
            j = np.clip(((t - ts[0]) / spacing).astype(int), 0, ts.size - 2)
            s = ((t - ts[j]) / spacing)[:, None, None]
            s2, s3 = s * s, s * s * s
            h00 = 2.0 * s3 - 3.0 * s2 + 1.0
            h10 = s3 - 2.0 * s2 + s
            h01 = -2.0 * s3 + 3.0 * s2
            h11 = s3 - s2
            return (h00 * mats[j] + h10 * spacing * slopes[j]
                    + h01 * mats[j + 1] + h11 * spacing * slopes[j + 1])

        sched = cls(cls.SAMPLED, dim, (ts[0], ts[-1]), value_fn, None,
                    sample_times=ts, snapshots=mats)
        sched._deriv = lambda t: _fd_derivative(sched, t, spacing, sched.span)
        return sched

    def check_span(self, ts):
        """Raise OutOfRange for the first time of the 1-D array ts outside the span."""
        lo, hi = self.span
        slack = _SPAN_SLACK * (hi - lo)
        bad = (ts < lo - slack) | (ts > hi + slack)
        if bad.any():
            t = ts[int(np.argmax(bad))]
            raise OutOfRange(f"t={t:g} outside schedule span [{lo:g}, {hi:g}]")

    def __call__(self, t) -> np.ndarray:
        ts, single = _times(t)
        self.check_span(ts)
        with np.errstate(over="ignore", invalid="ignore"):   # the finiteness gates refuse inf
            out = self._value(ts)
        return out[0] if single else out

    def derivative(self, t) -> np.ndarray:
        ts, single = _times(t)
        self.check_span(ts)
        out = self._deriv(ts)
        return out[0] if single else out


def _fd_derivative(fn, ts, step, span, values=None):
    """d/dt of fn at the times ts by central differences with the given step,
    second-order one-sided where a central stencil would leave the span.

    fn maps a 1-D array of times to a stack and is called once. When ts is a
    uniform grid whose spacing divides step, the stencil points are grid
    points (an index shift) plus a halo beyond either end of ts, and with
    values = fn(ts) given fn is called only for the halo. Other ts take
    their three stencil points each.
    """
    n = ts.size
    h = ts[1] - ts[0] if n > 1 else step
    r = int(round(step / h)) if h > 0 else 0
    lo, hi = span
    fwd = ts - step < lo
    bwd = ~fwd & (ts + step > hi)
    # three stencil points per time, in steps from it, and their weights
    offsets = np.where(fwd[:, None], [0, 1, 2],
                       np.where(bwd[:, None], [0, -1, -2], [1, -1, -1]))
    weights = np.where(fwd[:, None], [-3.0, 4.0, -1.0],
                       np.where(bwd[:, None], [3.0, -4.0, 1.0], [1.0, -1.0, 0.0]))
    w = weights[:, :, None, None]
    if n > 1 and (r < 1 or abs(r * h - step) > _LATTICE_RTOL * step
                  or not np.allclose(np.diff(ts), h, rtol=_LATTICE_RTOL, atol=0.0)):
        f = fn((ts[:, None] + offsets * step).ravel())
        f = f.reshape((n, 3) + f.shape[1:])
        return (w[:, 0] * f[:, 0] + w[:, 1] * f[:, 1] + w[:, 2] * f[:, 2]) / (2.0 * step)
    idx = np.arange(n)[:, None] + r * offsets   # as lattice indices
    need = np.unique(idx[weights != 0.0])
    inside = (need >= 0) & (need < n)
    lattice_t = np.where(need < 0, ts[0] + need * h,
                         np.where(need >= n, ts[-1] + (need - (n - 1)) * h,
                                  ts[np.clip(need, 0, n - 1)]))
    if values is None:
        f = fn(lattice_t)
    else:
        f = np.empty((need.size,) + values.shape[1:], dtype=complex)
        f[inside] = values[need[inside]]
        if not inside.all():
            f[~inside] = fn(lattice_t[~inside])
    pos = np.searchsorted(need, idx)
    return (w[:, 0] * f[pos[:, 0]] + w[:, 1] * f[pos[:, 1]]
            + w[:, 2] * f[pos[:, 2]]) / (2.0 * step)


class OmegaSchedule:
    """omega(t), omega(t)^-1 and d/dt omega(t) derived from a metric schedule.

    omega is the principal square root of theta(t) unless analytic forms
    are supplied: analytic = (omega, omega_dot, omega_inv), each a function
    of a 1-D array of times that returns a stack. omega_dot or omega_inv may
    be None: the derivative is then a central difference of omega with step
    fd_step, and the inverse the gated inverse of omega. Each method takes a
    time or a 1-D array of times, like the schedules.
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

    def omega(self, t) -> np.ndarray:
        ts, single = _times(t)
        if self._omega_fn is not None:
            w = self._omega_fn(ts)
        else:
            w = linalg.principal_sqrt(self.theta(ts), self._eps_herm, self._eps_pos, t=ts)
        return w[0] if single else w

    def omega_inv(self, t, omega=None) -> np.ndarray:
        """omega(t)^-1; pass omega = self.omega(t) if it is already at hand."""
        ts, single = _times(t)
        if self._omega_inv_fn is not None:
            wi = self._omega_inv_fn(ts)
        else:
            w = self.omega(ts) if omega is None else _as_stack(omega, ts.size)
            wi = linalg.inverse(w, self._cond_max, t=ts)
        return wi[0] if single else wi

    def omega_dot(self, t, omega=None) -> np.ndarray:
        """d/dt omega(t); pass omega = self.omega(t) if it is already at hand."""
        ts, single = _times(t)
        if self._omega_dot_fn is not None:
            wd = self._omega_dot_fn(ts)
        else:
            values = None if omega is None else _as_stack(omega, ts.size)
            wd = _fd_derivative(self.omega, ts, self.fd_step, self.span, values)
        return wd[0] if single else wd
