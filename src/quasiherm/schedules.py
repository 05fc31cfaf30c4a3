"""Time grids and time-dependent operator schedules.

A schedule is a value function and its time derivative on a span: given in
closed form, a fixed matrix (constant_matrix), or the cubic Hermite
interpolant of uniform snapshots with its exact derivative (sampled). The
omega schedule of a grid serves omega, its inverse and its time derivative
from a metric schedule, with a finite-difference fallback for the derivative.
A root's inverse comes from the eigendecomposition that takes the root,
X = V diag(1/sqrt(lambda)) V^dagger, and linalg.inverse certifies it as it
would certify inv(omega).

Every evaluator takes a 1-D array of times and returns a stack of shape
(n, d, d), one matrix per time: closed forms, the analytic omega, omega_dot
and omega^-1, and the sampled interpolant are each called once for all the
times. The integrators evaluate each operator once per point of the
half-step grid t0, t0 + dt/2, ..., t1 (TimeGrid.half_times), a block of
steps at a time (GridBlock). The central difference of omega reads it on a
window of that grid: a block's own points and four more on either side,
clipped to the grid. A walk that also serves the coarser grids of every 2nd
or 4th point (stride 2 or 4) widens the window to 4 x stride points a side, and
omega_dot takes each grid's difference at its own spacing from every
stride-th point of the same window. OmegaSchedule.on_block roots each point
of the window once, at its own half-time, and keeps the roots, each with its
X, that the next block reads back (the seam); the central rows are two
slices of the window, and only the first two and last two points of each
grid's half grid take the one-sided rule.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import OutOfRange, ValidationError

_SPAN_SLACK = 1e-9
_R = 2   # the central difference's step, dt, in half-grid spacings
_TINY = np.finfo(float).tiny   # the smallest normal double
_EPS = np.finfo(float).eps
MAX_STEPS = 10**7   # a d=2 `quasiherm run` peaks near 100 B/step (tracemalloc): ~1 GB here


def _shown(value) -> str:
    """value as its JSON text, as a file gives it (a JSON 0 reads 0, not 0.0), or
    by its repr where JSON cannot encode it (a code-built array or complex)."""
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def _scalar(what: str, value, want: str):
    """value checked as one scalar field, in code as from a file: a real number,
    not a bool, that is an integer (want "integer", returned as an int) or a
    "finite" or "finite positive" float. Anything else is a ValidationError
    naming what and the value as given (_shown)."""
    try:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError(f"expected a number, got {_shown(value)}")
        if want == "integer":
            if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
                raise ValueError(f"expected an integer, got {_shown(value)}")
            return int(value)
        x = float(value)   # Overflow: an int too large for a double
        if not (math.isfinite(x) and (want == "finite" or x > 0)):
            raise ValueError(f"expected a {want} number, got {value}")
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"bad {what}: {e}") from None
    return x


@dataclass(frozen=True)
class TimeGrid:
    """steps steps from t_start to t_end, checked when built, in code as from a
    file: finite ends (kept as floats), an integer count (kept as an int) from 2
    to MAX_STEPS, a normal spacing and strictly increasing half-grid times. A
    refusal is a ValidationError with a file's text, "bad time[.<field>]: ..."."""
    t_start: float
    t_end: float
    steps: int

    def __post_init__(self):
        for name, what, want in (("t_start", "time.start", "finite"),
                                 ("t_end", "time.end", "finite"),
                                 ("steps", "time.steps", "integer")):
            object.__setattr__(self, name, _scalar(what, getattr(self, name), want))
        if not self.t_end > self.t_start:
            raise ValidationError("bad time: t_end must exceed t_start")
        if not 2 <= self.steps <= MAX_STEPS:
            raise ValidationError(f"bad time: need from 2 to {MAX_STEPS} steps, got {self.steps}")
        span = f"[{self.t_start:.15g}, {self.t_end:.15g}]"
        if not np.isfinite(self.t_end - self.t_start):
            raise ValidationError(f"bad time: the span {span} is too long: its length overflows")
        if not self.spacing >= _TINY:
            raise ValidationError(f"bad time: the spacing {self.spacing:g} of {self.steps} steps "
                                  f"over {span} is zero or subnormal")
        # Each half-grid time is off by at most a few eps * max|t|, so a half
        # step above 8 eps * max|t| keeps them strictly increasing; below
        # that, the times themselves are compared.
        top = max(abs(self.t_start), abs(self.t_end))
        if not (0.5 * self.spacing > 8 * _EPS * top or np.all(np.diff(self.half_times()) > 0)):
            raise ValidationError(f"bad time: {self.steps} steps over {span} give times that "
                                  "do not strictly increase")

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
        self.span = tuple(_scalar("schedule span", span[k], "finite") for k in (0, 1))
        self._value = value_fn
        self._deriv = deriv_fn

    @classmethod
    def constant_matrix(cls, matrix, span):
        m = linalg.as_matrix(matrix)
        return cls(m.shape[0], span, constant_fn(m), constant_fn(np.zeros_like(m)))

    @classmethod
    def sampled(cls, times, snapshots):
        """The cubic Hermite interpolant of the snapshots with central-difference
        slopes (one-sided at the ends), and its exact, continuous derivative. Times and
        entries (every snapshot's first, as a file's) meet linalg.complex_entries."""
        entries = [linalg.complex_entries(s) for s in snapshots]
        mats, ts = np.stack(list(map(linalg.as_matrices, entries))), linalg.complex_entries(times)
        if ts.imag.any() or not np.isfinite(ts).all():
            raise ValueError("snapshot times must be finite real numbers")
        ts = ts.real
        if ts.ndim != 1 or ts.size < 4:
            raise ValueError("sampled schedules need at least 4 snapshot times")
        dt = np.diff(ts)
        if not (dt > 0).all():
            raise ValueError("snapshot times must be strictly increasing")
        if not np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
            raise ValueError("snapshot times must be uniformly spaced")
        if mats.shape[0] != ts.size:
            raise ValueError("snapshot count must match snapshot times")
        spacing = float(dt[0])
        slopes = np.empty_like(mats)
        with np.errstate(over="ignore", invalid="ignore"):   # the finiteness gates refuse inf
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


class OmegaSchedule:
    """omega(t), omega(t)^-1 and d/dt omega(t) derived from a metric schedule,
    on the half-step grid of one TimeGrid.

    omega is the principal square root of theta(t) unless analytic forms
    are supplied: analytic = (omega, omega_dot, omega_inv), each a function
    of a 1-D array of times that returns a stack. omega_dot or omega_inv may
    be None: the derivative is then a central difference of omega on the
    grid's own half-times, taken on a block of the grid (on_block), and the
    inverse the gated inverse of omega, which linalg.inverse certifies from
    each root's own X (see omega). Each method takes a 1-D array of times and
    returns a stack, like the schedules.
    """

    def __init__(self, theta_schedule: OperatorSchedule, grid: TimeGrid,
                 analytic=None, eps_herm=linalg.EPS_HERM, eps_pos=linalg.EPS_POS,
                 cond_max=linalg.COND_MAX):
        self.theta = theta_schedule
        self.grid = grid
        self._omega_fn, self._omega_dot_fn, self._omega_inv_fn = analytic or (None,) * 3
        self._eps_herm = eps_herm
        self._eps_pos = eps_pos
        self._cond_max = cond_max
        self._seam = (0, None)   # (j, roots): self.omega at the half-grid indices j, j + 1, ...

    def omega(self, ts: np.ndarray) -> tuple:
        """The roots (omega, X) at the times ts: X = V diag(1/sqrt(lambda)) V^dagger,
        the inverse of each root from the eigendecomposition that takes it, for
        omega_inv to certify; X is None where omega is analytic."""
        if self._omega_fn is not None:
            return self._omega_fn(ts), None
        return linalg.principal_sqrt(self.theta(ts), self._eps_herm, self._eps_pos, t=ts,
                                     inverse=True)

    def omega_inv(self, ts: np.ndarray, roots=None) -> np.ndarray:
        """omega^-1 at the times ts: the analytic form if given, else
        linalg.inverse of omega with X as its candidate, from roots =
        self.omega(ts) (pass roots if they are at hand, as on_block gives them)."""
        if self._omega_inv_fn is not None:
            return self._omega_inv_fn(ts)
        w, x = self.omega(ts) if roots is None else roots
        return linalg.inverse(w, self._cond_max, t=ts, candidate=x)

    def omega_dot(self, ts: np.ndarray, window=None, lead=0, stride=1) -> np.ndarray:
        """d/dt omega at the times ts, on the grid of every stride-th point of
        this grid's half grid (the grid of steps / stride steps).

        The central difference, omega at t + dt less omega at t - dt over
        2 dt, is taken at consecutive half-grid times ts of that grid only,
        from omega on a window, window[lead + stride * i] at ts[i], that holds
        the 2r = 4 points of that grid on either side of ts, as on_block
        builds it; the central rows are two slices of it. The first two and
        last two points of that half grid, found by index, take the one-sided
        rule [-3, 4, -1]. Fewer than 3 steps raise ValidationError."""
        if self._omega_dot_fn is not None:
            return self._omega_dot_fn(ts)
        self.theta.check_span(ts)
        g, n, r = self.grid, ts.size, _R
        steps = g.steps // stride
        if steps < 3:
            raise ValidationError(f"{steps} steps are too few for the central "
                                  "difference of omega: take at least 3 steps")
        hts = g.half_times()[::stride]
        k = int(np.searchsorted(hts, ts[0]))   # ts[i] is the point k + i of hts
        w = None if window is None else window[lead % stride::stride]
        lead //= stride
        if (g.steps % stride or w is None or not np.array_equal(hts[k:k + n], ts)
                or lead < min(k, 2 * r) or w.shape[0] < lead + n + min(hts.size - k - n, 2 * r)):
            raise ValueError("a central difference of omega needs consecutive half-grid "
                             "times and omega on a window around them (see on_block)")
        fwd = min(n, max(0, r - k))                         # the points 0 and 1
        bwd = min(n - fwd, max(0, k + n - (hts.size - r)))  # the points 2N - 1 and 2N
        a, b, end = lead + fwd, lead + n - bwd, lead + n   # window indices: central rows a..b-1
        out = np.empty((n,) + w.shape[1:], dtype=complex)
        out[:fwd] = -3.0 * w[lead:a] + 4.0 * w[lead + r:a + r] - w[lead + 2 * r:a + 2 * r]
        np.subtract(w[a + r:b + r], w[a - r:b - r], out=out[fwd:n - bwd])
        out[n - bwd:] = 3.0 * w[b:end] - 4.0 * w[b - r:end - r] + w[b - 2 * r:end - 2 * r]
        out /= 2.0 * ((g.t_end - g.t_start) / steps)   # that grid's spacing, as TimeGrid's
        return out

    def on_block(self, blk: GridBlock, strides=(1,)) -> tuple:
        """(roots, omega_dot, ...) on the half grid of blk, a block of this
        schedule's grid: roots the pair (omega, X) as omega gives it, for
        omega_inv, and omega_dot once per stride, on every stride-th point
        (omega_dot's stride).

        omega is taken on a window of the grid's half-times: blk's points
        and, for a central difference, the 2r = 4 points of the grid of the
        widest stride on either side, 4 * max(strides) of this grid's. The roots
        kept around the last node of the block before (the seam), each with its
        X, serve a window that starts among them, as the next block of a walk
        does, and only the points they lack are taken, in one call (none if
        they lack none); any other block takes its whole window. So a walk takes
        each point once, and no answer depends on the blocks asked for before.
        """
        if blk.grid != self.grid:
            raise ValueError("the block is not a block of this schedule's grid")
        hts = self.grid.half_times()
        reach = 0 if self._omega_dot_fn is not None else 2 * _R * max(strides)
        lo, hi = max(0, 2 * blk.first - reach), min(hts.size, 2 * blk.last + 1 + reach)
        j, kept = self._seam
        in_seam = kept is not None and j <= lo < j + len(kept[0])
        kept = _each(lambda a: a[lo - j:hi - j], kept) if in_seam else None
        n = 0 if kept is None else len(kept[0])
        new = (self.omega(hts[lo + n:hi]) if lo + n < hi
               else _each(lambda a: a[:0], kept))   # no call for no point
        window = new if kept is None else _each(lambda a, b: np.concatenate((a, b)), kept, new)
        keep = max(lo, 2 * blk.last - reach)
        self._seam = (keep, _each(lambda a: a[keep - lo:].copy(), window))
        ts, lead = blk.half_times(), 2 * blk.first - lo
        return (_each(lambda a: a[lead:lead + ts.size], window),
                *(self.omega_dot(ts[::k], window[0], lead, k) for k in strides))


def _each(f, *roots):
    """f across the stacks of (omega, X) pairs, stack by stack; X stays None
    where omega is analytic."""
    return tuple(None if stacks[0] is None else f(*stacks) for stacks in zip(*roots))
