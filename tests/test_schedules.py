import numpy as np
import pytest

from quasiherm.errors import NotPositiveDefinite, OutOfRange
from quasiherm.schedules import OmegaSchedule, OperatorSchedule, TimeGrid


def diag_stack(ts, a, b):
    """diag(a, b) at each of the times ts; a and b are arrays over ts, or scalars."""
    out = np.zeros((ts.size, 2, 2), dtype=complex)
    out[:, 0, 0], out[:, 1, 1] = a, b
    return out


def growing_theta(span=(0.0, 1.0)):
    return OperatorSchedule.closed_form(
        2, span,
        lambda ts: diag_stack(ts, 1.0, 1.0 + ts * ts),
        lambda ts: diag_stack(ts, 0.0, 2.0 * ts))


def test_grid_basics():
    g = TimeGrid(0.0, 1.0, 4)
    assert g.spacing == 0.25
    assert np.allclose(g.times(), [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 1)


def test_closed_form_eval_and_derivative():
    s = growing_theta()
    assert np.allclose(s(1.0), np.diag([1.0, 2.0]))
    assert np.allclose(s.derivative(1.0), np.diag([0.0, 2.0]))


def test_constant_schedule_zero_derivative():
    s = OperatorSchedule.constant_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]), (0, 1))
    assert np.allclose(s.derivative(0.3), np.zeros((2, 2)))


def test_out_of_range():
    s = growing_theta()
    with pytest.raises(OutOfRange):
        s(1.5)
    with pytest.raises(OutOfRange):
        s.derivative(-0.5)


def quad_snapshots(times):
    # entries quadratic in t, so cubic interpolation and central
    # differences are both exact up to rounding
    return [np.array([[t * t, 1.0 + t], [2.0 * t, 3.0]], dtype=complex) for t in times]


def test_sampled_exact_at_nodes():
    ts = np.linspace(0.0, 1.0, 6)
    s = OperatorSchedule.sampled(ts, quad_snapshots(ts))
    for t, snap in zip(ts, quad_snapshots(ts)):
        assert np.allclose(s(t), snap, atol=1e-14)


def test_sampled_interpolates_quadratics_exactly():
    ts = np.linspace(0.0, 1.0, 6)
    s = OperatorSchedule.sampled(ts, quad_snapshots(ts))
    for t in (0.13, 0.5, 0.87):
        assert np.allclose(s(t), quad_snapshots([t])[0], atol=1e-13)


def test_sampled_derivative_central_difference():
    ts = np.linspace(0.0, 1.0, 6)
    s = OperatorSchedule.sampled(ts, quad_snapshots(ts))
    for t in ts[1:-1]:
        expect = np.array([[2.0 * t, 1.0], [2.0, 0.0]])
        assert np.allclose(s.derivative(t), expect, atol=1e-12)
    # one-sided second order at the endpoints is exact on quadratics too
    assert np.allclose(s.derivative(0.0), [[0.0, 1.0], [2.0, 0.0]], atol=1e-12)
    assert np.allclose(s.derivative(1.0), [[2.0, 1.0], [2.0, 0.0]], atol=1e-12)


def test_sampled_needs_four_uniform_snapshots():
    with pytest.raises(ValueError):
        OperatorSchedule.sampled([0.0, 0.5, 1.0], quad_snapshots([0.0, 0.5, 1.0]))
    bad = [0.0, 0.1, 0.5, 1.0]
    with pytest.raises(ValueError):
        OperatorSchedule.sampled(bad, quad_snapshots(bad))


def test_omega_schedule_hand_values():
    os = OmegaSchedule(growing_theta(), fd_step=1e-3)
    assert np.allclose(os.omega(1.0), np.diag([1.0, np.sqrt(2.0)]), atol=1e-12)
    assert np.allclose(os.omega_inv(1.0), np.diag([1.0, 1.0 / np.sqrt(2.0)]), atol=1e-12)
    # d/dt sqrt(1+t^2) = t / sqrt(1+t^2); finite-difference route
    assert np.allclose(os.omega_dot(1.0), np.diag([0.0, 1.0 / np.sqrt(2.0)]), atol=1e-6)


def test_omega_schedule_analytic_derivative():
    analytic = (
        lambda ts: diag_stack(ts, 1.0, np.sqrt(1.0 + ts * ts)),
        lambda ts: diag_stack(ts, 0.0, ts / np.sqrt(1.0 + ts * ts)),
    )
    os = OmegaSchedule(growing_theta(), fd_step=1e-3, analytic=analytic)
    assert np.allclose(os.omega_dot(1.0), np.diag([0.0, 1.0 / np.sqrt(2.0)]), atol=1e-15)
    forced = OmegaSchedule(growing_theta(), fd_step=1e-3, analytic=analytic,
                           use_analytic_derivative=False)
    assert not forced.has_analytic_derivative


def test_omega_constant_metric_zero_derivative():
    theta = OperatorSchedule.constant_matrix(np.diag([1.0, 4.0]), (0, 1))
    os = OmegaSchedule(theta, fd_step=1e-3)
    assert np.allclose(os.omega_dot(0.5), np.zeros((2, 2)), atol=1e-12)


def test_omega_reports_failing_time():
    theta = OperatorSchedule.closed_form(
        2, (0.0, 1.0),
        lambda ts: diag_stack(ts, 1.0, ts - 0.5),
        lambda ts: diag_stack(ts, 0.0, 1.0))
    os = OmegaSchedule(theta, fd_step=1e-3)
    with pytest.raises(NotPositiveDefinite) as exc:
        os.omega(0.4)
    assert exc.value.t == pytest.approx(0.4)


# --- stacked evaluation agrees with one time at a time ---

HALF_GRID = TimeGrid(0.0, 1.0, 10).half_times()


def hermite_reference(ts, mats, t):
    """Cubic Hermite interpolation at one time, with the slopes of OperatorSchedule.sampled."""
    h = ts[1] - ts[0]
    slopes = np.empty_like(mats)
    slopes[1:-1] = (mats[2:] - mats[:-2]) / (2.0 * h)
    slopes[0] = (-3.0 * mats[0] + 4.0 * mats[1] - mats[2]) / (2.0 * h)
    slopes[-1] = (3.0 * mats[-1] - 4.0 * mats[-2] + mats[-3]) / (2.0 * h)
    j = max(min(int((t - ts[0]) / h), ts.size - 2), 0)
    s = (t - ts[j]) / h
    return ((2 * s ** 3 - 3 * s ** 2 + 1) * mats[j] + (s ** 3 - 2 * s ** 2 + s) * h * slopes[j]
            + (-2 * s ** 3 + 3 * s ** 2) * mats[j + 1] + (s ** 3 - s ** 2) * h * slopes[j + 1])


def fd_reference(f, t, step, lo, hi):
    """Central difference at one time, second-order one-sided at the span ends."""
    if t - step >= lo and t + step <= hi:
        return (f(t + step) - f(t - step)) / (2.0 * step)
    if t - step < lo:
        return (-3.0 * f(t) + 4.0 * f(t + step) - f(t + 2.0 * step)) / (2.0 * step)
    return (3.0 * f(t) - 4.0 * f(t - step) + f(t - 2.0 * step)) / (2.0 * step)


def test_stacked_constant_schedule():
    m = np.array([[2.0, 1j], [-1j, 3.0]])
    s = OperatorSchedule.constant_matrix(m, (0.0, 1.0))
    assert s(HALF_GRID).shape == (HALF_GRID.size, 2, 2)
    assert all(np.array_equal(a, m) for a in s(HALF_GRID))
    assert np.array_equal(s.derivative(HALF_GRID), np.zeros((HALF_GRID.size, 2, 2)))


def test_stacked_closed_form_schedule():
    s = growing_theta()
    stacked, slopes = s(HALF_GRID), s.derivative(HALF_GRID)
    for k, t in enumerate(HALF_GRID):
        assert np.array_equal(stacked[k], s(t))
        assert np.array_equal(slopes[k], s.derivative(t))


def test_closed_forms_called_once_per_stack():
    calls = []

    def counted(fn):
        def wrapped(ts):
            calls.append(ts.size)
            return fn(ts)
        return wrapped

    theta = OperatorSchedule.closed_form(
        2, (0.0, 1.0), counted(lambda ts: diag_stack(ts, 1.0, 1.0 + ts * ts)),
        counted(lambda ts: diag_stack(ts, 0.0, 2.0 * ts)))
    theta(HALF_GRID)
    theta.derivative(HALF_GRID)
    os = OmegaSchedule(theta, fd_step=0.1, analytic=(
        counted(lambda ts: diag_stack(ts, 1.0, np.sqrt(1.0 + ts * ts))),
        counted(lambda ts: diag_stack(ts, 0.0, ts / np.sqrt(1.0 + ts * ts))),
        counted(lambda ts: diag_stack(ts, 1.0, 1.0 / np.sqrt(1.0 + ts * ts)))))
    os.omega(HALF_GRID)
    os.omega_dot(HALF_GRID)
    os.omega_inv(HALF_GRID)
    assert calls == [HALF_GRID.size] * 5


def test_stacked_sampled_schedule_matches_reference():
    ts = np.linspace(0.0, 1.0, 6)
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    s = OperatorSchedule.sampled(ts, mats)
    stacked = s(HALF_GRID)
    for k, t in enumerate(HALF_GRID):
        ref = hermite_reference(ts, mats, t)
        assert np.allclose(stacked[k], ref, rtol=0, atol=1e-14)
        assert np.array_equal(stacked[k], s(t))
    # the derivative is a finite difference of the interpolant with the snapshot spacing
    grid = np.linspace(0.0, 1.0, 11)   # spacing 0.1 does not divide 0.2: one time at a time
    slopes = s.derivative(grid)
    for k, t in enumerate(grid):
        ref = fd_reference(s, t, 0.2, 0.0, 1.0)
        assert np.allclose(slopes[k], ref, rtol=0, atol=1e-12)


def test_stacked_span_check_names_first_bad_time():
    s = growing_theta()
    with pytest.raises(OutOfRange, match="t=1.25"):
        s(np.array([0.5, 1.25, 1.5]))


def test_stacked_omega_matches_scalar_and_reference():
    os = OmegaSchedule(growing_theta(), fd_step=0.1)
    w, wi = os.omega(HALF_GRID), os.omega_inv(HALF_GRID)
    wd = os.omega_dot(HALF_GRID)
    for k, t in enumerate(HALF_GRID):
        assert np.allclose(w[k], os.omega(t), rtol=0, atol=1e-15)
        assert np.allclose(wi[k], os.omega_inv(t), rtol=0, atol=1e-15)
        # the first two and last two points take the one-sided rule
        ref = fd_reference(os.omega, t, 0.1, 0.0, 1.0)
        assert np.allclose(wd[k], ref, rtol=0, atol=1e-13)
        assert np.allclose(os.omega_dot(t), ref, rtol=0, atol=1e-15)
    assert np.array_equal(os.omega_inv(HALF_GRID, omega=w), wi)
    assert np.array_equal(os.omega_dot(HALF_GRID, omega=w), wd)


def test_omega_dot_on_a_block_matches_whole_grid():
    os = OmegaSchedule(growing_theta(), fd_step=0.1)
    whole = os.omega_dot(HALF_GRID)
    for first, last in ((0, 5), (3, 9), (14, 21)):
        part = HALF_GRID[first:last]
        got = os.omega_dot(part, omega=os.omega(part))
        assert np.allclose(got, whole[first:last], rtol=0, atol=1e-13)


def test_omega_dot_one_sided_ends_exact_on_quadratic_root():
    # omega = diag(1, (1 + t)^2) is quadratic in t: every stencil is exact
    theta = OperatorSchedule.closed_form(
        2, (0.0, 1.0),
        lambda ts: diag_stack(ts, 1.0, (1.0 + ts) ** 4),
        lambda ts: diag_stack(ts, 0.0, 4.0 * (1.0 + ts) ** 3))
    os = OmegaSchedule(theta, fd_step=0.1)
    wd = os.omega_dot(HALF_GRID)
    for k in (0, 1, HALF_GRID.size - 2, HALF_GRID.size - 1):
        assert np.allclose(wd[k], np.diag([0.0, 2.0 * (1.0 + HALF_GRID[k])]), atol=1e-12)


def test_grid_blocks_cover_grid():
    g = TimeGrid(0.0, 1.0, 10)
    blocks = g.blocks(4)
    assert [(b.first, b.last) for b in blocks] == [(0, 3), (3, 6), (6, 10)]
    assert np.array_equal(np.concatenate([b.half_times()[:-1] for b in blocks]
                                         + [g.half_times()[-1:]]), g.half_times())
    assert np.array_equal(g.half_times()[::2], g.times())
    assert [(b.first, b.last) for b in g.blocks(100)] == [(0, 10)]
