import numpy as np
import pytest

from quasiherm import dynamics, linalg
from quasiherm.dynamics import grid_blocks
from quasiherm.errors import NotPositiveDefinite, OutOfRange, ValidationError
from quasiherm.schedules import GridBlock, OmegaSchedule, OperatorSchedule, TimeGrid


def diag_stack(ts, a, b):
    """diag(a, b) at each of the times ts; a and b are arrays over ts, or scalars."""
    out = np.zeros((ts.size, 2, 2), dtype=complex)
    out[:, 0, 0], out[:, 1, 1] = a, b
    return out


def at(t):
    """One time as the 1-D array every evaluator takes."""
    return np.array([t])


def growing_theta(span=(0.0, 1.0)):
    return OperatorSchedule(
        2, span,
        lambda ts: diag_stack(ts, 1.0, 1.0 + ts * ts),
        lambda ts: diag_stack(ts, 0.0, 2.0 * ts))


FINE = TimeGrid(0.0, 1.0, 1000)   # dt = 1e-3


def fine_dot(os, t):
    """os.omega_dot at the node t of FINE, from the one-step block that starts
    there (the last step at t = 1)."""
    node = int(round(t * FINE.steps))
    first = min(node, FINE.steps - 1)
    return os.on_block(GridBlock(FINE, first, first + 1))[1][2 * (node - first)]


def test_grid_basics():
    g = TimeGrid(0.0, 1.0, 4)
    assert g.spacing == 0.25
    assert np.allclose(g.times(), [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValidationError):
        TimeGrid(1.0, 0.0, 4)
    with pytest.raises(ValidationError):
        TimeGrid(0.0, 1.0, 1)


@pytest.mark.parametrize("start, end, steps, why", [
    (0.0, 5e-324, 20, "zero or subnormal"),          # spacing 0
    (0.0, 1e-302, 10**6, "zero or subnormal"),       # spacing 1e-308
    (-1.7e308, 1.7e308, 20, "overflows"),            # span length inf
    (1e6, 1e6 + 1e-6, 10**4, "do not strictly increase"),
])
def test_grid_refuses_degenerate_spacing(start, end, steps, why):
    with pytest.raises(ValidationError, match=why):
        TimeGrid(start, end, steps)


def test_grid_accepts_tiny_but_normal_spacing():
    g = TimeGrid(0.0, 1.2e-300, 20)
    assert (np.diff(g.half_times()) > 0).all()
    assert (np.diff(TimeGrid(1e6, 1e6 + 1e-6, 100).half_times()) > 0).all()


def test_closed_form_eval_and_derivative():
    s = growing_theta()
    assert np.allclose(s(at(1.0))[0], np.diag([1.0, 2.0]))
    assert np.allclose(s.derivative(at(1.0))[0], np.diag([0.0, 2.0]))


def test_constant_schedule_zero_derivative():
    s = OperatorSchedule.constant_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]), (0, 1))
    assert np.allclose(s.derivative(at(0.3))[0], np.zeros((2, 2)))


def test_out_of_range():
    s = growing_theta()
    with pytest.raises(OutOfRange):
        s(at(1.5))
    with pytest.raises(OutOfRange):
        s.derivative(at(-0.5))


def test_evaluators_refuse_a_bare_time():
    s = growing_theta()
    grid = TimeGrid(0.0, 1.0, 10)
    os = OmegaSchedule(s, grid)
    for evaluate in (s, s.derivative, os.omega, os.omega_inv, os.omega_dot):
        for t in (0.5, np.float64(0.5), np.array([[0.5]])):
            with pytest.raises(ValueError, match="1-D array of times"):
                evaluate(t)
    # the central difference reads omega on a window around half-grid times
    hts = grid.half_times()
    w = os.omega(hts)[0]
    for ts, window, lead in ((hts, None, 0), (hts[4:9], w[1:13], 3), (hts[4:9], w[:12], 4),
                             (hts[4:9] + 1e-3, w, 4)):
        with pytest.raises(ValueError, match="window around them"):
            os.omega_dot(ts, window, lead)
    assert np.array_equal(os.omega_dot(hts[4:9], w[:13], 4), os.omega_dot(hts[4:9], w, 4))


def quad_snapshots(times):
    # entries quadratic in t, so cubic interpolation and central
    # differences are both exact up to rounding
    return [np.array([[t * t, 1.0 + t], [2.0 * t, 3.0]], dtype=complex) for t in times]


def test_sampled_exact_at_nodes():
    ts = np.linspace(0.0, 1.0, 6)
    s = OperatorSchedule.sampled(ts, quad_snapshots(ts))
    for t, snap in zip(ts, quad_snapshots(ts)):
        assert np.allclose(s(at(t))[0], snap, atol=1e-14)


def test_sampled_interpolates_quadratics_exactly():
    ts = np.linspace(0.0, 1.0, 6)
    s = OperatorSchedule.sampled(ts, quad_snapshots(ts))
    for t in (0.13, 0.5, 0.87):
        assert np.allclose(s(at(t))[0], quad_snapshots([t])[0], atol=1e-13)


def test_sampled_derivative_central_difference():
    ts = np.linspace(0.0, 1.0, 6)
    s = OperatorSchedule.sampled(ts, quad_snapshots(ts))
    for t in ts[1:-1]:
        expect = np.array([[2.0 * t, 1.0], [2.0, 0.0]])
        assert np.allclose(s.derivative(at(t))[0], expect, atol=1e-12)
    # one-sided second order at the endpoints is exact on quadratics too
    assert np.allclose(s.derivative(at(0.0))[0], [[0.0, 1.0], [2.0, 0.0]], atol=1e-12)
    assert np.allclose(s.derivative(at(1.0))[0], [[2.0, 1.0], [2.0, 0.0]], atol=1e-12)
    # the interpolant is the quadratic itself, so its derivative is exact between
    # the snapshots too
    dense = np.linspace(0.0, 1.0, 201)
    expect = np.zeros((dense.size, 2, 2), dtype=complex)
    expect[:, 0, 0], expect[:, 0, 1], expect[:, 1, 0] = 2.0 * dense, 1.0, 2.0
    assert np.allclose(s.derivative(dense), expect, rtol=0, atol=1e-12)


def random_sampled(seed=3):
    ts = np.linspace(0.0, 1.0, 6)
    rng = np.random.default_rng(seed)
    mats = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
    return ts, mats, OperatorSchedule.sampled(ts, mats)


def test_sampled_derivative_matches_a_central_difference_of_the_interpolant():
    ts, _, s = random_sampled()
    # inside each snapshot interval, where the interpolant is a cubic
    t = (ts[:-1, None] + (ts[1] - ts[0]) * np.array([0.01, 0.3, 0.5, 0.77, 0.99])).ravel()
    step = 1e-6
    fd = (s(t + step) - s(t - step)) / (2.0 * step)
    assert np.allclose(s.derivative(t), fd, rtol=0, atol=1e-7)


def test_sampled_derivative_is_continuous_at_the_snapshots():
    ts, mats, s = random_sampled()
    h = ts[1] - ts[0]
    inner = ts[1:-1]
    # the two sides of each inner snapshot lie in adjacent snapshot intervals
    left, right = s.derivative(inner - 1e-13), s.derivative(inner + 1e-13)
    assert np.allclose(left, right, rtol=0, atol=1e-9)
    # at a snapshot the derivative is the interpolant's slope there
    assert np.allclose(s.derivative(inner), (mats[2:] - mats[:-2]) / (2.0 * h),
                       rtol=0, atol=1e-12)


def test_sampled_needs_four_uniform_snapshots():
    with pytest.raises(ValueError):
        OperatorSchedule.sampled([0.0, 0.5, 1.0], quad_snapshots([0.0, 0.5, 1.0]))
    bad = [0.0, 0.1, 0.5, 1.0]
    with pytest.raises(ValueError):
        OperatorSchedule.sampled(bad, quad_snapshots(bad))


def test_omega_schedule_hand_values():
    os = OmegaSchedule(growing_theta(), FINE)
    assert np.allclose(os.omega(at(1.0))[0][0], np.diag([1.0, np.sqrt(2.0)]), atol=1e-12)
    assert np.allclose(os.omega_inv(at(1.0))[0], np.diag([1.0, 1.0 / np.sqrt(2.0)]),
                       atol=1e-12)
    # d/dt sqrt(1+t^2) = t / sqrt(1+t^2); finite-difference route
    assert np.allclose(fine_dot(os, 1.0), np.diag([0.0, 1.0 / np.sqrt(2.0)]), atol=1e-6)


def test_omega_schedule_analytic_derivative():
    omega = lambda ts: diag_stack(ts, 1.0, np.sqrt(1.0 + ts * ts))  # noqa: E731
    omega_dot = lambda ts: diag_stack(ts, 0.0, ts / np.sqrt(1.0 + ts * ts))  # noqa: E731
    exact = np.diag([0.0, 1.0 / np.sqrt(2.0)])
    os = OmegaSchedule(growing_theta(), FINE, analytic=(omega, omega_dot, None))
    assert np.allclose(os.omega_dot(at(1.0))[0], exact, atol=1e-15)
    assert np.array_equal(fine_dot(os, 1.0), os.omega_dot(at(1.0))[0])
    # no analytic inverse: the gated inverse of the analytic omega
    assert np.allclose(os.omega_inv(at(1.0))[0], np.diag([1.0, 1.0 / np.sqrt(2.0)]),
                       atol=1e-15)
    # no analytic derivative: the finite difference of the analytic omega
    fd = OmegaSchedule(growing_theta(), FINE, analytic=(omega, None, None))
    assert not np.array_equal(fine_dot(fd, 1.0), os.omega_dot(at(1.0))[0])
    assert np.allclose(fine_dot(fd, 1.0), exact, atol=1e-6)


def test_omega_constant_metric_zero_derivative():
    theta = OperatorSchedule.constant_matrix(np.diag([1.0, 4.0]), (0, 1))
    os = OmegaSchedule(theta, FINE)
    assert np.allclose(fine_dot(os, 0.5), np.zeros((2, 2)), atol=1e-12)


def test_omega_reports_failing_time():
    theta = OperatorSchedule(
        2, (0.0, 1.0),
        lambda ts: diag_stack(ts, 1.0, ts - 0.5),
        lambda ts: diag_stack(ts, 0.0, 1.0))
    os = OmegaSchedule(theta, FINE)
    with pytest.raises(NotPositiveDefinite) as exc:
        os.omega(at(0.4))
    assert exc.value.t == pytest.approx(0.4)


# --- stacked evaluation agrees with one time at a time ---

GRID = TimeGrid(0.0, 1.0, 10)
HALF_GRID = GRID.half_times()
WHOLE = GridBlock(GRID, 0, GRID.steps)


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


def hermite_derivative_reference(ts, mats, t):
    """d/dt of hermite_reference at one time, from the power-basis coefficients of
    the cubic on its interval."""
    h = ts[1] - ts[0]
    slopes = np.empty_like(mats)
    slopes[1:-1] = (mats[2:] - mats[:-2]) / (2.0 * h)
    slopes[0] = (-3.0 * mats[0] + 4.0 * mats[1] - mats[2]) / (2.0 * h)
    slopes[-1] = (3.0 * mats[-1] - 4.0 * mats[-2] + mats[-3]) / (2.0 * h)
    j = max(min(int((t - ts[0]) / h), ts.size - 2), 0)
    s = (t - ts[j]) / h
    c1 = h * slopes[j]
    c2 = 3.0 * (mats[j + 1] - mats[j]) - h * (2.0 * slopes[j] + slopes[j + 1])
    c3 = 2.0 * (mats[j] - mats[j + 1]) + h * (slopes[j] + slopes[j + 1])
    return (c1 + 2.0 * c2 * s + 3.0 * c3 * s * s) / h


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
        assert np.array_equal(stacked[k], s(at(t))[0])
        assert np.array_equal(slopes[k], s.derivative(at(t))[0])


def test_closed_forms_called_once_per_stack():
    calls = []

    def counted(fn):
        def wrapped(ts):
            calls.append(ts.size)
            return fn(ts)
        return wrapped

    theta = OperatorSchedule(
        2, (0.0, 1.0), counted(lambda ts: diag_stack(ts, 1.0, 1.0 + ts * ts)),
        counted(lambda ts: diag_stack(ts, 0.0, 2.0 * ts)))
    theta(HALF_GRID)
    theta.derivative(HALF_GRID)
    os = OmegaSchedule(theta, GRID, analytic=(
        counted(lambda ts: diag_stack(ts, 1.0, np.sqrt(1.0 + ts * ts))),
        counted(lambda ts: diag_stack(ts, 0.0, ts / np.sqrt(1.0 + ts * ts))),
        counted(lambda ts: diag_stack(ts, 1.0, 1.0 / np.sqrt(1.0 + ts * ts)))))
    os.omega(HALF_GRID)
    os.omega_dot(HALF_GRID)
    os.omega_inv(HALF_GRID)
    assert calls == [HALF_GRID.size] * 5


def test_stacked_sampled_schedule_matches_reference():
    ts, mats, s = random_sampled()
    stacked = s(HALF_GRID)
    for k, t in enumerate(HALF_GRID):
        ref = hermite_reference(ts, mats, t)
        assert np.allclose(stacked[k], ref, rtol=0, atol=1e-14)
        assert np.array_equal(stacked[k], s(at(t))[0])
    # the derivative is the exact derivative of the interpolant
    grid = np.linspace(0.0, 1.0, 11)
    slopes = s.derivative(grid)
    for k, t in enumerate(grid):
        ref = hermite_derivative_reference(ts, mats, t)
        assert np.allclose(slopes[k], ref, rtol=0, atol=1e-12)


def test_stacked_span_check_names_first_bad_time():
    s = growing_theta()
    with pytest.raises(OutOfRange, match="t=1.25"):
        s(np.array([0.5, 1.25, 1.5]))


def test_stacked_omega_matches_scalar_and_reference():
    os = OmegaSchedule(growing_theta(), GRID)
    roots, wd = os.on_block(WHOLE)
    w, wi = roots[0], os.omega_inv(HALF_GRID)
    for a, b in zip(roots, os.omega(HALF_GRID)):   # omega and its X
        assert np.array_equal(a, b)
    for k, t in enumerate(HALF_GRID):
        assert np.allclose(w[k], os.omega(at(t))[0][0], rtol=0, atol=1e-15)
        assert np.allclose(wi[k], os.omega_inv(at(t))[0], rtol=0, atol=1e-15)
        # the first two and last two points take the one-sided rule
        ref = fd_reference(lambda x: os.omega(at(x))[0][0], t, 0.1, 0.0, 1.0)
        assert np.allclose(wd[k], ref, rtol=0, atol=1e-13)
        # a one-step block of a fresh schedule roots only its own window, at the
        # grid's half-times: the same bits
        node = min(k // 2, GRID.steps - 1)
        one = OmegaSchedule(growing_theta(), GRID).on_block(GridBlock(GRID, node, node + 1))
        assert np.array_equal(one[1][k - 2 * node], wd[k])
    assert np.array_equal(os.omega_inv(HALF_GRID, roots), wi)
    assert np.array_equal(os.omega_dot(HALF_GRID, w), wd)   # the window is the grid


def test_omega_dot_on_a_block_matches_whole_grid():
    whole = OmegaSchedule(growing_theta(), GRID).on_block(WHOLE)[1]
    for first, last in ((0, 2), (1, 5), (7, 10)):
        got = OmegaSchedule(growing_theta(), GRID).on_block(GridBlock(GRID, first, last))[1]
        assert np.allclose(got, whole[2 * first:2 * last + 1], rtol=0, atol=1e-13)


def test_omega_dot_one_sided_ends_exact_on_quadratic_root():
    # omega = diag(1, (1 + t)^2) is quadratic in t: every stencil is exact
    theta = OperatorSchedule(
        2, (0.0, 1.0),
        lambda ts: diag_stack(ts, 1.0, (1.0 + ts) ** 4),
        lambda ts: diag_stack(ts, 0.0, 4.0 * (1.0 + ts) ** 3))
    wd = OmegaSchedule(theta, GRID).on_block(WHOLE)[1]
    for k in (0, 1, HALF_GRID.size - 2, HALF_GRID.size - 1):
        assert np.allclose(wd[k], np.diag([0.0, 2.0 * (1.0 + HALF_GRID[k])]), atol=1e-12)


def test_grid_blocks_cover_grid(monkeypatch):
    g = TimeGrid(0.0, 1.0, 10)
    # 4 steps a block at d = 8, where the walk's chunk is one step
    monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", 4 * 2 * 8 * 8)
    blocks = grid_blocks(g, 8)
    assert [(b.first, b.last) for b in blocks] == [(0, 4), (4, 8), (8, 10)]
    assert np.array_equal(np.concatenate([b.half_times()[:-1] for b in blocks]
                                         + [g.half_times()[-1:]]), g.half_times())
    assert np.array_equal(g.half_times()[::2], g.times())
    assert [(b.first, b.last) for b in grid_blocks(g, 2)] == [(0, 10)]
    # at d = 2, 300 steps a block are cut down to 256, a multiple of 4 chunks; 600
    # steps over 4 blocks round up to 256 steps a block, so 3 blocks are made
    monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", 300 * 2 * 2 * 2)
    q = 4 * dynamics.SCAN_CHUNK
    assert [(b.first, b.last) for b in grid_blocks(TimeGrid(0.0, 1.0, 600), 2)] == [
        (0, 2 * q), (2 * q, 4 * q), (4 * q, 600)]
    # and no block has fewer than 4 chunks, however few entries a block may hold
    monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", 100 * 2 * 2 * 2)
    assert [(b.first, b.last) for b in grid_blocks(TimeGrid(0.0, 1.0, 200), 2)] == [
        (0, q), (q, 200)]


@pytest.mark.parametrize("dim, steps, layout", [
    (2, 2000, (1, 2000, 2000)), (32, 500, (32, 16, 4)), (8, 800, (4, 200, 200))],
    ids=["builtins-n2000", "sampled-d32-n500", "convergence-d8-finest-grid"])
def test_the_benchmark_workloads_keep_their_block_layout(dim, steps, layout):
    """(blocks, steps of each block but the last, steps of the last) of the grids
    the benchmark walks: a builtin at N = 2000, the d = 32 run of 500 steps, and
    the 4N = 800-step grid of the d = 8 convergence probes."""
    blocks = grid_blocks(TimeGrid(0.0, 1.0, steps), dim)
    assert (len(blocks), blocks[0].steps, blocks[-1].steps) == layout
    assert {b.steps for b in blocks[:-1]} <= {layout[1]}


def test_grid_times_are_built_once(monkeypatch):
    """One linspace per grid, however many blocks read its times."""
    calls = []
    linspace = np.linspace
    monkeypatch.setattr(np, "linspace", lambda *a, **k: calls.append(1) or linspace(*a, **k))
    g = TimeGrid(0.0, 1.0, 40_000)
    blocks = grid_blocks(g, 32)
    assert len(blocks) == 3334   # 4096 blocks of at least 40000 / 4096 steps, rounded up to 12
    for b in blocks:
        b.times()
        b.half_times()
    assert len(calls) == 1
    assert not g.half_times().flags.writeable and not g.times().flags.writeable


@pytest.mark.parametrize("steps", [7, 200])
def test_a_walk_in_one_step_blocks_takes_no_empty_root_call(monkeypatch, steps):
    """Near the grid's end the seam already holds a one-step block's whole
    window: on_block then takes no root at all, rather than a principal_sqrt
    call on 0 matrices. Every half-grid point is still rooted once.
    theta(t) = diag(1, 1 + t^2) + 0.1 t sigma_x on 9 snapshots over [0.5, 0.8]."""
    times = np.linspace(0.5, 0.8, 9)
    theta = OperatorSchedule.sampled(times, [
        np.array([[1.0, 0.1 * t], [0.1 * t, 1.0 + t * t]]) for t in times])
    sizes, sqrt = [], linalg.principal_sqrt

    def counted(a, *args, **kwargs):
        sizes.append(len(a))
        return sqrt(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "principal_sqrt", counted)
    grid = TimeGrid(0.5, 0.8, steps)
    os = OmegaSchedule(theta, grid)
    for k in range(steps):
        os.on_block(GridBlock(grid, k, k + 1))
    assert 0 not in sizes
    assert sum(sizes) == 2 * steps + 1


def test_a_strided_omega_dot_is_the_coarser_grids_own():
    """A schedule of the grid of 4N steps, walked in blocks of 8 steps, serves
    the grids of 2N and N steps at every 2nd and 4th half-grid point: their
    omega_dot has the bits of each grid's own schedule, its one-sided rows
    included, and the walk roots each of its 8N + 1 points once."""
    n, calls = 10, []
    fine, grids = TimeGrid(0.0, 1.0, 4 * n), [TimeGrid(0.0, 1.0, m) for m in (4 * n, 2 * n, n)]
    os = OmegaSchedule(growing_theta(), fine)
    omega = os.omega
    os.omega = lambda ts: (calls.append(ts.size), omega(ts))[1]
    dots = [[], [], []]
    for first in range(0, 4 * n, 8):
        _, *got = os.on_block(GridBlock(fine, first, first + 8), (1, 2, 4))
        for d, g in zip(dots, got):   # a block's last point is the next one's first
            d.append(g if first + 8 == 4 * n else g[:-1])
    assert sum(calls) == 8 * n + 1
    for d, g, k in zip(dots, grids, (1, 2, 4)):
        own = OmegaSchedule(growing_theta(), g).on_block(GridBlock(g, 0, g.steps))[1]
        assert np.array_equal(np.concatenate(d), own), k
