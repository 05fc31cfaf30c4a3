"""Hypothesis-driven invariants for the linear-algebra, space and dynamics layers."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasiherm import dynamics, linalg, schedules, spaces
from quasiherm.errors import ValidationError
from quasiherm.schedules import TimeGrid

finite = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def complex_matrix(dim):
    return st.tuples(
        arrays(np.float64, (dim, dim), elements=finite),
        arrays(np.float64, (dim, dim), elements=finite),
    ).map(lambda p: p[0] + 1j * p[1])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6).flatmap(complex_matrix))
def test_hermitize_is_hermitian_and_idempotent(m):
    h = linalg.hermitize(m)
    assert linalg.herm_defect(h) == 0.0
    assert np.array_equal(linalg.hermitize(h), h)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6).flatmap(complex_matrix))
def test_principal_sqrt_reconstructs(m):
    a = m.conj().T @ m + 0.1 * np.eye(m.shape[0])
    s = linalg.principal_sqrt(a)
    assert linalg.fro_norm(s @ s - a) <= 1e-11 * linalg.fro_norm(a)
    assert np.linalg.eigvalsh(linalg.hermitize(s)).min() > 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(complex_matrix))
def test_eig_reconstruction_and_orthonormality(m):
    a = linalg.hermitize(m)
    eig = linalg.eig_hermitian(a)
    v = eig.eigenvectors
    assert linalg.fro_norm(v.conj().T @ v - np.eye(a.shape[0])) <= 1e-12
    rec = (v * eig.eigenvalues) @ v.conj().T
    assert linalg.fro_norm(rec - a) <= 1e-12 * max(1.0, linalg.fro_norm(a))
    assert np.all(np.diff(eig.eigenvalues) >= -1e-14)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(complex_matrix))
def test_dyson_inner_product_identity(m):
    # <phi|psi> in the standard space equals the metric-weighted product
    # of the pulled-back kets for any well-conditioned invertible map
    dim = m.shape[0]
    om = m + 2.0 * np.eye(dim)
    if linalg.cond_2norm(om) > 100.0:
        return
    d, metric = spaces.metric_from_dyson(om)
    rng = np.random.default_rng(int(abs(om).sum() * 1e6) % (2 ** 32))
    phi = spaces.standard_ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    psi = spaces.standard_ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    lhs = spaces.inner_physical(spaces.map_to_reference(phi, d),
                                spaces.map_to_reference(psi, d), metric)
    rhs = spaces.inner_standard(phi, psi)
    scale = (np.linalg.norm(phi.components) * np.linalg.norm(psi.components)
             * linalg.fro_norm(metric.theta))
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, scale)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5).flatmap(complex_matrix))
def test_physical_norm_positive(m):
    dim = m.shape[0]
    metric = spaces.metric_from_theta(m.conj().T @ m + 0.5 * np.eye(dim))
    rng = np.random.default_rng(int(abs(m).sum() * 1e6) % (2 ** 32))
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    norm = spaces.inner_physical(spaces.reference_ket(v), spaces.reference_ket(v), metric)
    assert abs(norm.imag) <= 1e-12 * abs(norm.real)
    assert norm.real > 0.0


def per_step_rk4(m, grid, u0):
    """Reference: U' = M U by classical RK4 stages, one step at a time, from u0;
    m is M on grid.half_times()."""
    dt = grid.spacing
    out = [u0]
    for k in range(grid.steps):
        u = out[-1]
        k1 = m[2 * k] @ u
        k2 = m[2 * k + 1] @ (u + 0.5 * dt * k1)
        k3 = m[2 * k + 1] @ (u + 0.5 * dt * k2)
        k4 = m[2 * k + 2] @ (u + dt * k3)
        out.append(u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.stack(out)


# step counts anywhere in [2, 300], and just below, at and just above a
# multiple of the scan walk's chunk
steps = st.one_of(
    st.integers(2, 300),
    st.builds(lambda q, off: q * dynamics.SCAN_CHUNK + off,
              st.integers(1, 300 // dynamics.SCAN_CHUNK - 1), st.sampled_from([-1, 0, 1])))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), steps, st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_integrate_u_matches_a_per_step_rk4_walk(dim, n, constant, seed):
    rng = np.random.default_rng(seed)

    def unit_hermitian():
        a = linalg.hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        return a / np.linalg.norm(a, 2)

    grid = TimeGrid(0.0, 1.0, n)
    ts = grid.half_times()
    a, b = unit_hermitian(), unit_hermitian()
    h = (np.broadcast_to(a, (ts.size, dim, dim)) if constant
         else a + np.sin(5.0 * ts)[:, None, None] * b)
    u0 = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
    u = dynamics.integrate_u(h, grid, u0=u0)
    assert np.abs(u - per_step_rk4(-1j * h, grid, u0)).max() <= 1e-13


def weighted_fd(w, lead, first, n, points, step):
    """The three-point weighted form of the finite difference at the n half-grid
    points first, first + 1, ... of a half grid of the given number of points,
    gathered from the window w, w[lead + i] at point first + i: per row, stencil
    offsets and weights [1, -1, 0] (central), [-3, 4, -1] (forward, at points 0
    and 1) or [3, -4, 1] (backward, at the last two points). Returns the
    derivative and the window indices of weight other than 0."""
    i = first + np.arange(n)
    fwd, bwd = i < 2, i >= points - 2
    offsets = np.where(fwd[:, None], [0, 1, 2],
                       np.where(bwd[:, None], [0, -1, -2], [1, -1, -1]))
    weights = np.where(fwd[:, None], [-3.0, 4.0, -1.0],
                       np.where(bwd[:, None], [3.0, -4.0, 1.0], [1.0, -1.0, 0.0]))
    wt = weights[:, :, None, None]
    idx = lead + np.arange(n)[:, None] + 2 * offsets   # dt is two half-grid spacings
    f = w[idx]
    return ((wt[:, 0] * f[:, 0] + wt[:, 1] * f[:, 1] + wt[:, 2] * f[:, 2]) / (2.0 * step),
            idx[weights != 0.0])


entry = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
REACH = 4   # the half-grid points a block's window holds past either end, inside the grid


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.floats(-5.0, 5.0), st.floats(0.01, 10.0), st.integers(1, 3),
       st.data())
def test_fd_slices_equal_the_weighted_stencil(steps, start, length, dim, data):
    """The slice form of the central difference that OmegaSchedule.on_block
    takes equals the weighted three-point form entry for entry (a zero may
    differ in sign) on any block of any grid, the one-sided rows at the first
    two and last two half-grid points included. omega is taken once, on the
    block's points and REACH more either side clipped to the grid, at the
    grid's own half-times; a metric span wider than the grid changes no bit."""
    grid = TimeGrid(start, start + length, steps)
    hts = grid.half_times()
    first = data.draw(st.integers(0, steps - 1))
    blk = schedules.GridBlock(grid, first, data.draw(st.integers(first + 1, steps)))
    w = (data.draw(arrays(np.float64, (hts.size, dim, dim), elements=entry))
         + 1j * data.draw(arrays(np.float64, (hts.size, dim, dim), elements=entry)))
    taken = []

    def omega(ts):   # w at the half-grid points ts, which must be the grid's own times
        idx = np.searchsorted(hts, ts)
        assert np.array_equal(hts[np.minimum(idx, hts.size - 1)], ts)
        taken.append(idx)
        return w[idx]

    answers = []
    for span in ((grid.t_start, grid.t_end), (grid.t_start - length, grid.t_end + length)):
        theta = schedules.OperatorSchedule(dim, span, None, None)
        os = schedules.OmegaSchedule(theta, grid, analytic=(omega, None, None))
        if steps == 2:   # the one-sided rows would read past the grid's other end
            with pytest.raises(ValidationError, match="2 steps are too few"):
                os.on_block(blk)
            return
        answers.append(os.on_block(blk))
    lo, hi = max(0, 2 * blk.first - REACH), min(hts.size - 1, 2 * blk.last + REACH)
    assert [(idx.min(), idx.max()) for idx in taken] == [(lo, hi)] * 2
    ref, read = weighted_fd(w[lo:hi + 1], 2 * blk.first - lo, 2 * blk.first,
                            blk.half_times().size, hts.size, grid.spacing)
    assert read.min() >= 0 and read.max() <= hi - lo
    for (got_w, _), got in answers:
        assert np.array_equal(got_w, w[2 * blk.first:2 * blk.last + 1])
        assert np.array_equal(got, ref)


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3), st.integers(3, 5000))
def test_coarser_grids_are_strided_points_of_the_finest_bit_for_bit(start, length, n):
    """end_states reads the grids of N and 2N steps at every 4th and 2nd
    half-time of the 4N grid: they must be those grids' own half-times."""
    end = start + length
    if not end > start:
        return
    fine = TimeGrid(start, end, 4 * n).half_times()
    for k, m in ((2, 2 * n), (4, n)):
        assert np.array_equal(TimeGrid(start, end, m).half_times(), fine[::k]), k


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40), st.integers(2, 2500), st.integers(1 << 8, 1 << 18))
def test_the_blocks_of_a_grid_nest_in_those_of_its_refinements(dim, n, entries):
    """Every cut of the grids of n and 2n steps, scaled by 4 and 2, is a cut of
    the 4n grid, so one walk of the 4n grid's blocks walks each coarser grid in
    runs of its own blocks. Every cut is a multiple of q (4 chunks where the
    walk may scan, 4 steps above), and no block holds more than
    max(q, BLOCK_ENTRIES / (2 d^2)) steps."""
    q = 4 * dynamics.SCAN_CHUNK if dim <= dynamics.SCAN_MAX_DIM else 4
    cuts = {}
    with mock.patch.object(dynamics, "BLOCK_ENTRIES", entries):
        for k in (1, 2, 4):
            blocks = dynamics.grid_blocks(TimeGrid(0.0, 1.0, k * n), dim)
            assert [b.first for b in blocks[1:]] == [b.last for b in blocks[:-1]]
            assert blocks[0].first == 0 and blocks[-1].last == k * n
            assert all(b.first % q == 0 for b in blocks)
            assert max(b.steps for b in blocks) <= max(q, entries / (2 * dim * dim))
            cuts[k] = {4 // k * b.first for b in blocks}
    assert cuts[1] <= cuts[4] and cuts[2] <= cuts[4]


def _sampled_pair(dim, steps, seed):
    """A seeded pair of dimension dim on [0, 1], built in code: h(t) = h0 + t a
    and theta(t) = Om(t)^dagger Om(t), Om(t) = 3 I + Om0 + t Om1, sampled on 9
    snapshots. ||h|| stays below 2 sqrt(2) / dt at 3 steps: every grid is stable."""
    rng = np.random.default_rng(seed)

    def gaussian(scale):
        return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

    h0, a = gaussian(0.3), gaussian(0.1)
    om0, om1 = 3.0 * np.eye(dim) + gaussian(0.2), gaussian(0.2)
    times = np.linspace(0.0, 1.0, 9)
    hs = [h0 + h0.conj().T + t * (a + a.conj().T) for t in times]
    thetas = [(om0 + t * om1).conj().T @ (om0 + t * om1) for t in times]
    return dynamics.Scenario(name="sampled pair", grid=TimeGrid(0.0, 1.0, steps),
                             theta=schedules.OperatorSchedule.sampled(times, thetas),
                             h=schedules.OperatorSchedule.sampled(times, hs))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.integers(3, 700), st.integers(8, 18))
def test_every_field_of_a_run_is_that_of_its_one_block_run(dim, n, log_entries):
    """However BLOCK_ENTRIES cuts the grid, evolve's record has the bits of the
    walk of the whole grid as one block, norm_drift included."""
    s = _sampled_pair(dim, n, seed=dim)
    with mock.patch.object(dynamics, "BLOCK_ENTRIES", 1 << 40):
        assert len(dynamics.grid_blocks(s.grid, dim)) == 1
        whole = dynamics.evolve(s)
    with mock.patch.object(dynamics, "BLOCK_ENTRIES", 1 << log_entries):
        cut = dynamics.evolve(s)
    for name, x, y in zip(cut._fields, cut, whole):
        assert np.array_equal(x, y, equal_nan=True), name
