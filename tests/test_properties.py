"""Hypothesis-driven invariants for the linear-algebra, space and dynamics layers."""

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


def weighted_fd(w, lead, ts, step, span):
    """The three-point weighted form of the finite difference: per row, stencil
    offsets and weights [1, -1, 0] (central), [-3, 4, -1] (forward) or
    [3, -4, 1] (backward), gathered from the window w, w[lead + i] at ts[i].
    Returns the derivative and the window indices of weight other than 0."""
    n = ts.size
    h = ts[1] - ts[0] if n > 1 else step
    r = int(round(step / h))
    lo, hi = span
    fwd = ts - step < lo
    bwd = ~fwd & (ts + step > hi)
    offsets = np.where(fwd[:, None], [0, 1, 2],
                       np.where(bwd[:, None], [0, -1, -2], [1, -1, -1]))
    weights = np.where(fwd[:, None], [-3.0, 4.0, -1.0],
                       np.where(bwd[:, None], [3.0, -4.0, 1.0], [1.0, -1.0, 0.0]))
    wt = weights[:, :, None, None]
    idx = lead + np.arange(n)[:, None] + r * offsets
    f = w[idx]
    return ((wt[:, 0] * f[:, 0] + wt[:, 1] * f[:, 1] + wt[:, 2] * f[:, 2]) / (2.0 * step),
            idx[weights != 0.0])


entry = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
REACH = 4   # the most half-grid points a stencil reads past either end of a block


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 12), st.sampled_from([0.125, 0.1, 1.0 / 3.0]),
       st.sampled_from(["start", "end", "both", "neither"]), st.integers(1, 3), st.data())
def test_fd_slices_equal_the_weighted_stencil(steps, dt, cut, dim, data):
    """The slice form of the central difference that OmegaSchedule.on_block
    takes equals the weighted three-point form entry for entry (a zero may
    differ in sign) on any block of any grid, one-sided rows included, for
    spans that cut the rows at either end or at neither; the window it takes
    omega on is exactly what the stencil reads."""
    grid = TimeGrid(1.0, 1.0 + steps * dt, steps)
    hts = grid.half_times()
    lo = grid.t_start if cut in ("start", "both") else grid.t_start - 5.0 * dt
    hi = grid.t_end if cut in ("end", "both") else grid.t_end + 5.0 * dt
    first = data.draw(st.integers(0, steps - 1))
    blk = schedules.GridBlock(grid, first, data.draw(st.integers(first + 1, steps)))
    size = REACH + hts.size + REACH   # omega at every half-grid time and REACH past either end
    w = (data.draw(arrays(np.float64, (size, dim, dim), elements=entry))
         + 1j * data.draw(arrays(np.float64, (size, dim, dim), elements=entry)))
    taken = []

    def omega(ts):   # w at the half-grid indices of ts
        idx = REACH + np.rint((ts - hts[0]) / (hts[1] - hts[0])).astype(int)
        taken.append(idx)
        return w[idx]

    theta = schedules.OperatorSchedule(dim, (lo, hi), None, None)
    os = schedules.OmegaSchedule(theta, grid, analytic=(omega, None, None))
    if steps == 2 and cut == "both":   # the one-sided rows would read past the span
        with pytest.raises(ValidationError, match="2 steps are too few"):
            os.on_block(blk)
        return
    got_w, got = os.on_block(blk)
    ref, read = weighted_fd(w, REACH + 2 * blk.first, blk.half_times(), grid.spacing,
                            (lo, hi))
    assert [(idx.min(), idx.max()) for idx in taken] == [(read.min(), read.max())]
    assert np.array_equal(got_w, w[REACH + 2 * blk.first:REACH + 2 * blk.last + 1])
    assert np.array_equal(got, ref)
