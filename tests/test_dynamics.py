import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import quasiherm
from quasiherm import dynamics, linalg, make_builtin, scenario_io, spaces, verify
from quasiherm.dynamics import (evolve, gate_h, integrate_u, metric_from_ur,
                                ur_from_corrected_generator,
                                ur_from_definition, ur_from_naive_generator)
from quasiherm.errors import IllConditioned, NotHermitian, ValidationError
from quasiherm.models import SIGMA_X, u_oracle_sigma_x
from quasiherm.schedules import GridBlock, OperatorSchedule, TimeGrid

SPAN_HALF_PI = (0.0, np.pi / 2)


def on_half_grid(fn, grid):
    """Stack of fn(t) at each time of grid.half_times(), the integrators' input."""
    return np.stack([np.asarray(fn(t), dtype=complex) for t in grid.half_times()])


def test_integrate_u_zero_generator():
    grid = TimeGrid(0.0, 1.0, 100)
    u = integrate_u(on_half_grid(lambda t: np.zeros((2, 2)), grid), grid)
    assert np.allclose(u, np.eye(2))


def test_integrate_u_sigma_x_closed_form():
    grid = TimeGrid(*SPAN_HALF_PI, 1000)
    u = integrate_u(on_half_grid(lambda t: SIGMA_X, grid), grid)
    expect = np.array([[0, -1j], [-1j, 0]])
    assert linalg.fro_norm(u[-1] - expect) <= 1e-9
    for k, t in enumerate(grid.times()[::100]):
        assert np.allclose(u[100 * k], u_oracle_sigma_x(t, 1.0), atol=1e-9)


def test_integrate_u_unitarity_defect():
    grid = TimeGrid(*SPAN_HALF_PI, 1000)
    u = integrate_u(on_half_grid(lambda t: SIGMA_X, grid), grid)
    assert linalg.fro_norm(u[-1].conj().T @ u[-1] - np.eye(2)) <= 1e-10


def test_gate_h_rejects_nonhermitian():
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(NotHermitian):
        gate_h(on_half_grid(lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]), grid), grid)


@pytest.mark.parametrize("hbar", [1.0, 0.7])
def test_gate_h_refuses_exactly_the_rk4_unstable_steps(hbar):
    """sigma_x is a constant generator, gated on ||h||_2 itself: a step just
    inside 2 sqrt(2) hbar is admitted, walked and shrinks u, one just outside
    is refused."""
    limit = 2.0 * np.sqrt(2.0) * hbar
    stable = TimeGrid(0.0, 20 * 0.999 * limit, 20)
    h = on_half_grid(lambda t: SIGMA_X, stable)
    gate_h(h, stable, hbar)
    u = integrate_u(h, stable, hbar)
    assert linalg.fro_norm(u[-1]) < linalg.fro_norm(np.eye(2))
    unstable = TimeGrid(0.0, 20 * 1.001 * limit, 20)
    with pytest.raises(ValidationError, match=f"RK4 at hbar={hbar:g}: .* at t=0,"):
        gate_h(on_half_grid(lambda t: SIGMA_X, unstable), unstable, hbar)


def test_ur_definition_identity_metric():
    s = make_builtin("growing-metric-2d", steps=100)
    grid = s.grid
    os_ident = dynamics.Scenario(
        name="ident", grid=grid,
        theta=OperatorSchedule.constant_matrix(np.eye(2), (0, 1)),
        h=OperatorSchedule.constant_matrix(SIGMA_X, (0, 1)),
        initial_state=np.array([1.0, 0.0]),
    ).omega_schedule()
    u = integrate_u(on_half_grid(lambda t: SIGMA_X, grid), grid)
    ur = ur_from_definition(u, os_ident.omega_inv(grid.times()),
                            os_ident.omega(grid.times()[:1])[0][0])
    assert np.allclose(ur, u)


def node_series(s):
    """u, U_R from its definition, U_naive and U_corr at every node of s's grid,
    walked as one block with the public primitives."""
    whole = GridBlock(s.grid, 0, s.grid.steps)
    [ops] = dynamics.half_grid_operators(s, s.omega_schedule(), whole)
    u = integrate_u(ops.h, s.grid, s.hbar)
    return (u, ur_from_definition(u, ops.omega_inv[::2], ops.omega[0]),
            ur_from_naive_generator(ops.h_big, s.grid, s.hbar),
            ur_from_corrected_generator(ops.gen, s.grid, s.hbar))


def test_ur_definition_hand_values():
    u, ur, _, _ = node_series(make_builtin("growing-metric-2d", steps=100))
    expect = np.diag([1.0, 1.0 / np.sqrt(2.0)]) @ u[-1]  # omega(0) = I
    assert np.allclose(ur[-1], expect, atol=1e-12)
    assert np.allclose(ur[0], np.eye(2))


def test_ur_definition_constant_diag_metric():
    grid = TimeGrid(0.0, 1.0, 200)
    theta = OperatorSchedule.constant_matrix(np.diag([1.0, 4.0]), (0, 1))
    s = dynamics.Scenario(name="c", grid=grid, theta=theta,
                          h=OperatorSchedule.constant_matrix(SIGMA_X, (0, 1)),
                          initial_state=np.array([1.0, 0.0]))
    u, ur, _, _ = node_series(s)
    for k in (0, 100, 200):
        expect = np.diag([1.0, 0.5]) @ u[k] @ np.diag([1.0, 2.0])
        assert np.allclose(ur[k], expect, atol=1e-12)


def test_naive_matches_definition_when_metric_constant():
    s = make_builtin("constant-metric-2d", steps=1000)
    assert evolve(s).gap_naive.max() <= 1e-9


def test_naive_fails_when_metric_moves():
    assert evolve(make_builtin("growing-metric-2d")).gap_naive[-1] >= 0.05


def test_naive_zero_generator():
    grid = TimeGrid(0.0, 1.0, 50)
    u = ur_from_naive_generator(on_half_grid(lambda t: np.zeros((2, 2)), grid), grid)
    assert np.allclose(u, np.eye(2))


def test_corrected_reduces_to_naive_for_constant_metric():
    _, _, ur_naive, ur_corr = node_series(make_builtin("constant-metric-2d", steps=500))
    assert np.allclose(ur_corr, ur_naive, atol=1e-13)


def test_corrected_matches_definition():
    res = evolve(make_builtin("growing-metric-2d").with_fd_omega_dot())
    assert res.gap_corrected.max() <= 1e-6


def test_scalar_exponential_hand_solution():
    # omega = e^t I, so the corrected propagator is e^{-t} u(t)
    s = make_builtin("scalar-exponential", steps=1000)
    u, ur, _, ur_corr = node_series(s)
    ts = s.grid.times()
    for k in (0, 500, 1000):
        expect = np.exp(-ts[k]) * u[k]
        assert np.allclose(ur[k], expect, atol=1e-12)
        assert np.allclose(ur_corr[k], expect, atol=1e-7)


def test_metric_reconstruction_identity_case():
    grid = TimeGrid(0.0, 1.0, 200)
    u = integrate_u(on_half_grid(lambda t: SIGMA_X, grid), grid)
    recon = metric_from_ur(u, np.eye(2), grid)
    assert max(linalg.fro_norm(m - np.eye(2)) for m in recon) <= 1e-10


@pytest.mark.parametrize("name", ["growing-metric-2d", "constant-metric-2d"])
def test_metric_reconstruction_builtins(name):
    # res_metric is ||theta_recon - theta||_F / ||theta||_F at every node, ends included
    res_metric = evolve(make_builtin(name)).res_metric
    assert not np.isnan(res_metric).any()
    assert res_metric.max() <= 1e-7


def test_norm_conservation_growing(growing_result):
    norms = growing_result.norm_phys
    assert norms[0] == pytest.approx(1.0)
    assert np.max(np.abs(norms / norms[0] - 1.0)) <= 1e-8
    assert growing_result.norm_drift.max() <= 1e-8


def test_zero_initial_state_rejected():
    # its physical norm would stay 0, and NORM_CONSERVED would pass vacuously
    with pytest.raises(ValidationError, match="initial_state"):
        make_builtin("growing-metric-2d", steps=100, initial_state=np.zeros(2, dtype=complex))


def test_direct_mode_accepts_quasi_hermitian():
    grid = TimeGrid(0.0, 1.0, 100)
    h_big = np.array([[0.0, np.sqrt(2)], [1.0 / np.sqrt(2), 0.0]])
    s = dynamics.Scenario(
        name="direct", grid=grid,
        theta=OperatorSchedule.constant_matrix(np.diag([1.0, 2.0]), (0, 1)),
        h_big=OperatorSchedule.constant_matrix(h_big, (0, 1)),
        initial_state=np.array([1.0, 0.0]))
    res = evolve(s)
    assert np.max(np.abs(res.norm_phys / res.norm_phys[0] - 1.0)) <= 1e-8


def test_direct_mode_rejects_violation():
    grid = TimeGrid(0.0, 1.0, 10)
    s = dynamics.Scenario(
        name="bad", grid=grid,
        theta=OperatorSchedule.constant_matrix(np.eye(2), (0, 1)),
        h_big=OperatorSchedule.constant_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), (0, 1)),
        initial_state=np.array([1.0, 0.0]))
    with pytest.raises(ValidationError, match="quasi-Hermiticity"):
        evolve(s)


def test_evolution_deterministic():
    a = evolve(make_builtin("growing-metric-2d", steps=300))
    b = evolve(make_builtin("growing-metric-2d", steps=300))
    _columns_equal(a, b)


def test_evolve_heap_peak_is_flat_in_the_steps(sampled_pair_text):
    """evolve keeps one block of operator stacks and the 1-D columns, so its
    heap peak on a d=8 pair grows by far less than the 16-fold N."""
    s = scenario_io.parse_scenario(sampled_pair_text)
    peaks = []
    for steps in (500, 8000):
        tracemalloc.start()
        try:
            evolve(s.with_steps(steps))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def classical_rk4(m_of_t, grid):
    """Reference: RK4 stages one step at a time, U' = M(t) U from the identity."""
    ts, dt = grid.times(), grid.spacing
    u = np.eye(2, dtype=complex)
    out = [u]
    for t in ts[:-1]:
        k1 = m_of_t(t) @ u
        k2 = m_of_t(t + 0.5 * dt) @ (u + 0.5 * dt * k1)
        k3 = m_of_t(t + 0.5 * dt) @ (u + 0.5 * dt * k2)
        k4 = m_of_t(t + dt) @ (u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(u)
    return np.stack(out)


def test_step_maps_match_classical_rk4():
    sigma_z = np.diag([1.0, -1.0])
    grid = TimeGrid(0.0, 1.0, 200)
    h = lambda t: SIGMA_X + 3.0 * t * sigma_z  # noqa: E731
    u = integrate_u(on_half_grid(h, grid), grid)
    ref = classical_rk4(lambda t: -1j * h(t), grid)
    assert np.allclose(u, ref, rtol=0, atol=1e-13)


def _walk_in_blocks(h, grid, cuts):
    """integrate_u over grid as a whole and block by block, each block cut at
    cuts and started from the last node of the block before: (whole, parts)."""
    whole = integrate_u(on_half_grid(h, grid), grid)
    parts, end = [], None
    for a, b in zip([0] + cuts, cuts + [grid.steps]):
        blk = GridBlock(grid, a, b)
        parts.append(integrate_u(on_half_grid(h, blk), blk, u0=end))
        end = parts[-1][-1]
    return whole, parts


def _big_h(dim):
    """t -> a varying Hermitian dim x dim generator of 2-norm at most 2."""
    rng = np.random.default_rng(dim)
    a, b = (linalg.hermitize(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            for _ in range(2))
    a, b = a / np.linalg.norm(a, 2), b / np.linalg.norm(b, 2)
    return lambda t: a + t * b


def test_blocks_continue_the_whole_grid_run():
    """Blocks cut at multiples of the walk's chunk, as grid_blocks cuts them,
    continue the whole-grid walk bit for bit; above SCAN_MAX_DIM, where the
    walk goes step by step, so do blocks cut anywhere."""
    chunk = dynamics.SCAN_CHUNK
    grid = TimeGrid(0.0, 1.0, 200)
    for h, cuts in ((lambda t: SIGMA_X * (1.0 + t), [chunk, 3 * chunk, 6 * chunk]),
                    (lambda t: SIGMA_X, [2 * chunk, 5 * chunk]),
                    (_big_h(dynamics.SCAN_MAX_DIM + 1), [25, 50, 75, 133])):
        whole, parts = _walk_in_blocks(h, grid, cuts)
        for a, part in zip([0] + cuts, parts):
            assert np.array_equal(part, whole[a:a + part.shape[0]]), a


def test_the_walk_is_chosen_by_the_whole_grid_never_by_a_block():
    """A grid of fewer than SCAN_MIN_STEPS steps walks step by step, so blocks
    cut anywhere continue its walk bit for bit; a block of a longer grid takes
    that grid's scan, however few steps the block has."""
    short, long = (TimeGrid(0.0, 1.0, n) for n in (dynamics.SCAN_MIN_STEPS - 1,
                                                   dynamics.SCAN_MIN_STEPS))
    assert dynamics._chunk(2, short) == 1
    assert dynamics._chunk(2, long) == dynamics.SCAN_CHUNK
    assert dynamics._chunk(2, GridBlock(long, 0, 40)) == dynamics.SCAN_CHUNK
    assert dynamics._chunk(dynamics.SCAN_MAX_DIM + 1, long) == 1
    for h in (lambda t: SIGMA_X * (1.0 + t), _big_h(3)):
        whole, parts = _walk_in_blocks(h, short, [25, 50, 75])
        for a, part in zip([0, 25, 50, 75], parts):
            assert np.array_equal(part, whole[a:a + part.shape[0]]), a


def test_evolve_refuses_a_bad_initial_norm_before_it_walks(monkeypatch):
    """<phi0|theta(t0)|phi0> is checked once theta(t0) is admitted, before the
    first block is walked; so it is named before a metric that fails later."""
    # not positive definite from t = 0.75 on, in the third of four blocks
    monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", 128 * 2 * 2 * 2)   # 128 steps a block
    late = _closed(lambda ts: _diag_stack(ts, 1.0, 1.0 - 4.0 * np.maximum(ts - 0.5, 0.0)))
    late = dataclasses.replace(_unadmitted("h", theta=late), grid=TimeGrid(0.0, 1.0, 400))
    assert [b.first for b in dynamics.grid_blocks(late.grid, late.dim)] == [0, 128, 256, 384]
    with pytest.raises(ValidationError, match=r"^metric rejected: .* at t=0\.75 "):
        evolve(late)
    walked = []
    monkeypatch.setattr(dynamics, "integrate_u", lambda *a, **k: walked.append(1))
    s = make_builtin("growing-metric-2d", steps=200000,
                     initial_state=np.array([1e-177, 0.0]))
    with pytest.raises(ValidationError, match=r"^initial_state has physical norm 0, "
                       "too small to measure a drift against$"):
        evolve(s)
    assert not walked
    with pytest.raises(ValidationError, match="^initial_state has physical norm inf, too large"):
        evolve(dataclasses.replace(late, initial_state=np.array([1e300, 0.0])))
    assert not walked


def test_blocks_cut_off_the_chunks_stay_within_rounding_of_the_whole_run():
    """A cut inside a chunk regroups the scan's products: the block walks agree
    with the whole-grid walk to rounding, the bound of the one-pass columns."""
    grid = TimeGrid(0.0, 1.0, 200)   # enough steps for the scan (SCAN_MIN_STEPS)
    for h in (lambda t: SIGMA_X * (1.0 + t), lambda t: SIGMA_X, _big_h(3)):
        whole, parts = _walk_in_blocks(h, grid, [25, 50, 75])
        for a, part in zip([0, 25, 50, 75], parts):
            assert np.allclose(part, whole[a:a + part.shape[0]],
                               rtol=0.0, atol=100 * np.finfo(float).eps), a


def test_run_bits_do_not_depend_on_the_block_size(monkeypatch, growing, growing_result):
    monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", 1 << 9)   # 64 steps a block at d = 2
    blocks = dynamics.grid_blocks(growing.grid, growing.dim)
    assert len(blocks) > 1 and all(b.first % dynamics.SCAN_CHUNK == 0 for b in blocks)
    _columns_equal(evolve(growing), growing_result)


def test_constant_generator_steps_like_a_varying_one():
    # a constant stack takes one shared step map; changing its last matrix
    # forces a map per step, and only the last step may come out different
    grid = TimeGrid(0.0, 1.0, 200)
    const = on_half_grid(lambda t: SIGMA_X, grid)
    varied = const.copy()
    varied[-1] = 2.0 * SIGMA_X
    a, b = integrate_u(const, grid), integrate_u(varied, grid)
    assert np.array_equal(a[:-1], b[:-1])
    assert not np.array_equal(a[-1], b[-1])


def test_gate_h_checks_midpoint_stages():
    bump = np.array([[0.0, 1.0], [0.0, 0.0]])
    # non-Hermitian only at t = 0.25, the midpoint of the third step
    h = lambda t: SIGMA_X + (bump if abs(t - 0.25) < 1e-12 else 0.0)  # noqa: E731
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(NotHermitian) as exc:
        gate_h(on_half_grid(h, grid), grid)
    assert exc.value.t == pytest.approx(0.25)


def test_metric_from_ur_reports_node_time():
    grid = TimeGrid(0.0, 2.0, 4)
    ur = np.stack([np.eye(2, dtype=complex)] * 5)
    ur[3] = np.diag([1.0, 0.0])
    with pytest.raises(IllConditioned) as exc:
        metric_from_ur(ur, np.eye(2), grid)
    assert exc.value.t == 1.5


def test_validate_names_first_non_positive_metric_time():
    grid = TimeGrid(0.0, 1.0, 10)
    s = dynamics.Scenario(
        name="sinking", grid=grid,
        theta=OperatorSchedule(
            2, (0.0, 1.0),
            lambda ts: np.stack([np.diag([1.0, 0.35 - t]) for t in ts]).astype(complex),
            lambda ts: np.stack([np.diag([0.0, -1.0]) for t in ts]).astype(complex)),
        h=OperatorSchedule.constant_matrix(SIGMA_X, (0, 1)),
        initial_state=np.array([1.0, 0.0]))
    # the midpoint t=0.35, where lambda_min = 0, comes before the node t=0.4
    with pytest.raises(ValidationError,
                       match=r"^metric rejected: matrix is not positive definite at t=0\.35 "):
        evolve(s)


def test_unitarity_defect_stays_at_rounding_level(growing, growing_result):
    # a step map folded into (I + D) would repeat its rounding every step: ~2e-13
    assert growing.grid.steps == 2000 and len(growing_result.t) == 2001
    assert np.max(growing_result.unitarity_defect) <= 1e-14


def _diag_stack(ts, a, b):
    out = np.zeros((ts.size, 2, 2), dtype=complex)
    out[:, 0, 0], out[:, 1, 1] = a, b
    return out


BUMP = np.array([[0.0, 1.0], [0.0, 0.0]])


def _from(t0, m):
    """Times -> stack of m at the times >= t0, zero before."""
    return lambda ts: (ts >= t0 - 1e-12)[:, None, None] * m


def _unadmitted(kind, theta=None, gen=None):
    grid = TimeGrid(0.0, 1.0, 10)
    eye = OperatorSchedule.constant_matrix(np.eye(2), (0, 1))
    gen = gen or OperatorSchedule.constant_matrix(SIGMA_X, (0, 1))
    return dynamics.Scenario(name=kind, grid=grid, theta=theta or eye,
                             initial_state=np.array([1.0, 0.0]), **{kind: gen})


def _closed(fn):
    return OperatorSchedule(2, (0.0, 1.0), fn, fn)


EVOLVE_GATES = {
    # non-positive from the node t=0.4 on; the midpoint before it is still positive
    "metric": (_unadmitted("h", theta=_closed(lambda ts: _diag_stack(ts, 1.0, 0.4 - ts))),
               r"^metric rejected: matrix is not positive definite at t=0\.4 "
               r"\(lambda_min=-?[0-9.e-]+, lambda_max=1\)$"),
    # non-Hermitian from the midpoint t=0.25 on, which a gate at the nodes would miss
    "pair h": (_unadmitted("h", gen=_closed(lambda ts: SIGMA_X + _from(0.25, BUMP)(ts))),
               r"^pair-mode generator not Hermitian at t=0\.25 \(defect 1\.414e\+00\)$"),
    "direct H": (_unadmitted("h_big", gen=_closed(lambda ts: SIGMA_X + _from(0.5, BUMP)(ts))),
                 r"^direct-mode generator violates quasi-Hermiticity at t=0\.5 "
                 r"\(residual 0\.632456 > 1e-08\)$"),
}


@pytest.mark.parametrize("case", list(EVOLVE_GATES))
def test_evolve_gates_a_scenario_never_admitted(case):
    s, message = EVOLVE_GATES[case]
    with pytest.raises(ValidationError, match=message):
        evolve(s)


def _broken_after_half(kind, bad):
    """Theta = I on [0, 1], N = 200, and the given generator sigma_x, but every
    entry bad (nan or inf) at t > 0.5: from the half-grid time 0.5025 on."""
    gen = _closed(lambda ts: np.where((ts > 0.5)[:, None, None], bad, SIGMA_X))
    return dataclasses.replace(_unadmitted(kind, gen=gen), grid=TimeGrid(0.0, 1.0, 200))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind, name", [("h", "pair"), ("h_big", "direct")])
@pytest.mark.parametrize("run", ["evolve", "u", "ur_corr"])
def test_a_non_finite_generator_is_refused_with_its_name_and_t(kind, name, bad, run):
    """Refused before any RK4-stability test (an inf would read as too large a
    step) and before any walk: no probe returns nan, and no warning escapes."""
    s = _broken_after_half(kind, bad)
    check = evolve if run == "evolve" else lambda s: verify.convergence_order(s, run)
    with pytest.raises(ValidationError, match=rf"^{name}-mode generator rejected: matrix "
                                              r"entries must be finite at t=0\.5025$"):
        check(s)


def _count_matrices(monkeypatch, name):
    """Count the matrices passed to np.linalg.<name> from now on."""
    count = [0]
    orig = getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2], dtype=int))
        return orig(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return count


def test_one_metric_root_per_half_grid_point(monkeypatch, sampled_pair_text):
    """A block roots omega only where no block before it did: its stencil's
    points at the seam come from the block before."""
    eigh = _count_matrices(monkeypatch, "eigh")
    s = scenario_io.parse_scenario(sampled_pair_text)
    assert eigh[0] == 0   # parsing gates nothing: evolve takes the first metric root
    verify.verdicts(verify.run_diagnostics(s), s)
    assert len(dynamics.grid_blocks(s.grid, s.dim)) == 4
    assert eigh[0] == 2 * s.grid.steps + 1
    eigh[0] = 0
    verify.convergence_order(s.with_steps(100), "ur_corr")   # grids of 100, 200 and 400 steps
    assert eigh[0] == 2 * 400 + 1   # the finest grid's points serve the coarser two


def _columns_equal(a, b):
    for name, x, y in zip(a._fields, a, b):   # every column of the two records
        assert np.array_equal(x, y, equal_nan=True), name


@pytest.mark.parametrize("factor, blocks", [(4, 1), (0.5, 8), (2 ** -8, 151)])
def test_block_layout_does_not_change_the_result(monkeypatch, sampled_pair_text,
                                                 factor, blocks):
    """Every half-grid point is rooted once, at its own time, whatever block
    takes it, so the blocks' size changes no bit of a run or of the ur_corr
    order. At the fewest steps a block (2^-8: 4 steps, the floor at d = 8) the
    last block of the 601 steps has one, so its one-sided rows read up to two
    steps back, past its first node into the seam."""
    s = scenario_io.parse_scenario(sampled_pair_text).with_steps(601)
    res, order = evolve(s), verify.convergence_order(s.with_steps(100), "ur_corr")
    monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", int(factor * dynamics.BLOCK_ENTRIES))
    layout = dynamics.grid_blocks(s.grid, s.dim)
    assert len(layout) == blocks
    if factor == 2 ** -8:
        assert layout[-1].steps == 1
    eigh = _count_matrices(monkeypatch, "eigh")
    _columns_equal(evolve(s), res)
    assert eigh[0] == 2 * s.grid.steps + 1
    assert verify.convergence_order(s.with_steps(100), "ur_corr") == order


def test_each_omega_inverse_is_decided_alone_whatever_block_holds_it(monkeypatch,
                                                                    sampled_pair_text):
    """With cond_max inside the span of 2 ||omega||_F ||X||_F over the run
    (16.68 to 17.68 here, while cond(omega) stays below 2.1), X certifies
    omega^-1 at the earlier roots and not at the later ones, and every root is
    admitted. Each omega^-1 is X or inv(omega) by its own root alone, so the
    run has the same bits in one block as in eight."""
    s = scenario_io.parse_scenario(sampled_pair_text).with_steps(601)
    w, x = s.omega_schedule().omega(s.grid.half_times())
    bound = 2.0 * np.linalg.norm(w, axis=(-2, -1)) * np.linalg.norm(x, axis=(-2, -1))
    cond_max = float(np.median(bound))
    assert linalg.cond_2norm(w).max() < 2.1 < 16.6 < bound.min() < cond_max < bound.max()
    text = json.dumps({**json.loads(sampled_pair_text), "tolerances": {"cond_max": cond_max}})
    s = scenario_io.parse_scenario(text).with_steps(601)
    entries = dynamics.BLOCK_ENTRIES
    results = []
    for factor, blocks in ((4, 1), (0.5, 8)):
        monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", int(factor * entries))
        assert len(dynamics.grid_blocks(s.grid, s.dim)) == blocks
        results.append(evolve(s))
    _columns_equal(*results)


def test_a_block_out_of_walk_order_roots_its_whole_window(sampled_pair_text):
    """One omega schedule walks blocks 0 to 3, then is asked for block 0
    again and for block 3 after block 0: each answer has the bits of a fresh
    schedule's, whatever roots the block before left it."""
    s = scenario_io.parse_scenario(sampled_pair_text)
    blocks = dynamics.grid_blocks(s.grid, s.dim)
    assert len(blocks) == 4
    os = s.omega_schedule()
    for k in (0, 1, 2, 3, 0, 3):
        (roots, *dots), (fresh, *fresh_dots) = (os.on_block(blocks[k]),
                                                s.omega_schedule().on_block(blocks[k]))
        for a, b in zip((*roots, *dots), (*fresh, *fresh_dots)):   # omega, X, omega_dot
            assert np.array_equal(a, b), k
    with pytest.raises(ValueError, match="not a block of this schedule's grid"):
        os.on_block(GridBlock(s.with_steps(100).grid, 0, 10))


def test_a_sampled_walk_inverts_omega_through_its_roots_eigendecomposition(
        monkeypatch, sampled_pair_text):
    """A sampled run's omega^-1 is X = V diag(1/sqrt(lambda)) V^dagger from the
    eigendecomposition that roots theta, certified by linalg.inverse: the walk
    calls np.linalg.inv on U_R alone (metric_from_ur, once a block), never on
    omega. X is inv(omega) to 1e-14 relative per matrix (3.7e-15 measured),
    and max res_qh is no larger than the 4.5487e-15 it read when omega^-1 was
    inv(omega)."""
    s = scenario_io.parse_scenario(sampled_pair_text)
    inverted, urs = [], []
    inv, from_ur = np.linalg.inv, dynamics.metric_from_ur
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
    monkeypatch.setattr(dynamics, "metric_from_ur",
                        lambda ur, *rest: urs.append(ur) or from_ur(ur, *rest))
    res_qh = evolve(s).res_qh
    blocks = dynamics.grid_blocks(s.grid, s.dim)
    assert len(urs) == len(blocks) == 4
    assert len(inverted) == len(urs)   # each call takes a whole U_R stack
    assert all(np.shares_memory(a, ur) and a.size == ur.size for a, ur in zip(inverted, urs))
    assert np.nanmax(res_qh) <= 4.548667180921778e-15
    os = s.omega_schedule()
    for blk in blocks:
        ops = dynamics.half_grid_operators(s, os, blk)[0]
        ref = inv(ops.omega)
        err = np.linalg.norm(ops.omega_inv - ref, axis=(-2, -1))
        assert (err <= 1e-14 * np.linalg.norm(ref, axis=(-2, -1))).all()


def test_end_state_is_the_last_node_of_the_walk_of_the_whole_grid(sampled_pair_text):
    """end_states with one level walks the blocks that evolve walks (four
    here), and a block's walk continues the whole grid's bit for bit: each
    probe's end state is the last node of one walk over the whole grid."""
    s = scenario_io.parse_scenario(sampled_pair_text).with_fd_omega_dot()
    assert len(dynamics.grid_blocks(s.grid, s.dim)) == 4
    whole = GridBlock(s.grid, 0, s.grid.steps)
    [ops] = dynamics.half_grid_operators(s, s.omega_schedule(), whole)
    assert np.array_equal(dynamics.end_states(s, "u")[0],
                          integrate_u(ops.h, whole, s.hbar)[-1])
    assert np.array_equal(dynamics.end_states(s, "ur_corr")[0],
                          ur_from_corrected_generator(ops.gen, whole, s.hbar)[-1])
    with pytest.raises(ValueError, match="unknown probe 'ur_naive'"):
        dynamics.end_states(s, "ur_naive")
    assert quasiherm.end_states is dynamics.end_states


def _walked_alone(s, probe):
    """The probe's end state from one walk of s's whole grid as one block."""
    whole = GridBlock(s.grid, 0, s.grid.steps)
    [ops] = dynamics.half_grid_operators(s, s.omega_schedule(), whole)
    if probe == "u":
        return integrate_u(ops.h, whole, s.hbar)[-1]
    return ur_from_corrected_generator(ops.gen, whole, s.hbar)[-1]


def _pair_2d(steps):
    """A d = 2 pair file text: h(t) = sigma_x + t sigma_z and theta(t) =
    diag(1, 1 + t^2) + 0.1 t sigma_x, both sampled on 9 snapshots."""
    times = np.linspace(0.0, 1.0, 9)
    return json.dumps({"dimension": 2, "time": {"steps": steps}, "model": {"kind": "pair",
        "h": {"times": times.tolist(), "snapshots": [
            [[[t, 0], [1, 0]], [[1, 0], [-t, 0]]] for t in times]},
        "theta": {"times": times.tolist(), "snapshots": [
            [[[1, 0], [0.1 * t, 0]], [[0.1 * t, 0], [1 + t * t, 0]]] for t in times]}}})


def _direct_2d(steps):
    """A d = 2 direct scenario under a moving metric: theta(t) = diag(1, (1 + t)^2)
    and H(t) = omega^-1 (sigma_x + t sigma_z) omega, in closed form."""
    def theta(ts):
        return np.stack([np.diag([1.0, (1.0 + t) ** 2]) for t in ts])

    def h_big(ts):
        return np.stack([np.array([[t, 1.0 + t], [1.0 / (1.0 + t), -t]]) for t in ts])
    return dynamics.Scenario(name="direct", grid=TimeGrid(0.0, 1.0, steps),
                             theta=OperatorSchedule(2, (0.0, 1.0), theta, theta),
                             h_big=OperatorSchedule(2, (0.0, 1.0), h_big, h_big))


NESTED = {   # name: (scenario of N steps, BLOCK_ENTRIES or None for the default)
    "d=8": (lambda text: scenario_io.parse_scenario(text).with_steps(100), None),
    "d=8, small blocks": (lambda text: scenario_io.parse_scenario(text).with_steps(100),
                          40 * 2 * 8 * 8),
    "d=2 pair, scan cuts": (lambda text: scenario_io.parse_scenario(_pair_2d(200)), 512),
    "d=2 pair, N stepwise": (lambda text: scenario_io.parse_scenario(_pair_2d(100)), 512),
    "d=2 direct, scan cuts": (lambda text: _direct_2d(200), 512),
}


@pytest.mark.parametrize("probe", ["u", "ur_corr"])
@pytest.mark.parametrize("case", list(NESTED))
def test_end_states_equal_each_grid_walked_alone(monkeypatch, sampled_pair_text, case, probe):
    """One walk of the 4N grid gives the end states of the N, 2N and 4N grids
    with the bits of a walk of each grid alone, in pair and direct mode, with
    blocks cut where the coarser grids' scans must stay chunk-aligned (d = 2)
    and in every step (d = 8). At N = 100 the N grid walks step by step and
    the finer two by the scan."""
    make, entries = NESTED[case]
    s = make(sampled_pair_text).with_fd_omega_dot()
    if entries is not None:
        monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", entries)
    n = s.grid.steps
    assert len(dynamics.grid_blocks(s.with_steps(4 * n).grid, s.dim)) > 1
    if s.dim == 2:
        assert dynamics._chunk(2, s.with_steps(2 * n).grid) == dynamics.SCAN_CHUNK
        assert dynamics._chunk(2, s.grid) == (dynamics.SCAN_CHUNK if n >= 160 else 1)
    ends = dynamics.end_states(s, probe, 3)
    assert len(ends) == 3
    for k, end in zip((1, 2, 4), ends):
        alone = s.with_steps(k * n)
        assert np.array_equal(end, _walked_alone(alone, probe)), k
        assert np.array_equal(end, dynamics.end_states(alone, probe)[0]), k


def test_direct_mode_takes_one_residual_per_node(monkeypatch):
    count = [0]
    orig = spaces.quasi_hermiticity_defect

    def counted(h_mat, theta):
        count[0] += int(np.prod(np.shape(h_mat)[:-2], dtype=int))
        return orig(h_mat, theta)

    for mod in (spaces, dynamics, verify):   # every module that binds it by name
        if getattr(mod, "quasi_hermiticity_defect", None) is orig:
            monkeypatch.setattr(mod, "quasi_hermiticity_defect", counted)
    s = dynamics.Scenario(
        name="direct", grid=TimeGrid(0.0, 1.0, 100),
        theta=OperatorSchedule.constant_matrix(np.diag([1.0, 2.0]), (0, 1)),
        h_big=OperatorSchedule.constant_matrix(
            np.array([[0.0, np.sqrt(2)], [1.0 / np.sqrt(2), 0.0]]), (0, 1)),
        initial_state=np.array([1.0, 0.0]))
    res = evolve(s)
    d = verify.diagnostics_from_result(res)
    assert count[0] == s.grid.steps + 1
    ts = s.grid.times()[1:-1]
    expect = orig(s.h_big(ts), s.theta(ts))
    assert np.array_equal(d.res_qh, expect)


def test_every_walked_block_passes_the_h_gate_once(monkeypatch, sampled_pair_text):
    """evolve gates each block's h, and only once. Both convergence probes gate
    every step of each of their three grids once, in pieces that never cross a
    cut of that grid's own blocks."""
    seen = []
    gate = dynamics.gate_h
    monkeypatch.setattr(dynamics, "gate_h", lambda h, blk, *rest: (
        seen.append((blk.grid.steps, blk.first, blk.last)), gate(h, blk, *rest))[1])
    s = scenario_io.parse_scenario(sampled_pair_text)   # 600 steps, four blocks
    evolve(s)
    assert seen == [(600, b.first, b.last) for b in dynamics.grid_blocks(s.grid, s.dim)]
    # at the default block size and at 40 steps a block, each grid's pieces
    # of the one walk lie within that grid's own blocks
    for entries, probe in itertools.product((dynamics.BLOCK_ENTRIES, 40 * 2 * 8 * 8),
                                            ("u", "ur_corr")):
        monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", entries)
        seen.clear()
        verify.convergence_order(s.with_steps(100), probe)
        for n in (100, 200, 400):
            pieces = sorted((a, b) for m, a, b in seen if m == n)
            assert [a for a, _ in pieces] == [0] + [b for _, b in pieces[:-1]], (probe, n)
            assert pieces[-1][1] == n
            cuts = [b.first for b in dynamics.grid_blocks(s.with_steps(n).grid, s.dim)]
            assert not any(a < c < b for a, b in pieces for c in cuts), (probe, n)
        assert len(seen) == len({(m, a) for m, a, _ in seen}) > 3, probe


@pytest.mark.parametrize("k", [-3, 7])
@pytest.mark.parametrize("which", ["growing-metric-2d", "sampled pair"])
def test_scaling_hbar_and_h_by_a_power_of_two_scales_only_the_residuals(
        growing, growing_result, sampled_pair_text, which, k):
    """(hbar, h) -> (2^k hbar, 2^k h) leaves h/hbar, and so every propagator,
    bit for bit as it was: every column but the two generator residuals is
    unchanged, and those are multiplied by exactly 2^k. The sampled pair walks
    four blocks with a finite-difference omega_dot.

    No verdict is asserted. CORRECTED_GENERATOR_OK judges res_corrected against
    an absolute tolerance, so at k = 7 it flips to FAIL on growing-metric-2d
    although the propagators are the same: the units defect of the verdicts
    that ROADMAP item 3 addresses.
    """
    if which == "growing-metric-2d":
        s, base = growing, growing_result
    else:
        s = scenario_io.parse_scenario(sampled_pair_text)
        base = evolve(s)
    c = 2.0 ** k
    h = OperatorSchedule(s.dim, s.h.span, lambda ts: c * s.h(ts),
                         lambda ts: c * s.h.derivative(ts))
    scaled = evolve(dataclasses.replace(s, hbar=c * s.hbar, h=h))
    for col in ("t", "norm_phys", "unitarity_defect", "res_metric", "omega_motion",
                "res_qh", "norm_drift", "gap_naive", "gap_corrected"):
        assert np.array_equal(getattr(scaled, col), getattr(base, col), equal_nan=True), col
    for col in ("res_naive", "res_corrected"):
        assert np.array_equal(getattr(scaled, col), c * getattr(base, col),
                              equal_nan=True), col
