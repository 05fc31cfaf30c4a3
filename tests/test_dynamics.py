import numpy as np
import pytest

from quasiherm import dynamics, linalg, make_builtin, scenario_io, spaces, verify
from quasiherm.dynamics import (evolve, integrate_u, metric_from_ur,
                                ur_from_corrected_generator,
                                ur_from_definition, ur_from_naive_generator,
                                validate_scenario)
from quasiherm.errors import IllConditioned, NotHermitian, ValidationError
from quasiherm.models import SIGMA_X, u_oracle_sigma_x
from quasiherm.schedules import OperatorSchedule, TimeGrid

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


def test_integrate_u_rejects_nonhermitian():
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(NotHermitian):
        integrate_u(on_half_grid(lambda t: np.array([[0.0, 1.0], [0.0, 0.0]]), grid), grid)


def test_ur_definition_identity_metric():
    s = make_builtin("growing-metric-2d", steps=100)
    grid = s.grid
    os_ident = dynamics.Scenario(
        name="ident", dim=2, grid=grid,
        theta=OperatorSchedule.constant_matrix(np.eye(2), (0, 1)),
        h=OperatorSchedule.constant_matrix(SIGMA_X, (0, 1)),
        initial_state=np.array([1.0, 0.0]),
    ).omega_schedule()
    u = integrate_u(on_half_grid(lambda t: SIGMA_X, grid), grid)
    ur = ur_from_definition(u, os_ident.omega_inv(grid.times()), os_ident.omega(0.0))
    assert np.allclose(ur, u)


def test_ur_definition_hand_values():
    s = make_builtin("growing-metric-2d", steps=100)
    res = evolve(s)
    u_end = res.u_series[-1]
    expect = np.diag([1.0, 1.0 / np.sqrt(2.0)]) @ u_end  # omega(0) = I
    assert np.allclose(res.ur_series[-1], expect, atol=1e-12)
    assert np.allclose(res.ur_series[0], np.eye(2))


def test_ur_definition_constant_diag_metric():
    grid = TimeGrid(0.0, 1.0, 200)
    theta = OperatorSchedule.constant_matrix(np.diag([1.0, 4.0]), (0, 1))
    s = dynamics.Scenario(name="c", dim=2, grid=grid, theta=theta,
                          h=OperatorSchedule.constant_matrix(SIGMA_X, (0, 1)),
                          initial_state=np.array([1.0, 0.0]))
    res = evolve(s)
    for k in (0, 100, 200):
        expect = np.diag([1.0, 0.5]) @ res.u_series[k] @ np.diag([1.0, 2.0])
        assert np.allclose(res.ur_series[k], expect, atol=1e-12)


def test_naive_matches_definition_when_metric_constant():
    s = make_builtin("constant-metric-2d", steps=1000)
    res = evolve(s)
    gap = max(linalg.fro_norm(a - b)
              for a, b in zip(res.ur_naive_series, res.ur_series))
    assert gap <= 1e-9


def test_naive_fails_when_metric_moves():
    res = evolve(make_builtin("growing-metric-2d"))
    assert linalg.fro_norm(res.ur_naive_series[-1] - res.ur_series[-1]) >= 0.05


def test_naive_zero_generator():
    grid = TimeGrid(0.0, 1.0, 50)
    u = ur_from_naive_generator(on_half_grid(lambda t: np.zeros((2, 2)), grid), grid)
    assert np.allclose(u, np.eye(2))


def test_corrected_reduces_to_naive_for_constant_metric():
    res = evolve(make_builtin("constant-metric-2d", steps=500))
    assert np.allclose(res.ur_corr_series, res.ur_naive_series, atol=1e-13)


def test_corrected_matches_definition():
    res = evolve(make_builtin("growing-metric-2d").with_fd_omega_dot())
    gap = max(linalg.fro_norm(a - b)
              for a, b in zip(res.ur_corr_series, res.ur_series))
    assert gap <= 1e-6


def test_scalar_exponential_hand_solution():
    # omega = e^t I, so the corrected propagator is e^{-t} u(t)
    s = make_builtin("scalar-exponential", steps=1000)
    res = evolve(s)
    ts = s.grid.times()
    for k in (0, 500, 1000):
        expect = np.exp(-ts[k]) * res.u_series[k]
        assert np.allclose(res.ur_series[k], expect, atol=1e-12)
        assert np.allclose(res.ur_corr_series[k], expect, atol=1e-7)


def test_metric_reconstruction_identity_case():
    grid = TimeGrid(0.0, 1.0, 200)
    u = integrate_u(on_half_grid(lambda t: SIGMA_X, grid), grid)
    recon = metric_from_ur(u, np.eye(2), grid)
    assert max(linalg.fro_norm(m - np.eye(2)) for m in recon) <= 1e-10


@pytest.mark.parametrize("name", ["growing-metric-2d", "constant-metric-2d"])
def test_metric_reconstruction_builtins(name):
    res = evolve(make_builtin(name))
    rel = max(linalg.fro_norm(res.theta_recon[k] - res.theta_series[k])
              / linalg.fro_norm(res.theta_series[k])
              for k in range(res.grid.steps + 1))
    assert rel <= 1e-7


def test_norm_conservation_growing(growing_result):
    norms = growing_result.norms_phys
    assert norms[0] == pytest.approx(1.0)
    assert np.max(np.abs(norms / norms[0] - 1.0)) <= 1e-8


def test_zero_initial_state_rejected():
    # its physical norm would stay 0, and NORM_CONSERVED would pass vacuously
    with pytest.raises(ValidationError, match="initial_state"):
        make_builtin("growing-metric-2d", steps=100, initial_state=np.zeros(2, dtype=complex))


def test_direct_mode_accepts_quasi_hermitian():
    grid = TimeGrid(0.0, 1.0, 100)
    h_big = np.array([[0.0, np.sqrt(2)], [1.0 / np.sqrt(2), 0.0]])
    s = dynamics.Scenario(
        name="direct", dim=2, grid=grid,
        theta=OperatorSchedule.constant_matrix(np.diag([1.0, 2.0]), (0, 1)),
        h_big=OperatorSchedule.constant_matrix(h_big, (0, 1)),
        initial_state=np.array([1.0, 0.0]))
    validate_scenario(s)
    res = evolve(s)
    assert np.max(np.abs(res.norms_phys / res.norms_phys[0] - 1.0)) <= 1e-8


def test_direct_mode_rejects_violation():
    grid = TimeGrid(0.0, 1.0, 10)
    s = dynamics.Scenario(
        name="bad", dim=2, grid=grid,
        theta=OperatorSchedule.constant_matrix(np.eye(2), (0, 1)),
        h_big=OperatorSchedule.constant_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), (0, 1)),
        initial_state=np.array([1.0, 0.0]))
    with pytest.raises(ValidationError, match="quasi-Hermiticity"):
        validate_scenario(s)


def test_evolution_deterministic():
    a = evolve(make_builtin("growing-metric-2d", steps=300))
    b = evolve(make_builtin("growing-metric-2d", steps=300))
    assert np.array_equal(a.ur_series, b.ur_series)
    assert np.array_equal(a.norms_phys, b.norms_phys)


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


def test_blocks_continue_the_whole_grid_run():
    grid = TimeGrid(0.0, 1.0, 100)
    h = lambda t: SIGMA_X * (1.0 + t)  # noqa: E731
    whole = integrate_u(on_half_grid(h, grid), grid)
    end = None
    for blk in grid.blocks(30):
        part = integrate_u(on_half_grid(h, blk), blk, u0=end)
        assert np.array_equal(part, whole[blk.first:blk.last + 1])
        end = part[-1]


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


def test_integrate_u_gates_midpoint_stages():
    bump = np.array([[0.0, 1.0], [0.0, 0.0]])
    # non-Hermitian only at t = 0.25, the midpoint of the third step
    h = lambda t: SIGMA_X + (bump if abs(t - 0.25) < 1e-12 else 0.0)  # noqa: E731
    grid = TimeGrid(0.0, 1.0, 10)
    with pytest.raises(NotHermitian) as exc:
        integrate_u(on_half_grid(h, grid), grid)
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
        name="sinking", dim=2, grid=grid,
        theta=OperatorSchedule.closed_form(
            2, (0.0, 1.0),
            lambda ts: np.stack([np.diag([1.0, 0.35 - t]) for t in ts]).astype(complex),
            lambda ts: np.stack([np.diag([0.0, -1.0]) for t in ts]).astype(complex)),
        h=OperatorSchedule.constant_matrix(SIGMA_X, (0, 1)),
        initial_state=np.array([1.0, 0.0]))
    with pytest.raises(ValidationError, match="metric rejected at t=0.4"):
        validate_scenario(s)


def test_unitarity_defect_stays_at_rounding_level(growing_result):
    # a step map folded into (I + D) would repeat its rounding every step: ~2e-13
    assert growing_result.grid.steps == 2000
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
    return dynamics.Scenario(name=kind, dim=2, grid=grid, theta=theta or eye,
                             initial_state=np.array([1.0, 0.0]), **{kind: gen})


def _closed(fn):
    return OperatorSchedule.closed_form(2, (0.0, 1.0), fn, fn)


EVOLVE_GATES = {
    # non-positive from the node t=0.4 on; the midpoint before it is still positive
    "metric": (_unadmitted("h", theta=_closed(lambda ts: _diag_stack(ts, 1.0, 0.4 - ts))),
               r"^metric rejected at t=0\.4: matrix is not positive definite at t=0\.4 "
               r"\(lambda_min=-?[0-9.e-]+, lambda_max=1\)$"),
    # non-Hermitian from the midpoint t=0.25 on, which admission at the nodes misses
    "pair h": (_unadmitted("h", gen=_closed(lambda ts: SIGMA_X + _from(0.25, BUMP)(ts))),
               r"^pair-mode generator not Hermitian at t=0\.25 \(defect 1\.414e\+00\)$"),
    "direct H": (_unadmitted("h_big", gen=_closed(lambda ts: SIGMA_X + _from(0.5, BUMP)(ts))),
                 r"^direct-mode generator violates quasi-Hermiticity at t=0\.5 "
                 r"\(residual 0\.632456 > 1e-08\)$"),
}


@pytest.mark.parametrize("case", list(EVOLVE_GATES))
def test_evolve_gates_a_scenario_never_admitted(monkeypatch, case):
    s, message = EVOLVE_GATES[case]

    def no_second_admission(_):
        raise AssertionError("evolve must apply the gates in its own pass")

    monkeypatch.setattr(dynamics, "validate_scenario", no_second_admission)
    with pytest.raises(ValidationError, match=message):
        evolve(s)


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
    eigh = _count_matrices(monkeypatch, "eigh")
    s = scenario_io.parse_scenario(sampled_pair_text)
    assert eigh[0] == 0   # admission gates the metric on eigenvalues alone
    rows = verify.run_diagnostics(s)
    verify.verdicts(rows, s)
    blocks = dynamics.grid_blocks(s.grid, s.dim)
    assert len(blocks) == 3
    # 2N+1 points, each block's first point shared with the block before it,
    # and a finite-difference halo of two points past either end of a block
    bound = 2 * s.grid.steps + 1 + (len(blocks) - 1) + 4 * len(blocks)
    assert 2 * s.grid.steps + 1 < eigh[0] <= bound


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
        name="direct", dim=2, grid=TimeGrid(0.0, 1.0, 100),
        theta=OperatorSchedule.constant_matrix(np.diag([1.0, 2.0]), (0, 1)),
        h_big=OperatorSchedule.constant_matrix(
            np.array([[0.0, np.sqrt(2)], [1.0 / np.sqrt(2), 0.0]]), (0, 1)),
        initial_state=np.array([1.0, 0.0]))
    res = evolve(s)
    rows = verify.diagnostics_from_result(res)
    assert count[0] == s.grid.steps + 1
    expect = orig(s.h_big(s.grid.times()[1:-1]), res.theta_series[1:-1])
    assert [r.res_qh for r in rows] == expect.tolist()
