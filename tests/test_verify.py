import dataclasses
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from quasiherm import (builtin_names, dynamics, linalg, make_builtin, scenario_io, schedules,
                       verify)
from quasiherm.dynamics import DEFAULT_TOLERANCES, evolve
from quasiherm.errors import NotMeasurable, ValidationError
from quasiherm.models import SIGMA_X
from quasiherm.schedules import GridBlock, OperatorSchedule, TimeGrid
from quasiherm.verify import convergence_order, run_diagnostics, verdicts


def test_rows_cover_interior_nodes(growing, growing_diag):
    n = growing.grid.steps
    lengths = dict(zip(growing_diag._fields, map(len, growing_diag)))
    assert lengths == {**dict.fromkeys(growing_diag._fields, n - 1),
                       "omega_motion": n + 1}   # motion at every node
    dt = growing.grid.spacing
    assert growing_diag.t[0] == pytest.approx(dt)
    assert growing_diag.t[-1] == pytest.approx(1.0 - dt)


def test_rows_all_finite_nonnegative(growing_diag):
    for f in ("unitarity_defect", "res_naive", "res_corrected", "res_metric", "res_qh"):
        v = getattr(growing_diag, f)
        assert np.isfinite(v).all() and (v >= 0.0).all()
    assert (growing_diag.norm_phys > 0.0).all()


def test_constant_metric_both_residuals_small(builtin_diag):
    _, d = builtin_diag["constant-metric-2d"]
    assert d.res_naive.max() <= 1e-6
    assert d.res_corrected.max() <= 1e-6


def test_growing_metric_naive_residual_closed_form(growing_diag):
    # hbar * |omega^-1 omega_dot U_R| = t / (1 + t^2)^{3/2} at the last
    # interior node, 0.5/sqrt(2) at t=1
    assert growing_diag.res_naive[-1] == pytest.approx(0.5 / np.sqrt(2.0), rel=0.02)
    t_peak = 1.0 / np.sqrt(2.0)
    peak = growing_diag.res_naive.max()
    assert peak == pytest.approx(t_peak / (1 + t_peak ** 2) ** 1.5, rel=0.01)


def test_growing_metric_qh_residual_tiny(growing_diag):
    assert growing_diag.res_qh.max() <= 1e-11


def test_naive_residual_stable_under_refinement(growing_diag, growing_diag_4000):
    assert abs(growing_diag.res_naive[-1] - growing_diag_4000.res_naive[-1]) <= 1e-3


def test_verdict_set(builtin_diag):
    for name, (s, d) in builtin_diag.items():
        vs = verdicts(d, s)
        assert [v.name for v in vs] == [
            "NORM_CONSERVED", "METRIC_RECONSTRUCTED", "QH_HOLDS",
            "CORRECTED_GENERATOR_OK", "NAIVE_FAILS_IFF_METRIC_MOVES"]
        assert all(v.passed for v in vs), f"{name}: {vs}"


def test_naive_verdict_sense(builtin_diag):
    s, d = builtin_diag["growing-metric-2d"]
    v = verdicts(d, s)[-1]
    assert v.sense == ">=" and v.observed >= v.threshold
    s2, d2 = builtin_diag["constant-metric-2d"]
    v2 = verdicts(d2, s2)[-1]
    assert v2.sense == "<=" and v2.observed <= v2.threshold


@pytest.mark.parametrize("column, verdict", [
    ("norm_drift", "NORM_CONSERVED"), ("res_metric", "METRIC_RECONSTRUCTED"),
    ("res_qh", "QH_HOLDS"), ("res_corrected", "CORRECTED_GENERATOR_OK"),
    ("res_naive", "NAIVE_FAILS_IFF_METRIC_MOVES"),
    ("omega_motion", "NAIVE_FAILS_IFF_METRIC_MOVES")])
def test_a_nan_inside_a_column_fails_its_verdict(builtin_diag, column, verdict):
    """A nan past the first node is the column's maximum, not a value to skip;
    a nan motion takes the moving branch, whose floor the static naive residual
    misses."""
    s, d = builtin_diag["constant-metric-2d"]
    assert all(v.passed for v in verdicts(d, s))
    bad = getattr(d, column).copy()
    bad[10] = np.nan
    vs = {v.name: v for v in verdicts(d._replace(**{column: bad}), s)}
    assert not vs[verdict].passed
    if column != "omega_motion":
        assert np.isnan(vs[verdict].observed)
    else:
        assert vs[verdict].sense == ">="
    assert [v.name for v in vs.values() if not v.passed] == [verdict]


def test_verdict_monotone_under_refinement(growing_diag_4000):
    fine = make_builtin("growing-metric-2d", steps=4000)
    vs = verdicts(growing_diag_4000, fine)
    for v in vs[:4]:
        assert v.passed


def test_diagnostics_deterministic():
    s = make_builtin("growing-metric-2d", steps=300)
    again = run_diagnostics(make_builtin("growing-metric-2d", steps=300))
    assert all(map(np.array_equal, run_diagnostics(s), again))


def test_convergence_order_u():
    order = convergence_order(make_builtin("growing-metric-2d", steps=250), "u")
    assert 3.7 <= order <= 4.3


def test_convergence_order_ur_corr_fd():
    order = convergence_order(make_builtin("growing-metric-2d", steps=250), "ur_corr")
    assert 1.7 <= order <= 2.3


@pytest.mark.parametrize("probe", ["u", "ur_corr"])
@pytest.mark.parametrize("name", builtin_names())
def test_convergence_order_without_oracle_matches_the_oracle_order(name, probe):
    """The three-grid order of N, 2N and 4N agrees with the order measured
    against the exact end state (within 0.0066 at N = 100)."""
    s = make_builtin(name, steps=100)
    oracle_free = convergence_order(dataclasses.replace(s, u_oracle=None), probe)
    assert abs(oracle_free - convergence_order(s, probe)) <= 0.05


@pytest.mark.parametrize("oracle", [lambda elapsed, hbar: np.eye(2, dtype=complex), None],
                         ids=["oracle", "no-oracle"])
def test_convergence_order_not_measurable_for_zero_generator(oracle):
    """With h = 0 every end state is exactly I: against the oracle, or between
    the three grids, both differences are zero."""
    s = dynamics.Scenario(
        name="zero", grid=TimeGrid(0.0, 1.0, 50),
        theta=OperatorSchedule.constant_matrix(np.eye(2), (0, 1)),
        h=OperatorSchedule.constant_matrix(np.zeros((2, 2)), (0, 1)),
        initial_state=np.array([1.0, 0.0]),
        u_oracle=oracle)
    with pytest.raises(NotMeasurable):
        convergence_order(s, "u")


@pytest.mark.parametrize("entries", [None, 40 * 2 * 8 * 8], ids=["default blocks", "small blocks"])
def test_an_oracle_free_ur_corr_probe_roots_each_point_of_the_finest_half_grid_once(
        monkeypatch, sampled_pair_text, entries):
    """The N and 2N half grids are every 4th and 2nd point of the 4N one, so one
    oracle-free ur_corr probe hands 8N + 1 metric matrices to principal_sqrt,
    not (2N + 1) + (4N + 1) + (8N + 1)."""
    if entries is not None:
        monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", entries)
    s = scenario_io.parse_scenario(sampled_pair_text).with_steps(100)
    assert len(dynamics.grid_blocks(s.with_steps(400).grid, s.dim)) > 1
    rooted, root = [], linalg.principal_sqrt
    monkeypatch.setattr(linalg, "principal_sqrt", lambda a, *rest, **kw: (
        rooted.append(len(a)), root(a, *rest, **kw))[1])
    convergence_order(s, "ur_corr")
    assert sum(rooted) == 8 * 100 + 1


def _same_output():
    spec = importlib.util.spec_from_file_location(
        "same_output", Path(__file__).resolve().parents[1] / "scripts" / "same_output.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_refusal_names_the_coarsest_grid_that_refuses(monkeypatch):
    """The metric of this file is refused first at a half-time that only the
    4N grid has, in the first block of its one walk, and later, in another
    block, on every grid. The one walk meets the 4N-only point first, but the
    refusal is the N grid's, as if the grids were walked one at a time."""
    monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", 128 * 2 * 2 * 2)   # 128 steps a block
    doc = _same_output().metric_dips_off_the_coarse_grids(100)
    s = scenario_io.parse_scenario(json.dumps(doc)).with_fd_omega_dot()
    assert len(dynamics.grid_blocks(s.with_steps(400).grid, s.dim)) == 4
    with pytest.raises(ValidationError) as finest:
        dynamics.end_states(s.with_steps(400), "ur_corr")
    assert "at t=0.00625 " in str(finest.value)   # 5 / (8 N): first block, 4N grid only
    with pytest.raises(ValidationError) as coarsest:
        evolve(s)
    assert "at t=0.59 " in str(coarsest.value)
    with pytest.raises(ValidationError) as got:
        convergence_order(s, "ur_corr")
    assert str(got.value) == str(coarsest.value)


@pytest.mark.parametrize("probe, walk", [("u", "integrate_u"),
                                         ("ur_corr", "ur_from_corrected_generator")])
def test_a_finest_grid_of_too_many_steps_is_refused_before_any_walk(
        monkeypatch, sampled_pair_text, probe, walk):
    """An oracle-free order at 300 steps needs the grid of 1200: with at most
    1000 steps a grid, it is refused before the grids of 300 and 600 are walked."""
    monkeypatch.setattr(schedules, "MAX_STEPS", 1000)
    walked, orig = [], getattr(dynamics, walk)
    monkeypatch.setattr(dynamics, walk, lambda *a, **k: walked.append(1) or orig(*a, **k))
    s = scenario_io.parse_scenario(sampled_pair_text).with_steps(300)
    with pytest.raises(ValidationError, match=r"^bad time: need from 2 to 1000 steps, got 1200$"):
        convergence_order(s, probe)
    assert not walked


def _scenario(sampled_pair_text, which, fd_omega_dot):
    s = (scenario_io.parse_scenario(sampled_pair_text) if which == "sampled pair"
         else make_builtin(which, steps=300))
    return s.with_fd_omega_dot() if fd_omega_dot else s


@pytest.mark.parametrize("which, fd_omega_dot, key", [
    ("growing-metric-2d", False, "corrected_analytic"),
    ("growing-metric-2d", True, "corrected_fd"),
    ("sampled pair", False, "corrected_fd")])
def test_corrected_tolerance_follows_how_omega_dot_is_taken(sampled_pair_text, which,
                                                            fd_omega_dot, key):
    s = _scenario(sampled_pair_text, which, fd_omega_dot)
    assert s.fd_omega_dot == (key == "corrected_fd")
    if which == "sampled pair":   # omega is not analytic: omega_dot is a central difference
        assert s.with_fd_omega_dot() is s
    v = {v.name: v for v in verdicts(run_diagnostics(s), s)}["CORRECTED_GENERATOR_OK"]
    assert v.threshold == DEFAULT_TOLERANCES[key]


def _node_grid_motion(s):
    """The maximum ||omega^-1 omega_dot|| over all nodes, from one whole-grid evaluation."""
    os, ts = s.omega_schedule(), s.grid.times()
    rate = os.omega_inv(ts) @ os.on_block(_whole(s))[1][::2]
    return float(np.linalg.norm(rate, axis=(-2, -1)).max())


@pytest.mark.parametrize("which, fd_omega_dot", [
    ("growing-metric-2d", False), ("growing-metric-2d", True), ("sampled pair", False)])
def test_max_omega_motion_read_off_the_rows(sampled_pair_text, which, fd_omega_dot):
    s = _scenario(sampled_pair_text, which, fd_omega_dot)
    motion = verify.max_omega_motion(run_diagnostics(s))
    assert motion == pytest.approx(_node_grid_motion(s), rel=1e-12)
    assert motion > 0.1


def _two_pass_columns(s, res):
    """The CSV columns and the norm drift of s formed in two walks: the first
    stores u, U_R, theta, the reconstructed theta, H and G at every node, block
    by block from the public primitives, and the second takes every column from
    the stored series, forming its products with linalg.matmul as evolve does.
    The quasi-Hermiticity residual is evolve's record res."""
    grid = s.grid
    os = s.omega_schedule()
    shape = (grid.steps + 1, s.dim, s.dim)
    u, ur, theta, theta_recon, h_big_series, gen_series = (
        np.empty(shape, dtype=complex) for _ in range(6))
    u[0] = np.eye(s.dim)
    for blk in dynamics.grid_blocks(grid, s.dim):
        [ops] = dynamics.half_grid_operators(s, os, blk)
        nodes = slice(blk.first, blk.last + 1)
        if blk.first == 0:
            omega0 = ops.omega[0]
        theta[nodes] = s.theta(blk.times())
        u[nodes] = dynamics.integrate_u(ops.h, blk, s.hbar, u0=u[blk.first])
        ur[nodes] = dynamics.ur_from_definition(u[nodes], ops.omega_inv[::2], omega0)
        theta_recon[nodes] = dynamics.metric_from_ur(ur[nodes], theta[0], blk)
        h_big_series[nodes] = ops.h_big[::2]
        gen_series[nodes] = ops.gen[::2]
    states = np.einsum("kij,j->ki", ur, s.initial_state)
    norms = np.einsum("ki,kij,kj->k", states.conj(), theta, states).real
    drift = np.abs(norms / s.initial_norm(theta[0]) - 1.0)
    defect = linalg.fro_norms(linalg.matmul(linalg.dagger(u), u) - np.eye(s.dim))
    blocks = []
    for blk in dynamics.grid_blocks(grid, s.dim):
        k = slice(max(blk.first, 1), blk.last)
        lhs = (1j * s.hbar * (ur[k.start + 1:k.stop + 1] - ur[k.start - 1:k.stop - 1])
               / (2.0 * grid.spacing))
        blocks.append((
            grid.times()[k],
            defect[k],
            norms[k],
            linalg.fro_norms(lhs - linalg.matmul(h_big_series[k], ur[k])),
            linalg.fro_norms(lhs - linalg.matmul(gen_series[k], ur[k])),
            linalg.fro_norms(theta_recon[k] - theta[k]) / linalg.fro_norms(theta[k]),
            res.res_qh[k],
            drift[k],
        ))
    return [np.concatenate(c) for c in zip(*blocks)], ur


def _whole(s):
    """s's grid as one block."""
    return GridBlock(s.grid, 0, s.grid.steps)


def _whole_grid_gaps(s, ur):
    """||U_naive - U_R|| and ||U_corr - U_R|| at every node, U_naive and U_corr
    walked over the whole grid as one block."""
    [ops] = dynamics.half_grid_operators(s, s.omega_schedule(), _whole(s))
    return [linalg.fro_norms(walk(gen, s.grid, s.hbar) - ur)
            for walk, gen in ((dynamics.ur_from_naive_generator, ops.h_big),
                              (dynamics.ur_from_corrected_generator, ops.gen))]


def _growing(steps):
    """growing-metric-2d at hbar = 0.7: a spacing and an hbar that are not powers
    of two, so a reordered central difference moves the last digits of the columns."""
    return dataclasses.replace(make_builtin("growing-metric-2d", steps=steps), hbar=0.7)


def _growing_direct():
    """_growing in direct mode: H = omega^-1 sigma_x omega, given in closed form."""
    s = _growing(500)

    def h_big(ts):
        r = np.sqrt(1.0 + ts * ts)
        out = np.zeros((ts.size, 2, 2), dtype=complex)
        out[:, 0, 1], out[:, 1, 0] = r, 1.0 / r
        return out

    sched = OperatorSchedule(2, (0.0, 1.0), h_big, None)
    return dataclasses.replace(s, name="growing-direct", h=None, h_big=sched)


@pytest.mark.parametrize("which", ["growing-metric-2d", "direct", "sampled pair"])
def test_one_pass_columns_match_the_two_pass_rows(sampled_pair_text, which):
    s = {"growing-metric-2d": lambda: _growing(300),
         "direct": _growing_direct,
         "sampled pair": lambda: scenario_io.parse_scenario(sampled_pair_text)}[which]()
    if which == "sampled pair":
        assert len(dynamics.grid_blocks(s.grid, s.dim)) == 4
    res = dynamics.evolve(s)
    d = verify.diagnostics_from_result(res)
    columns, ur = _two_pass_columns(s, res)
    assert all(map(np.array_equal, d[:8], columns))
    # a stacked matmul may round a longer stack differently: the walks agree to rounding
    for gap, whole in zip((res.gap_naive, res.gap_corrected), _whole_grid_gaps(s, ur)):
        assert np.allclose(gap, whole, rtol=0.0, atol=100 * np.finfo(float).eps)
    assert verify.max_omega_motion(d) > 0.1   # the metric moves in every case


# --- a rotating frame: a closed-form oracle beyond the 2-D sigma_x family ---

def _expm_stack(a, c, ts):
    """exp(c t a) at each time of ts for a Hermitian a, through eigh."""
    w, v = np.linalg.eigh(a)
    return (v * np.exp(c * np.multiply.outer(ts, w))[:, None, :]) @ v.conj().T


def _rotating_frame(d, steps, seed=0):
    """h(t) = e^{-iKt/hbar} h0 e^{iKt/hbar}, whose propagator is exactly
    u(t) = e^{-iKt/hbar} e^{-i(h0 - K)t/hbar}, under the moving metric
    theta = e^{2tS}: omega = e^{tS}, omega_dot = S omega, omega^-1 = e^{-tS}."""
    rng = np.random.default_rng(seed)

    def hermitian(scale):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        return scale * (a + a.conj().T) / (2.0 * np.sqrt(d))

    h0, k, sm = hermitian(1.0), hermitian(1.0), hermitian(0.5)
    span, hbar = (0.0, 1.0), 1.0

    def h(ts):
        e = _expm_stack(k, -1j / hbar, ts)
        return e @ h0 @ linalg.dagger(e)

    def h_dot(ts):
        m = h(ts)
        return (-1j / hbar) * (k @ m - m @ k)

    def u_oracle(elapsed, hb):
        t = np.array([elapsed])
        return (_expm_stack(k, -1j / hb, t) @ _expm_stack(h0 - k, -1j / hb, t))[0]

    return dynamics.Scenario(
        name=f"rotating-frame-{d}d", grid=TimeGrid(*span, steps),
        theta=OperatorSchedule(d, span, lambda ts: _expm_stack(sm, 2.0, ts),
                               lambda ts: 2.0 * sm @ _expm_stack(sm, 2.0, ts)),
        h=OperatorSchedule(d, span, h, h_dot), initial_state=np.eye(d)[0], hbar=hbar,
        omega_analytic=(lambda ts: _expm_stack(sm, 1.0, ts),
                        lambda ts: sm @ _expm_stack(sm, 1.0, ts),
                        lambda ts: _expm_stack(sm, -1.0, ts)),
        u_oracle=u_oracle)


@pytest.mark.parametrize("d", [3, 4, 6])
def test_rotating_frame_passes_every_verdict_under_a_moving_metric(d):
    """res_corrected is the O(dt^2) floor of a central difference: at N = 2000
    some draws of these unit-scale operators reach 1.1e-6, over corrected_analytic;
    at N = 4000 ten draws stay below 3.1e-7."""
    s = _rotating_frame(d, 4000)
    diag = run_diagnostics(s)
    assert verify.max_omega_motion(diag) >= s.tol("omega_motion")
    vs = verdicts(diag, s)
    assert [v.name for v in vs if not v.passed] == []
    naive = vs[-1]
    assert naive.sense == ">=" and naive.observed > 0.5


@pytest.mark.parametrize("d", [3, 4, 6])
def test_rotating_frame_convergence_orders_against_its_oracle(d):
    """At N = 60 the u errors stay above convergence_order's rounding floor."""
    s = _rotating_frame(d, 60)
    assert 3.7 <= convergence_order(s, "u") <= 4.3
    assert 1.7 <= convergence_order(s, "ur_corr") <= 2.3


def _observable_defect(s):
    """max over the half grid of ||theta G - G^dag theta + i hbar theta_dot||_F
    / ||theta G||_F: G is not theta-quasi-Hermitian, and misses it by -i hbar theta_dot."""
    ts = s.grid.half_times()
    theta, theta_dot = s.theta(ts), s.theta.derivative(ts)
    [ops] = dynamics.half_grid_operators(s, s.omega_schedule(), _whole(s))
    gen = ops.gen
    tg = theta @ gen
    defect = tg - linalg.dagger(gen) @ theta + 1j * s.hbar * theta_dot
    return float((np.linalg.norm(defect, axis=(1, 2)) / np.linalg.norm(tg, axis=(1, 2))).max())


@pytest.mark.parametrize("hbar", [1.0, 0.7])
@pytest.mark.parametrize("name", builtin_names())
def test_corrected_generator_is_not_an_observable_builtins(name, hbar):
    """theta G - G^dag theta = -i hbar theta_dot: G = H - i hbar omega^-1 omega_dot
    generates the unitary U_R, but it is quasi-Hermitian only where the metric
    stands still (at most 4.1e-16 at N = 200)."""
    assert _observable_defect(make_builtin(name, steps=200, hbar=hbar)) <= 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [3, 4, 6])
def test_corrected_generator_is_not_an_observable_rotating_frame(d, seed):
    """The same identity under the rotating frame's moving metric (at most 3.1e-15 at N = 200)."""
    assert _observable_defect(_rotating_frame(d, 200, seed)) <= 1e-13


@pytest.mark.parametrize("which", builtin_names() + ["rotating-frame-3d"])
def test_the_small_matrix_product_moves_every_column_by_rounding_only(monkeypatch, which):
    """Every column of a d <= SMALL_DIM run, with its products as rank-one
    updates and with every product np.matmul's (SMALL_DIM = 0), agrees within
    1e-14 absolute, and every verdict passes or fails alike. The central
    differences res_naive and res_corrected divide a change of U_R by
    2 dt / hbar: they agree within 1e-14 hbar / (2 dt). (At N = 2000, with
    hbar / (2 dt) = 1000, they moved by at most 6.3e-13 and every other column
    by at most 1.6e-15.) The rotating frame's draw fails CORRECTED_GENERATOR_OK
    both ways."""
    s = _rotating_frame(3, 2000, seed=2) if which == "rotating-frame-3d" else make_builtin(which)
    assert s.dim <= linalg.SMALL_DIM
    rank_one = evolve(s)
    monkeypatch.setattr(linalg, "SMALL_DIM", 0)
    blas = evolve(s)
    # the two are not the same product
    assert not all(np.array_equal(x, y, equal_nan=True) for x, y in zip(rank_one, blas))
    wide = {"res_naive", "res_corrected"}
    for name, x, y in zip(rank_one._fields, rank_one, blas):
        bound = 1e-14 * (s.hbar / (2.0 * s.grid.spacing) if name in wide else 1.0)
        assert np.array_equal(np.isnan(x), np.isnan(y)), name
        assert np.nanmax(np.abs(x - y), initial=0.0) <= bound, name
    passed = [[v.passed for v in verdicts(verify.diagnostics_from_result(r), s)]
              for r in (rank_one, blas)]
    assert passed[0] == passed[1]
    assert (which == "rotating-frame-3d") == (not all(passed[0]))
