import dataclasses

import numpy as np
import pytest

from quasiherm import dynamics, linalg, make_builtin, scenario_io, verify
from quasiherm.dynamics import DEFAULT_TOLERANCES
from quasiherm.errors import NotMeasurable
from quasiherm.models import SIGMA_X
from quasiherm.schedules import OperatorSchedule
from quasiherm.verify import convergence_order, run_diagnostics, verdicts


def test_rows_cover_interior_nodes(growing, growing_rows):
    assert len(growing_rows) == growing.grid.steps - 1
    dt = growing.grid.spacing
    assert growing_rows[0].t == pytest.approx(dt)
    assert growing_rows[-1].t == pytest.approx(1.0 - dt)


def test_rows_all_finite_nonnegative(growing_rows):
    for r in growing_rows:
        for f in ("unitarity_defect", "res_naive", "res_corrected",
                  "res_metric", "res_qh"):
            v = getattr(r, f)
            assert np.isfinite(v) and v >= 0.0
        assert r.norm_phys > 0.0


def test_constant_metric_both_residuals_small(builtin_rows):
    _, rows = builtin_rows["constant-metric-2d"]
    assert max(r.res_naive for r in rows) <= 1e-6
    assert max(r.res_corrected for r in rows) <= 1e-6


def test_growing_metric_naive_residual_closed_form(growing_rows):
    # hbar * |omega^-1 omega_dot U_R| = t / (1 + t^2)^{3/2} at the last
    # interior node, 0.5/sqrt(2) at t=1
    last = growing_rows[-1]
    assert last.res_naive == pytest.approx(0.5 / np.sqrt(2.0), rel=0.02)
    t_peak = 1.0 / np.sqrt(2.0)
    peak = max(r.res_naive for r in growing_rows)
    assert peak == pytest.approx(t_peak / (1 + t_peak ** 2) ** 1.5, rel=0.01)


def test_growing_metric_qh_residual_tiny(growing_rows):
    assert max(r.res_qh for r in growing_rows) <= 1e-11


def test_naive_residual_stable_under_refinement(growing_rows, growing_rows_4000):
    assert abs(growing_rows[-1].res_naive - growing_rows_4000[-1].res_naive) <= 1e-3


def test_verdict_set(builtin_rows):
    for name, (s, rows) in builtin_rows.items():
        vs = verdicts(rows, s)
        assert [v.name for v in vs] == [
            "NORM_CONSERVED", "METRIC_RECONSTRUCTED", "QH_HOLDS",
            "CORRECTED_GENERATOR_OK", "NAIVE_FAILS_IFF_METRIC_MOVES"]
        assert all(v.passed for v in vs), f"{name}: {vs}"


def test_naive_verdict_sense(builtin_rows):
    _, rows = builtin_rows["growing-metric-2d"]
    s, _ = builtin_rows["growing-metric-2d"]
    v = verdicts(rows, s)[-1]
    assert v.sense == ">=" and v.observed >= v.threshold
    s2, rows2 = builtin_rows["constant-metric-2d"]
    v2 = verdicts(rows2, s2)[-1]
    assert v2.sense == "<=" and v2.observed <= v2.threshold


def test_verdicts_reject_empty(growing):
    with pytest.raises(ValueError):
        verdicts([], growing)


def test_verdict_monotone_under_refinement(builtin_rows, growing_rows_4000):
    s, _ = builtin_rows["growing-metric-2d"]
    fine = make_builtin("growing-metric-2d", steps=4000)
    vs = verdicts(growing_rows_4000, fine)
    for v in vs[:4]:
        assert v.passed


def test_diagnostics_deterministic():
    s = make_builtin("growing-metric-2d", steps=300)
    assert run_diagnostics(s) == run_diagnostics(make_builtin("growing-metric-2d", steps=300))


def test_convergence_order_u():
    order = convergence_order(make_builtin("growing-metric-2d", steps=250), "u")
    assert 3.7 <= order <= 4.3


def test_convergence_order_ur_corr_fd():
    order = convergence_order(make_builtin("growing-metric-2d", steps=250), "ur_corr")
    assert 1.7 <= order <= 2.3


def test_convergence_order_without_oracle_uses_reference():
    s = make_builtin("growing-metric-2d", steps=100)
    s.u_oracle = None
    order = convergence_order(s, "u")
    assert 3.5 <= order <= 4.5


def test_convergence_order_not_measurable_for_zero_generator():
    from quasiherm import dynamics
    from quasiherm.schedules import OperatorSchedule, TimeGrid
    s = dynamics.Scenario(
        name="zero", dim=2, grid=TimeGrid(0.0, 1.0, 50),
        theta=OperatorSchedule.constant_matrix(np.eye(2), (0, 1)),
        h=OperatorSchedule.constant_matrix(np.zeros((2, 2)), (0, 1)),
        initial_state=np.array([1.0, 0.0]),
        u_oracle=lambda elapsed, hbar: np.eye(2, dtype=complex))
    with pytest.raises(NotMeasurable):
        convergence_order(s, "u")


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
    if which == "sampled pair":   # omega is not analytic: omega_dot is a central difference
        assert s.with_fd_omega_dot() is s
    v = {v.name: v for v in verdicts(run_diagnostics(s), s)}["CORRECTED_GENERATOR_OK"]
    assert v.threshold == DEFAULT_TOLERANCES[key]


def _node_grid_motion(s):
    """The maximum ||omega^-1 omega_dot|| over all nodes, from one node-grid evaluation."""
    os, ts = s.omega_schedule(), s.grid.times()
    rate = os.omega_inv(ts) @ os.omega_dot(ts)
    return float(np.linalg.norm(rate, axis=(-2, -1)).max())


@pytest.mark.parametrize("which, fd_omega_dot", [
    ("growing-metric-2d", False), ("growing-metric-2d", True), ("sampled pair", False)])
def test_max_omega_motion_read_off_the_rows(sampled_pair_text, which, fd_omega_dot):
    s = _scenario(sampled_pair_text, which, fd_omega_dot)
    rows = run_diagnostics(s)
    motion = verify.max_omega_motion(rows)
    assert motion == pytest.approx(_node_grid_motion(s), rel=1e-12)
    assert motion > 0.1


def _two_pass_rows(res):
    """The rows formed in two walks: the first stores H and G at every node,
    block by block, and the second takes the residuals from the stored series."""
    s, grid = res.scenario, res.grid
    os = s.omega_schedule()
    h_big_series = np.empty_like(res.ur_series)
    gen_series = np.empty_like(res.ur_series)
    for blk in dynamics.grid_blocks(grid, s.dim):
        ops = dynamics.half_grid_operators(s, os, blk.half_times())
        nodes = slice(blk.first, blk.last + 1)
        h_big_series[nodes] = ops.h_big[::2]
        gen_series[nodes] = ops.gen[::2]
    rows = []
    for blk in dynamics.grid_blocks(grid, s.dim):
        k = slice(max(blk.first, 1), blk.last)
        ur = res.ur_series[k]
        lhs = (1j * s.hbar * (res.ur_series[k.start + 1:k.stop + 1]
                              - res.ur_series[k.start - 1:k.stop - 1])
               / (2.0 * grid.spacing))
        h_big, theta, motion = h_big_series[k], res.theta_series[k], res.omega_motion
        columns = (
            grid.times()[k],
            res.unitarity_defect[k],
            res.norms_phys[k],
            linalg.fro_norms(lhs - h_big @ ur),
            linalg.fro_norms(lhs - gen_series[k] @ ur),
            linalg.fro_norms(res.theta_recon[k] - theta) / linalg.fro_norms(theta),
            res.qh_residual[k],
            np.maximum(np.maximum(motion[k.start - 1:k.stop - 1], motion[k]),
                       motion[k.start + 1:k.stop + 1]),
        )
        rows += map(verify.DiagnosticsRow._make, zip(*(c.tolist() for c in columns)))
    return rows


def _growing(steps):
    """growing-metric-2d at hbar = 0.7: a spacing and an hbar that are not powers
    of two, so a reordered central difference moves the last digits of the rows."""
    return dataclasses.replace(make_builtin("growing-metric-2d", steps=steps), hbar=0.7)


def _growing_direct():
    """_growing in direct mode: H = omega^-1 sigma_x omega, given in closed form."""
    s = _growing(500)

    def h_big(ts):
        r = np.sqrt(1.0 + ts * ts)
        out = np.zeros((ts.size, 2, 2), dtype=complex)
        out[:, 0, 1], out[:, 1, 0] = r, 1.0 / r
        return out

    sched = OperatorSchedule.closed_form(2, (0.0, 1.0), h_big, None, label="H")
    return dataclasses.replace(s, name="growing-direct", h=None, h_big=sched)


@pytest.mark.parametrize("which", ["growing-metric-2d", "direct", "sampled pair"])
def test_one_pass_columns_match_the_two_pass_rows(sampled_pair_text, which):
    s = {"growing-metric-2d": lambda: _growing(300),
         "direct": _growing_direct,
         "sampled pair": lambda: scenario_io.parse_scenario(sampled_pair_text)}[which]()
    if which == "sampled pair":
        assert len(dynamics.grid_blocks(s.grid, s.dim)) == 3
    res = dynamics.evolve(s)
    rows = verify.diagnostics_from_result(res)
    assert rows == _two_pass_rows(res)
    assert verify.max_omega_motion(rows) > 0.1   # the metric moves in every case
