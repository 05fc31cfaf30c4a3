"""Diagnostics columns, pass/fail verdicts and convergence-order checks.

evolve forms every per-node column; this module cuts them to the interior
nodes and judges them. convergence_order admits its walks as evolve does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .dynamics import (EvolutionResult, Scenario, admit_h, evolve, grid_blocks,
                       integrate_u, ur_from_corrected_generator, validate_scenario)
from .errors import NotMeasurable, ValidationError


class Diagnostics(NamedTuple):
    """The report columns of one run, one entry per interior grid node."""
    t: np.ndarray
    unitarity_defect: np.ndarray
    norm_phys: np.ndarray
    res_naive: np.ndarray
    res_corrected: np.ndarray
    res_metric: np.ndarray
    res_qh: np.ndarray
    omega_motion: np.ndarray   # not a CSV column: ||omega^-1 omega_dot|| at every node, ends included


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    observed: float
    threshold: float
    sense: str = "<="   # ">=" for must-exceed checks


def diagnostics_from_result(res: EvolutionResult) -> Diagnostics:
    """The columns evolve formed, as views cut to the interior nodes; omega_motion
    keeps every node."""
    k = slice(1, res.scenario.grid.steps)
    return Diagnostics(res.scenario.grid.times()[k], res.unitarity_defect[k],
                       res.norms_phys[k], res.res_naive[k], res.res_corrected[k],
                       res.res_metric[k], res.qh_residual[k], res.omega_motion)


def run_diagnostics(s: Scenario) -> Diagnostics:
    return diagnostics_from_result(evolve(s))


def max_omega_motion(d: Diagnostics) -> float:
    """Largest ||omega^-1 omega_dot|| over all grid nodes; nan if any is nan."""
    return float(d.omega_motion.max())


def verdicts(d: Diagnostics, s: Scenario) -> list[Verdict]:
    """Judge each column by its largest entry; a nan anywhere in a column is
    its maximum, so the verdict that reads it fails with observed = nan."""
    phi0 = s.initial_state
    theta0 = s.theta(s.grid.times()[:1])[0]
    with np.errstate(over="ignore", invalid="ignore"):
        norm0 = float((phi0.conj() @ theta0 @ phi0).real)
    if not 0.0 < norm0 < np.inf:   # <phi0|theta|phi0> underflows, or overflows to inf or nan
        size = "small" if norm0 <= 0.0 else "large"
        raise ValidationError(f"initial_state has physical norm {norm0:g}, "
                              f"too {size} to measure a drift against")
    drift = float(np.abs(d.norm_phys / norm0 - 1.0).max())
    max_metric, max_qh, max_corr, max_naive = (
        float(c.max()) for c in (d.res_metric, d.res_qh, d.res_corrected, d.res_naive))

    corr_key = "corrected_fd" if s.fd_omega_dot else "corrected_analytic"

    out = [
        Verdict("NORM_CONSERVED", drift <= s.tol("norm_drift"), drift, s.tol("norm_drift")),
        Verdict("METRIC_RECONSTRUCTED", max_metric <= s.tol("metric_recon"),
                max_metric, s.tol("metric_recon")),
        Verdict("QH_HOLDS", max_qh <= s.tol("qh"), max_qh, s.tol("qh")),
        Verdict("CORRECTED_GENERATOR_OK", max_corr <= s.tol(corr_key),
                max_corr, s.tol(corr_key)),
    ]
    # a nan motion is not evidence of a static metric: it takes the moving branch
    if not max_omega_motion(d) < s.tol("omega_motion"):
        out.append(Verdict("NAIVE_FAILS_IFF_METRIC_MOVES",
                           max_naive >= s.tol("naive_floor"),
                           max_naive, s.tol("naive_floor"), sense=">="))
    else:
        out.append(Verdict("NAIVE_FAILS_IFF_METRIC_MOVES",
                           max_naive <= s.tol("naive_quiet"),
                           max_naive, s.tol("naive_quiet")))
    return out


def _end_state(s: Scenario, steps: int, probe: str) -> np.ndarray:
    """The probe's propagator at the end of s's span over steps steps, each block
    admitted as evolve admits it; a pair's u probe reads h alone, no metric root."""
    if probe not in ("u", "ur_corr"):
        raise ValueError(f"unknown probe {probe!r}")
    s2 = s.with_steps(steps)
    os = s2.omega_schedule()
    end = None
    walk, stack = ((ur_from_corrected_generator, "gen") if probe == "ur_corr"
                   else (integrate_u, "h"))
    for blk in grid_blocks(s2.grid, s2.dim):
        if probe == "u" and s2.kind == "pair":
            m = s2.h(blk.half_times())
            admit_h(s2, m, blk)
        else:   # only the walked stack outlives the admission, not all six
            ops, _ = validate_scenario(s2, os, blk)
            m = getattr(ops, stack)
            del ops
        end = walk(m, blk, s2.hbar, end)[-1]
    return end


def _oracle_end(s: Scenario, probe: str) -> np.ndarray:
    elapsed = s.grid.t_end - s.grid.t_start
    u_end = np.asarray(s.u_oracle(elapsed, s.hbar), dtype=complex)
    if probe == "u":
        return u_end
    os, ts = s.omega_schedule(), s.grid.times()
    # the definition evaluated with the exact u
    return os.omega_inv(ts[-1:])[0] @ u_end @ os.omega(ts[:1])[0]


def convergence_order(s: Scenario, probe: str = "u") -> float:
    """Observed order of the probe's end state from runs at N, 2N and 4N steps.

    log2(err_N / err_2N) against s.u_oracle's exact end state (no 4N run), or
    without an oracle log2(||E_N - E_2N|| / ||E_2N - E_4N||) (Roache 1998).
    Expected ~4 for the RK4-integrated u. The ur_corr probe takes omega_dot from
    central differences (s.with_fd_omega_dot()), whose error dominates: ~2.
    """
    s = s.with_fd_omega_dot() if probe == "ur_corr" else s
    n = s.grid.steps
    end_n = _end_state(s, n, probe)   # first: a refusal names the grid that was asked for
    end_2n = _end_state(s, 2 * n, probe)
    if s.u_oracle is not None:
        ref = _oracle_end(s, probe)
        err_n, err_2n = linalg.fro_norm(end_n - ref), linalg.fro_norm(end_2n - ref)
    else:
        ref = _end_state(s, 4 * n, probe)
        err_n, err_2n = linalg.fro_norm(end_n - end_2n), linalg.fro_norm(end_2n - ref)
    floor = 1e-13 * max(1.0, linalg.fro_norm(ref))
    if err_n < floor or err_2n < floor:
        raise NotMeasurable(
            f"errors at or below rounding level (err_N={err_n:.3e}, err_2N={err_2n:.3e})")
    return float(np.log2(err_n / err_2n))
