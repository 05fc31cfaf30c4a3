"""Diagnostics columns, pass/fail verdicts and convergence-order checks.

evolve forms every per-node column; this module cuts them to the interior
nodes and judges them. convergence_order reads the end states of the N, 2N
and (without an oracle) 4N grids from dynamics.end_states, one walk of the
finest grid that admits its blocks as evolve does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .dynamics import EvolutionResult, Scenario, end_states, evolve
from .errors import NotMeasurable


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


def norm_drift(d: Diagnostics, s: Scenario) -> np.ndarray:
    """|norm_phys / <phi0|theta(t0)|phi0> - 1| at each interior node of s's run d."""
    norm0 = s.initial_norm(s.theta(s.grid.times()[:1])[0])   # evolve refused a bad one
    return np.abs(d.norm_phys / norm0 - 1.0)


def verdicts(d: Diagnostics, s: Scenario) -> list[Verdict]:
    """Judge each column by its largest entry; a nan anywhere in a column is
    its maximum, so the verdict that reads it fails with observed = nan."""
    drift = float(norm_drift(d, s).max())
    max_metric, max_qh, max_corr, max_naive = (
        float(c.max()) for c in (d.res_metric, d.res_qh, d.res_corrected, d.res_naive))

    corr_key = "corrected_fd" if s.fd_omega_dot else "corrected_analytic"
    out = [Verdict(name, x <= s.tol(k), x, s.tol(k)) for name, x, k in (
        ("NORM_CONSERVED", drift, "norm_drift"),
        ("METRIC_RECONSTRUCTED", max_metric, "metric_recon"),
        ("QH_HOLDS", max_qh, "qh"),
        ("CORRECTED_GENERATOR_OK", max_corr, corr_key))]
    moving = not max_omega_motion(d) < s.tol("omega_motion")   # a nan motion counts as moving
    key = "naive_floor" if moving else "naive_quiet"
    passed = max_naive >= s.tol(key) if moving else max_naive <= s.tol(key)
    return out + [Verdict("NAIVE_FAILS_IFF_METRIC_MOVES", passed, max_naive, s.tol(key),
                          ">=" if moving else "<=")]


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
    oracle = s.u_oracle is not None
    ends = end_states(s, probe, 2 if oracle else 3)   # a refusal names the N grid first
    if oracle:
        ref = _oracle_end(s, probe)
        err_n, err_2n = (linalg.fro_norm(e - ref) for e in ends)
    else:
        ref = ends[2]
        err_n, err_2n = linalg.fro_norm(ends[0] - ends[1]), linalg.fro_norm(ends[1] - ref)
    floor = 1e-13 * max(1.0, linalg.fro_norm(ref))
    if err_n < floor or err_2n < floor:
        raise NotMeasurable(
            f"errors at or below rounding level (err_N={err_n:.3e}, err_2N={err_2n:.3e})")
    return float(np.log2(err_n / err_2n))
