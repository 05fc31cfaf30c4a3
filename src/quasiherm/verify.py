"""Diagnostics columns, pass/fail verdicts and convergence-order checks.

evolve fills the one record of a run, dynamics.Diagnostics (re-exported
here); this module cuts its columns to the interior nodes and judges each
by its maximum, with no matrix arithmetic. convergence_order reads the end
states of the N, 2N and (without an oracle) 4N grids from
dynamics.end_states, one walk of the finest grid that admits its blocks as
evolve does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .dynamics import Diagnostics, Scenario, end_states, evolve
from .errors import NotMeasurable


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    observed: float
    threshold: float
    sense: str = "<="   # ">=" for must-exceed checks


def diagnostics_from_result(res: Diagnostics) -> Diagnostics:
    """evolve's report cut to the interior nodes, as views; omega_motion keeps
    every node."""
    return Diagnostics(*(c[1:-1] for c in res))._replace(omega_motion=res.omega_motion)


def run_diagnostics(s: Scenario) -> Diagnostics:
    return diagnostics_from_result(evolve(s))


def max_omega_motion(d: Diagnostics) -> float:
    """Largest ||omega^-1 omega_dot|| over all grid nodes; nan if any is nan."""
    return float(d.omega_motion.max())


def verdicts(d: Diagnostics, s: Scenario) -> list[Verdict]:
    """Judge each column by its largest entry; a nan anywhere in a column is
    its maximum, so the verdict that reads it fails with observed = nan."""
    drift, max_metric, max_qh, max_corr, max_naive = (float(c.max()) for c in (
        d.norm_drift, d.res_metric, d.res_qh, d.res_corrected, d.res_naive))

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
    return os.omega_inv(ts[-1:])[0] @ u_end @ os.omega(ts[:1])[0][0]


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
