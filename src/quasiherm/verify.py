"""Diagnostics rows, pass/fail verdicts and convergence-order checks.

Pointwise residuals compare the central time difference of the
definition-based auxiliary propagator against the naive generator H and
against the corrected generator H - i hbar omega^-1 omega_dot. The
naive residual converges (as the grid is refined) to a strictly positive
value whenever the metric moves; the corrected one shrinks like the
square of the spacing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .dynamics import (EvolutionResult, Scenario, evolve, grid_blocks,
                       half_grid_operators, integrate_u,
                       ur_from_corrected_generator)
from .errors import NotMeasurable, ValidationError

REFERENCE_REFINEMENT = 8  # resolution multiplier for oracle-free convergence runs


class DiagnosticsRow(NamedTuple):
    """One interior grid node. A named tuple, because a run builds one per node
    and a frozen dataclass is several times slower to construct."""
    t: float
    unitarity_defect: float
    norm_phys: float
    res_naive: float
    res_corrected: float
    res_metric: float
    res_qh: float
    omega_motion: float    # not a CSV column: max ||omega^-1 omega_dot|| over t_{k-1..k+1}


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    observed: float
    threshold: float
    sense: str = "<="   # ">=" for must-exceed checks


def diagnostics_from_result(res: EvolutionResult) -> list[DiagnosticsRow]:
    """One row per interior grid node."""
    s = res.scenario
    rows = []
    for blk in grid_blocks(res.grid, s.dim):   # bounds the temporaries
        k = slice(max(blk.first, 1), blk.last)
        ur = res.ur_series[k]
        lhs = (1j * s.hbar * (res.ur_series[k.start + 1:k.stop + 1]
                              - res.ur_series[k.start - 1:k.stop - 1])
               / (2.0 * res.grid.spacing))
        h_big, theta, motion = res.h_big_series[k], res.theta_series[k], res.omega_motion
        columns = (
            res.grid.times()[k],
            res.unitarity_defect[k],
            res.norms_phys[k],
            linalg.fro_norms(lhs - h_big @ ur),
            linalg.fro_norms(lhs - res.gen_series[k] @ ur),
            linalg.fro_norms(res.theta_recon[k] - theta) / linalg.fro_norms(theta),
            res.qh_residual[k],
            np.maximum(np.maximum(motion[k.start - 1:k.stop - 1], motion[k]),
                       motion[k.start + 1:k.stop + 1]),
        )
        rows += map(DiagnosticsRow._make, zip(*(c.tolist() for c in columns)))
    return rows


def run_diagnostics(s: Scenario, fd_omega_dot: bool = False) -> list[DiagnosticsRow]:
    return diagnostics_from_result(evolve(s, fd_omega_dot))


def max_omega_motion(rows: list[DiagnosticsRow]) -> float:
    """Largest ||omega^-1 omega_dot|| over all grid nodes: the rows' central
    differences reach from the first node to the last."""
    return max(r.omega_motion for r in rows)


def verdicts(rows: list[DiagnosticsRow], s: Scenario,
             fd_omega_dot: bool = False) -> list[Verdict]:
    if not rows:
        raise ValueError("empty diagnostics")

    phi0 = s.initial_state
    theta0 = np.asarray(s.theta(s.grid.t_start), dtype=complex)
    norm0 = float((phi0.conj() @ theta0 @ phi0).real)
    if not norm0 > 0.0:   # <phi0|theta|phi0> underflows: no drift can be measured
        raise ValidationError(f"initial_state has physical norm {norm0:g}, "
                              "too small to measure a drift against")
    drift = max(abs(r.norm_phys / norm0 - 1.0) for r in rows)

    max_metric = max(r.res_metric for r in rows)
    max_qh = max(r.res_qh for r in rows)
    max_corr = max(r.res_corrected for r in rows)
    max_naive = max(r.res_naive for r in rows)

    corr_key = "corrected_fd" if fd_omega_dot or s.omega_analytic is None else "corrected_analytic"

    out = [
        Verdict("NORM_CONSERVED", drift <= s.tol("norm_drift"), drift, s.tol("norm_drift")),
        Verdict("METRIC_RECONSTRUCTED", max_metric <= s.tol("metric_recon"),
                max_metric, s.tol("metric_recon")),
        Verdict("QH_HOLDS", max_qh <= s.tol("qh"), max_qh, s.tol("qh")),
        Verdict("CORRECTED_GENERATOR_OK", max_corr <= s.tol(corr_key),
                max_corr, s.tol(corr_key)),
    ]
    motion = max_omega_motion(rows)
    if motion >= s.tol("omega_motion"):
        out.append(Verdict("NAIVE_FAILS_IFF_METRIC_MOVES",
                           max_naive >= s.tol("naive_floor"),
                           max_naive, s.tol("naive_floor"), sense=">="))
    else:
        out.append(Verdict("NAIVE_FAILS_IFF_METRIC_MOVES",
                           max_naive <= s.tol("naive_quiet"),
                           max_naive, s.tol("naive_quiet")))
    return out


def _end_state(s: Scenario, steps: int, probe: str, fd_omega_dot: bool) -> np.ndarray:
    if probe not in ("u", "ur_corr"):
        raise ValueError(f"unknown probe {probe!r}")
    s2 = s.with_steps(steps)
    os = s2.omega_schedule(fd_omega_dot)
    end = None
    for blk in grid_blocks(s2.grid, s2.dim):
        ts = blk.half_times()
        if probe == "u":
            h = s2.h(ts) if s2.h is not None else half_grid_operators(s2, os, ts).h
            end = integrate_u(h, blk, s2.hbar, s2.tol("eps_herm"), u0=end)[-1]
        else:
            gen = half_grid_operators(s2, os, ts).gen
            end = ur_from_corrected_generator(gen, blk, s2.hbar, u0=end)[-1]
    return end


def _oracle_end(s: Scenario, probe: str) -> np.ndarray:
    elapsed = s.grid.t_end - s.grid.t_start
    u_end = np.asarray(s.u_oracle(elapsed, s.hbar), dtype=complex)
    if probe == "u":
        return u_end
    os = s.omega_schedule()
    # the definition evaluated with the exact u
    return os.omega_inv(s.grid.t_end) @ u_end @ os.omega(s.grid.t_start)


def convergence_order(s: Scenario, probe: str = "u",
                      fd_omega_dot: bool | None = None) -> float:
    """log2 error ratio between runs at N and 2N steps.

    Expected ~4 for the RK4-integrated u; ~2 for the corrected auxiliary
    propagator when omega_dot comes from central differences (their step
    shrinks with the grid and dominates the error).
    """
    if fd_omega_dot is None:
        fd_omega_dot = probe == "ur_corr"
    n = s.grid.steps
    if s.u_oracle is not None:
        ref = _oracle_end(s, probe)
    else:
        ref = _end_state(s, REFERENCE_REFINEMENT * 2 * n, probe, fd_omega_dot)
    err_n = linalg.fro_norm(_end_state(s, n, probe, fd_omega_dot) - ref)
    err_2n = linalg.fro_norm(_end_state(s, 2 * n, probe, fd_omega_dot) - ref)
    floor = 1e-13 * max(1.0, linalg.fro_norm(ref))
    if err_n < floor or err_2n < floor:
        raise NotMeasurable(
            f"errors at or below rounding level (err_N={err_n:.3e}, err_2N={err_2n:.3e})")
    return float(np.log2(err_n / err_2n))
