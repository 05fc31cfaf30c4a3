"""Acceptance gate: one test per criterion, each printing a pass/fail line."""

import time

import numpy as np
import pytest

from quasiherm import cli, dynamics, linalg, make_builtin, spaces, verify


def report(name, passed, detail=""):
    status = "pass" if passed else "FAIL"
    print(f"ACCEPTANCE {status}: {name} {detail}")
    assert passed, f"{name}: {detail}"


def test_01_unitarity_with_moving_metric():
    s = make_builtin("growing-metric-2d")  # N=2000, phi0=(1,0)
    t0 = time.perf_counter()
    d = verify.run_diagnostics(s)
    elapsed = time.perf_counter() - t0
    norm0 = float((s.initial_state.conj()
                   @ s.theta(np.array([0.0]))[0] @ s.initial_state).real)
    drift = float(np.abs(d.norm_phys / norm0 - 1.0).max())
    report("norm conserved with moving metric",
           drift <= 1e-8 and elapsed < 1.0,
           f"(drift={drift:.3e}, runtime={elapsed:.2f}s)")


def test_02_naive_generator_refuted(growing_diag, growing_diag_4000):
    closed_form = 0.5 / np.sqrt(2.0)
    at_end = growing_diag.res_naive[-1]
    stable = abs(at_end - growing_diag_4000.res_naive[-1])
    d_fd = verify.run_diagnostics(make_builtin("growing-metric-2d").with_fd_omega_dot())
    corr = d_fd.res_corrected.max()
    ok = (abs(at_end - closed_form) <= 0.02 * closed_form
          and stable <= 1e-3 and corr <= 1e-4)
    report("naive generator fails, corrected one does not", ok,
           f"(naive@t=1 {at_end:.5f} vs {closed_form:.5f}, "
           f"refinement shift {stable:.2e}, corrected residual {corr:.2e})")


def test_03_metric_reconstruction_all_builtins(builtin_diag):
    worst = max(d.res_metric.max() for _, d in builtin_diag.values())
    report("metric reconstructed from the auxiliary propagator",
           worst <= 1e-6, f"(worst relative error {worst:.2e})")


def test_04_quasi_hermiticity_preserved(builtin_diag):
    worst = max(d.res_qh.max() for _, d in builtin_diag.values())
    report("quasi-Hermiticity holds at every node",
           worst <= 1e-11, f"(worst residual {worst:.2e})")


def test_05_constant_metric_regression():
    res = dynamics.evolve(make_builtin("constant-metric-2d"))
    gap_naive, gap_corr = res.gap_naive.max(), res.gap_corrected.max()
    report("static metric: all three propagator routes agree",
           gap_naive <= 1e-6 and gap_corr <= 1e-6,
           f"(naive gap {gap_naive:.2e}, corrected gap {gap_corr:.2e})")


def test_06_integrator_orders():
    s = make_builtin("growing-metric-2d", steps=250)
    order_u = verify.convergence_order(s, "u")
    order_corr = verify.convergence_order(s, "ur_corr")
    report("convergence orders",
           3.7 <= order_u <= 4.3 and 1.7 <= order_corr <= 2.3,
           f"(u: {order_u:.3f}, corrected propagator: {order_corr:.3f})")


def test_07_dyson_inner_product_identity():
    rng = np.random.default_rng(7)
    failures = 0
    for trial in range(100):
        dim = int(rng.integers(2, 7))
        b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        u_mat, sv, vh = np.linalg.svd(b)
        om = (u_mat * rng.uniform(0.2, 5.0, size=dim)) @ vh  # cond <= 25
        d, metric = spaces.metric_from_dyson(om)
        phi = spaces.standard_ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        psi = spaces.standard_ket(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        lhs = spaces.inner_physical(spaces.map_to_reference(phi, d),
                                    spaces.map_to_reference(psi, d), metric)
        rhs = spaces.inner_standard(phi, psi)
        scale = (np.linalg.norm(phi.components) * np.linalg.norm(psi.components)
                 * linalg.fro_norm(metric.theta))
        if abs(lhs - rhs) > 1e-11 * scale:
            failures += 1
    report("metric-weighted product reproduces the standard one",
           failures == 0, f"({failures} failures in 100 trials)")


def test_08_spectral_roundtrip():
    rng = np.random.default_rng(8)
    worst_defect = 0.0
    worst_spec = 0.0
    for trial in range(100):
        dim = int(rng.integers(2, 9))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                            + 1j * rng.normal(size=(dim, dim)))
        energies = np.sort(rng.normal(size=dim))
        h = spaces.spectral_hamiltonian(spaces.SpectralData(energies, q))
        worst_defect = max(worst_defect, linalg.herm_defect(h))
        recovered = linalg.eig_hermitian(h).eigenvalues
        worst_spec = max(worst_spec, float(np.max(np.abs(recovered - energies))))
    report("spectral builder round-trips",
           worst_defect <= 1e-13 and worst_spec <= 1e-12,
           f"(Hermiticity defect {worst_defect:.2e}, spectrum error {worst_spec:.2e})")


def test_09_deterministic_reports(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code = cli.main(["run", "--scenario", "scalar-exponential",
                         "--out", str(p)])
        assert code == 0
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    report("repeated runs produce byte-identical CSV", identical)
