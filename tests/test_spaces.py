import numpy as np
import pytest

from quasiherm import linalg, spaces
from quasiherm.errors import (BasisNotOrthonormal, IllConditioned,
                              NotPositiveDefinite, SpaceMismatch)
from quasiherm.spaces import (SpectralData, inner_physical, inner_standard,
                              map_to_reference, metric_from_dyson,
                              metric_from_theta, quasi_hermiticity_defect,
                              reference_ket, spectral_hamiltonian, standard_ket)

THETA_12 = np.array([[1.0, 1.0], [1.0, 2.0]])


def test_metric_identity():
    m = metric_from_theta(np.eye(2))
    assert np.allclose(m.omega, np.eye(2))


def test_metric_diagonal():
    m = metric_from_theta(np.diag([1.0, 4.0]))
    assert np.allclose(m.omega, np.diag([1.0, 2.0]))
    assert np.allclose(m.omega @ m.omega_inv, np.eye(2), atol=1e-13)


def test_metric_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        metric_from_theta([[1.0, 2.0], [2.0, 1.0]])


def test_dyson_identity():
    d, m = metric_from_dyson(np.eye(2))
    assert np.allclose(m.theta, np.eye(2))


def test_dyson_hand():
    d, m = metric_from_dyson([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(m.theta, THETA_12)
    # omega = sqrt(theta) differs from the (non-normal) map itself
    assert not np.allclose(m.omega, d.omega_g)


def test_dyson_rejects_singular():
    with pytest.raises(IllConditioned):
        metric_from_dyson(np.diag([1.0, 0.0]))


def test_inner_standard_values():
    e1, e2 = standard_ket([1, 0]), standard_ket([0, 1])
    assert inner_standard(e1, e2) == 0
    assert inner_standard(e1, e1) == 1
    assert inner_standard(standard_ket([1j, 0]), e1) == -1j


def test_inner_reference_rejects_standard_tag():
    """The reference space offers only the physical product; each product
    refuses a vector of the other space."""
    m = metric_from_theta(THETA_12)
    with pytest.raises(SpaceMismatch):
        inner_physical(standard_ket([1, 0]), reference_ket([1, 0]), m)
    with pytest.raises(SpaceMismatch):
        inner_physical(reference_ket([1, 0]), standard_ket([1, 0]), m)
    with pytest.raises(SpaceMismatch):
        inner_standard(reference_ket([1, 0]), standard_ket([1, 0]))


def test_inner_physical_values():
    m = metric_from_theta(THETA_12)
    e1, e2 = reference_ket([1, 0]), reference_ket([0, 1])
    assert inner_physical(e1, e2, m) == pytest.approx(1.0)
    assert inner_physical(e2, e2, m) == pytest.approx(2.0)
    ident = metric_from_theta(np.eye(2))
    phi = reference_ket([1 + 1j, 2.0])
    psi = reference_ket([0.5j, -1.0])
    assert inner_physical(phi, psi, ident) == pytest.approx(
        np.vdot(phi.components, psi.components))


def test_inner_physical_hermitian_symmetry(rng):
    m = metric_from_theta(THETA_12)
    phi = reference_ket(rng.normal(size=2) + 1j * rng.normal(size=2))
    psi = reference_ket(rng.normal(size=2) + 1j * rng.normal(size=2))
    assert inner_physical(phi, psi, m) == pytest.approx(
        np.conj(inner_physical(psi, phi, m)))
    diag = inner_physical(phi, phi, m)
    assert diag.imag == pytest.approx(0.0, abs=1e-14)
    assert diag.real > 0


def test_map_to_reference_hand():
    d, m = metric_from_dyson([[1.0, 1.0], [0.0, 1.0]])
    phi = standard_ket([1.0, 1.0])
    ref = map_to_reference(phi, d)
    assert ref.space is spaces.Space.REFERENCE
    assert np.allclose(ref.components, [0.0, 1.0])
    assert inner_physical(ref, ref, m) == pytest.approx(
        inner_standard(phi, phi))
    with pytest.raises(SpaceMismatch):
        map_to_reference(ref, d)


def test_spectral_diagonal():
    s = SpectralData(np.array([1.0, -1.0]), np.eye(2, dtype=complex))
    assert np.allclose(spectral_hamiltonian(s), np.diag([1.0, -1.0]))


def test_spectral_hand_projectors():
    basis = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = SpectralData(np.array([0.0, 2.0]), basis)
    assert np.allclose(spectral_hamiltonian(s), [[1, -1], [-1, 1]], atol=1e-14)


def test_spectral_rejects_degenerate_basis():
    basis = np.array([[1, 1], [0, 0]], dtype=complex)
    with pytest.raises(BasisNotOrthonormal):
        spectral_hamiltonian(SpectralData(np.array([1.0, 2.0]), basis))


def test_spectral_roundtrip_random(rng):
    from quasiherm.linalg import eig_hermitian
    for _ in range(30):
        d = int(rng.integers(2, 7))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        energies = np.sort(rng.normal(size=d))
        h = spectral_hamiltonian(SpectralData(energies, q))
        assert np.allclose(np.sort(eig_hermitian(h).eigenvalues), energies, atol=1e-12)


def test_qh_residual_values():
    ident = metric_from_theta(np.eye(2))
    assert quasi_hermiticity_defect(np.array([[1.0, 2.0], [2.0, 0.0]]), ident.theta) == 0.0
    m = metric_from_theta(np.diag([1.0, 2.0]))
    h_big = np.array([[0.0, np.sqrt(2)], [1 / np.sqrt(2), 0.0]])
    assert quasi_hermiticity_defect(h_big, m.theta) <= 1e-15
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert quasi_hermiticity_defect(bad, ident.theta) == pytest.approx(np.sqrt(2))


def test_qh_and_equivalence_random(rng):
    """quasi_hermiticity_defect is ~0 exactly when omega H omega^-1 is Hermitian:
    H := omega^-1 h omega maps back to the Hermitian h; H + E, with E not of
    that form, does not, and both measures see it."""
    for _ in range(25):
        d = int(rng.integers(2, 6))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = metric_from_theta(b.conj().T @ b + 0.5 * np.eye(d))
        h_small = linalg.hermitize(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        h_big = m.omega_inv @ h_small @ m.omega
        e = np.zeros((d, d), dtype=complex)
        e[0, -1] = 1.0
        for h, small in ((h_big, True), (h_big + e, False)):
            equivalent = m.omega @ h @ m.omega_inv
            herm = linalg.herm_defect(equivalent) / linalg.fro_norm(equivalent)
            qh = quasi_hermiticity_defect(h, m.theta)
            if small:
                assert qh <= 1e-11 and herm <= 1e-11
            else:
                assert qh > 1e-3 and herm > 1e-3
