"""Metrics, Dyson maps and the three-Hilbert-space bookkeeping.

Vectors carry an explicit space tag (standard vs reference) and the
physical functionals (doubled bras) can only be built through
`doubled_bra`, so the bra/functional distinction is enforced by the API
rather than by convention.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BasisNotOrthonormal, SpaceMismatch

_TINY = np.finfo(float).tiny


class Space(enum.Enum):
    STANDARD = "standard"
    REFERENCE = "reference"


@dataclass(frozen=True)
class SpaceTaggedVector:
    space: Space
    components: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.components, dtype=complex)
        if v.ndim != 1 or v.size < 1:
            raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("vector components must be finite")
        object.__setattr__(self, "components", v)

    @property
    def dim(self) -> int:
        return self.components.size


def standard_ket(components) -> SpaceTaggedVector:
    return SpaceTaggedVector(Space.STANDARD, np.asarray(components, dtype=complex))


def reference_ket(components) -> SpaceTaggedVector:
    return SpaceTaggedVector(Space.REFERENCE, np.asarray(components, dtype=complex))


def _require(space: Space, *vectors: SpaceTaggedVector):
    for v in vectors:
        if v.space is not space:
            raise SpaceMismatch(f"expected a {space.value}-space vector, got {v.space.value}")


@dataclass(frozen=True)
class Metric:
    """Positive metric with its principal root and the root's inverse."""
    theta: np.ndarray
    omega: np.ndarray
    omega_inv: np.ndarray

    @property
    def dim(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class DysonMap:
    """General invertible map; the induced metric is omega_g† omega_g."""
    omega_g: np.ndarray
    omega_g_inv: np.ndarray


def metric_from_theta(theta) -> Metric:
    th = linalg.as_matrix(theta)
    omega = linalg.principal_sqrt(th)
    return Metric(th, omega, linalg.inverse(omega))


def metric_from_dyson(omega_g) -> tuple[DysonMap, Metric]:
    og = linalg.as_matrix(omega_g)
    og_inv = linalg.inverse(og)
    theta = og.conj().T @ og
    return DysonMap(og, og_inv), metric_from_theta(theta)


def _inner(space: Space, phi: SpaceTaggedVector, psi: SpaceTaggedVector) -> complex:
    _require(space, phi, psi)
    if phi.dim != psi.dim:
        raise ValueError("dimension mismatch")
    return complex(np.vdot(phi.components, psi.components))


def inner_reference(phi: SpaceTaggedVector, psi: SpaceTaggedVector) -> complex:
    """Plain sesquilinear product on the reference space, antilinear in phi."""
    return _inner(Space.REFERENCE, phi, psi)


def inner_standard(phi: SpaceTaggedVector, psi: SpaceTaggedVector) -> complex:
    """Plain sesquilinear product on the standard physical space."""
    return _inner(Space.STANDARD, phi, psi)


def inner_physical(phi: SpaceTaggedVector, psi: SpaceTaggedVector, m: Metric) -> complex:
    """Metric-weighted product <phi| theta |psi> on the reference space."""
    _require(Space.REFERENCE, phi, psi)
    if phi.dim != psi.dim or phi.dim != m.dim:
        raise ValueError("dimension mismatch")
    row = phi.components.conj() @ m.theta
    return complex(row @ psi.components)


def map_to_reference(phi: SpaceTaggedVector, d: DysonMap) -> SpaceTaggedVector:
    """Pull a standard-space ket back to the reference space via the inverse map."""
    _require(Space.STANDARD, phi)
    return reference_ket(d.omega_g_inv @ phi.components)


_BRA_KEY = object()


class PhysicalFunctional:
    """Doubled bra <phi| theta; constructible only through doubled_bra()."""

    __slots__ = ("row",)

    def __init__(self, row: np.ndarray, *, _key=None):
        if _key is not _BRA_KEY:
            raise TypeError("PhysicalFunctional must be built via doubled_bra()")
        self.row = row

    def __call__(self, psi: SpaceTaggedVector) -> complex:
        _require(Space.REFERENCE, psi)
        if psi.dim != self.row.size:
            raise ValueError("dimension mismatch")
        return complex(self.row @ psi.components)


def doubled_bra(phi: SpaceTaggedVector, m: Metric) -> PhysicalFunctional:
    _require(Space.REFERENCE, phi)
    if phi.dim != m.dim:
        raise ValueError("dimension mismatch")
    return PhysicalFunctional(phi.components.conj() @ m.theta, _key=_BRA_KEY)


@dataclass(frozen=True)
class SpectralData:
    energies: np.ndarray  # real
    basis: np.ndarray     # orthonormal columns

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        b = np.asarray(self.basis, dtype=complex)
        if b.ndim != 2 or e.ndim != 1 or b.shape[1] != e.size:
            raise ValueError("basis columns must match the number of energies")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "basis", b)


def spectral_hamiltonian(s: SpectralData, gram_tol: float = 1e-12) -> np.ndarray:
    """Sum of energy-weighted projectors onto the given orthonormal basis."""
    b = s.basis
    gram = b.conj().T @ b
    defect = linalg.fro_norm(gram - np.eye(b.shape[1]))
    if defect > gram_tol:
        raise BasisNotOrthonormal(defect)
    return (b * s.energies) @ b.conj().T


def quasi_hermiticity_defect(h_mat, theta):
    """Relative size of theta H - H† theta; zero iff H† = theta H theta^-1.

    A float for one pair of matrices, an array for stacks of them.
    """
    th = linalg.as_matrices(theta)
    hm = linalg.as_matrices(h_mat)
    th_hm = th @ hm
    num = th_hm - linalg.dagger(hm) @ th
    return linalg.fro_norms(num) / np.maximum(linalg.fro_norms(th_hm), _TINY)


def hermitian_equivalent(h_mat, m: Metric) -> tuple[np.ndarray, float]:
    """omega H omega^-1 together with its relative Hermiticity defect.

    The defect is reported, never raised: callers decide what is acceptable.
    """
    h = m.omega @ linalg.as_matrix(h_mat) @ m.omega_inv
    defect = linalg.herm_defect(h) / max(linalg.fro_norm(h), _TINY)
    return h, defect
