"""Dense complex matrix kernel.

Hermitian eigendecomposition, principal square roots, gated inverses and
the Frobenius norm that every residual in the package is measured in.
The decompositions and gates take one d x d matrix or a stack of them,
shape (n, d, d); a gate on a stack checks every matrix and raises for the
first one that fails, naming its time when the caller passes the stack's
times as ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NotFinite, NotHermitian, NotPositiveDefinite

EPS_HERM = 1e-10
EPS_POS = 1e-10
COND_MAX = 1e8


def as_matrices(a, t=None) -> np.ndarray:
    """Coerce to a square complex ndarray or a stack of them; raise NotFinite,
    naming its time t when given, for the first matrix with an inf or nan."""
    m = np.asarray(a, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotFinite(t=_at(t, _first_failure(~np.isfinite(m).all(axis=(-2, -1)))))
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex ndarray, rejecting non-finite entries."""
    m = as_matrices(a)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def fro_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=complex)))


def fro_norms(a) -> np.ndarray:
    """Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(a, axis=(-2, -1))


def dagger(a) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return np.swapaxes(a, -1, -2).conj()


def hermitize(a) -> np.ndarray:
    """(A + A†)/2; exactly Hermitian by construction."""
    m = as_matrices(a)
    return 0.5 * (m + dagger(m))


def herm_defect(a):
    """||A - A†||_F: a float for one matrix, an array for a stack."""
    m = np.asarray(a, dtype=complex)
    return fro_norms(m - dagger(m))


def _first_failure(bad) -> int | None:
    """Index of the first failing matrix, from one flag or a flag per matrix."""
    bad = np.atleast_1d(bad)
    return int(np.argmax(bad)) if bad.any() else None


def _at(t, k):
    """Time of matrix k of a stack, or None when the caller gave no times."""
    if t is None:
        return None
    return float(np.atleast_1d(t)[k])


def check_hermitian(a, eps_herm: float = EPS_HERM, t=None) -> None:
    """Raise NotHermitian for the first matrix with ||A - A†|| > eps_herm ||A||."""
    m = np.asarray(a, dtype=complex)
    defect = np.atleast_1d(herm_defect(m))
    k = _first_failure(defect > eps_herm * fro_norms(m))
    if k is not None:
        raise NotHermitian(float(defect[k]), t=_at(t, k))


@dataclass(frozen=True)
class HermitianEigen:
    eigenvalues: np.ndarray   # real, ascending (one row per matrix of a stack)
    eigenvectors: np.ndarray  # orthonormal columns


def eig_hermitian(a, eps_herm: float = EPS_HERM, t=None) -> HermitianEigen:
    """Spectral decomposition, gated on a relative Hermiticity check.

    The decomposition itself runs on hermitize(a) so that floating-point
    drift below the gate is harmless.
    """
    m = as_matrices(a, t)
    check_hermitian(m, eps_herm, t)
    w, v = np.linalg.eigh(hermitize(m))
    return HermitianEigen(w, v)


def _check_spectrum(w, eps_pos: float, t) -> None:
    """Raise NotPositiveDefinite for the first ascending spectrum w with
    lambda_min <= eps_pos * lambda_max (or lambda_max <= 0)."""
    lo, hi = np.atleast_1d(w[..., 0]), np.atleast_1d(w[..., -1])
    k = _first_failure((hi <= 0.0) | (lo <= eps_pos * hi))
    if k is not None:
        raise NotPositiveDefinite(float(lo[k]), float(hi[k]), t=_at(t, k))


def check_positive_definite(a, eps_herm: float = EPS_HERM, eps_pos: float = EPS_POS,
                            t=None) -> None:
    """The gate of principal_sqrt from eigenvalues alone: raise NotHermitian or
    NotPositiveDefinite for the first matrix that principal_sqrt would refuse."""
    m = as_matrices(a, t)
    check_hermitian(m, eps_herm, t)
    _check_spectrum(np.linalg.eigvalsh(hermitize(m)), eps_pos, t)


def principal_sqrt(a, eps_herm: float = EPS_HERM, eps_pos: float = EPS_POS,
                   t=None) -> np.ndarray:
    """Unique Hermitian positive-definite S with S @ S == a.

    Positivity gate is relative: lambda_min must exceed eps_pos * lambda_max.
    """
    eig = eig_hermitian(a, eps_herm, t)
    w, v = eig.eigenvalues, eig.eigenvectors
    _check_spectrum(w, eps_pos, t)
    return (v * np.sqrt(w)[..., None, :]) @ dagger(v)


def cond_2norm(a):
    """2-norm condition number: a float for one matrix, an array for a stack."""
    s = np.linalg.svd(as_matrices(a), compute_uv=False)
    with np.errstate(divide="ignore"):
        c = np.where(s[..., -1] == 0.0, np.inf, s[..., 0] / s[..., -1])
    return float(c) if c.ndim == 0 else c


def inverse(a, cond_max: float = COND_MAX, t=None) -> np.ndarray:
    """Matrix inverse, refused above a condition-number ceiling."""
    m = as_matrices(a, t)
    c = np.atleast_1d(cond_2norm(m))
    k = _first_failure(~(c <= cond_max))
    if k is not None:
        raise IllConditioned(float(c[k]), t=_at(t, k))
    return np.linalg.inv(m)


# --- [re, im] pair encoding used by scenario files and fixtures ---

def matrix_from_pairs(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValueError(f"expected an n x n x 2 nest of [re, im] pairs, got shape {arr.shape}")
    return as_matrix(arr[..., 0] + 1j * arr[..., 1])


def matrix_to_pairs(a) -> list:
    m = as_matrix(a)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def vector_from_pairs(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an n x 2 list of [re, im] pairs, got shape {arr.shape}")
    v = arr[:, 0] + 1j * arr[:, 1]
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def vector_to_pairs(v) -> list:
    arr = np.asarray(v, dtype=complex)
    return [[float(z.real), float(z.imag)] for z in arr]
