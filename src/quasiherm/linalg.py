"""Dense complex matrix kernel.

Hermitian eigendecomposition, principal square roots, gated inverses and
the Frobenius norm that every residual in the package is measured in.
The decompositions and gates take one d x d matrix or a stack of them,
shape (n, d, d); a gate on a stack checks every matrix and raises for the
first one that fails, naming its time when the caller passes the stack's
times as ``t``.

The two admission gates first try a cheap certificate that the gate
passes, and fall back to the exact spectral test only where it fails:

* ``inverse``: with X = inv(A) as computed and r = ||AX - I||_F <= 1/2,
  cond_2(A) <= ||A||_2 ||X||_2 / (1 - ||I - AX||_2) <= 2 ||A||_F ||X||_F,
  however inaccurate X is. The r that counts is the computed one plus its
  rounding error, at most (d + 2)^2 eps ||A||_F ||X||_F. A matrix with
  2 ||A||_F ||X||_F <= cond_max is admitted without an SVD; the others (and
  every stack on which inv fails) go to ``cond_2norm``. The SVD's own cond
  is uncertain by about d eps cond relative, so the certificate admits no
  matrix with 2 ||A||_F ||X||_F above 1/(16 (d + 2)^2 eps), whatever
  cond_max is: near 1/eps the SVD alone decides.
* ``check_positive_definite``: if the Cholesky factorization of
  hermitize(A) - tau I with tau = (eps_pos + (d+1)^2 eps) ||A||_F runs to
  the end, lambda_min > eps_pos lambda_max; the (d+1)^2 eps term covers the
  backward error of the factorization (Higham, Accuracy and Stability of
  Numerical Algorithms, 2nd ed., Thm 10.3). A shift that is not finite, or
  a factorization that fails, falls back to ``eigvalsh``.

The norms come from plain sums of squares. Where they overflow, neither
certificate holds. Where squares underflow, a norm can come out too small:
the Cholesky certificate then needs ||A||_F >= 1e-140. The inverse
certificate needs no such floor: ||A||_F ||X||_F >= ||AX||_F >= 1/2, so a
norm small enough to lose precision makes the other one overflow.

Either way a gate admits the same matrices, and a refusal raises the same
exception, with the same values and time, as the exact test alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NotFinite, NotHermitian, NotPositiveDefinite

EPS_HERM = 1e-10
EPS_POS = 1e-10
COND_MAX = 1e8
_EPS = np.finfo(float).eps
# A Frobenius norm from a plain sum of squares is exact to rounding at or
# above this floor: the entries whose squares underflow (below about 1e-154)
# change it by far less than eps.
_NORM_FLOOR = 1e-140


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
    return float(fro_norms(np.asarray(a, dtype=complex)))


def fro_norms(a) -> np.ndarray:
    """Frobenius norm of each matrix of a stack.

    A matrix with finite entries, not all zero, whose plain norm overflows or
    falls below _NORM_FLOOR (where squares underflow) has its norm taken again
    with its entries scaled by 2^-e, 2^e the power of two just above its
    largest |entry|: that scaling cannot overflow, and it rounds no entry
    that stays normal. Every other norm is the plain one.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        n = np.linalg.norm(a, axis=(-2, -1))
        redo = ~((n >= _NORM_FLOOR) & (n < np.inf))
        if not redo.any() or not np.any(a):   # a zero stack: its plain norms are exact
            return n
        m = np.asarray(a)[redo]
        top = np.abs(m).max(axis=(-2, -1))
        ok = (top > 0.0) & (top < np.inf)
        if not ok.any():
            return n
        e = np.frexp(np.where(ok, top, 1.0))[1]
        scaled = np.hypot(*(np.linalg.norm(np.ldexp(part, -e[:, None, None]), axis=(-2, -1))
                            for part in (m.real, m.imag)))
        out = np.array(n)
        out[redo] = np.where(ok, np.ldexp(scaled, e), out[redo])
    return out[()]


def _plain_norms(m) -> np.ndarray:
    """Frobenius norm of each matrix of a stack from a plain sum of squares, with
    no temporary the size of m: inf where the sum overflows, and possibly too
    small below _NORM_FLOOR, where squares underflow."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.einsum("...ij,...ij->...", m.real, m.real)
                       + np.einsum("...ij,...ij->...", m.imag, m.imag))


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
    k = _first_failure(defect > eps_herm * fro_norms(m)) if defect.any() else None
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
    NotPositiveDefinite for the first matrix that principal_sqrt would refuse.

    Certificate first: if hermitize(a) - tau I, tau = (eps_pos + (d+1)^2 eps)
    ||a||_F, has a Cholesky factor for every matrix, then lambda_min >
    eps_pos ||a||_F >= eps_pos lambda_max (Higham, Thm 10.3, bounds the
    factorization's backward error by the (d+1)^2 eps term) and the gate
    passes. A norm below _NORM_FLOOR, a shift that is not finite, or a
    factorization that fails falls back to the eigenvalues, which decide and
    name the failure.
    """
    m = as_matrices(a, t)
    check_hermitian(m, eps_herm, t)
    d = m.shape[-1]
    norm = _plain_norms(m)
    tau = (eps_pos + (d + 1) ** 2 * _EPS) * norm
    if ((norm >= _NORM_FLOOR) & np.isfinite(tau)).all():
        shifted = hermitize(m)
        diagonal = np.arange(d)
        shifted[..., diagonal, diagonal] -= tau[..., None]
        try:
            np.linalg.cholesky(shifted)
            return
        except np.linalg.LinAlgError:
            pass
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
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 for a zero matrix
        c = np.where(s[..., -1] == 0.0, np.inf, s[..., 0] / s[..., -1])
    return float(c) if c.ndim == 0 else c


def inverse(a, cond_max: float = COND_MAX, t=None) -> np.ndarray:
    """Matrix inverse, refused above a condition-number ceiling.

    Certificate first: X = inv(a) is computed, and a matrix with
    r = ||aX - I||_F <= 1/2 and 2 ||a||_F ||X||_F <= cond_max is admitted,
    since then cond_2(a) <= ||a||_2 ||X||_2 / (1 - r) <= 2 ||a||_F ||X||_F.
    r is the computed residual plus (d + 2)^2 eps ||a||_F ||X||_F, which
    bounds the rounding of the product aX (|fl(aX) - aX| <= gamma_(d+2)
    |a||X| entrywise, and || |a||X| ||_F <= ||a||_F ||X||_F) and of the sum
    of its d^2 squares (||aX||_F >= 1/2 when r <= 1/2). Above
    2 ||a||_F ||X||_F = 1/(16 (d + 2)^2 eps) nothing is certified, because
    there the SVD's cond, which the gate must reproduce, is itself only
    known to about d eps cond relative. The others, and the whole stack
    when inv fails on it, have their condition number taken by cond_2norm,
    which decides and names the first refusal. The result is inv(a) as
    computed.
    """
    m = as_matrices(a, t)
    stack = m.reshape((-1,) + m.shape[-2:])
    try:
        x = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        x = None
        undecided = np.ones(len(stack), dtype=bool)
    else:
        d = m.shape[-1]
        xs = x.reshape(stack.shape)
        residual = stack @ xs
        residual -= np.eye(d)
        with np.errstate(over="ignore", invalid="ignore"):   # inf * 0: not certified
            norms = _plain_norms(stack) * _plain_norms(xs)
            r = _plain_norms(residual) + (d + 2) ** 2 * _EPS * norms
            ceiling = min(cond_max, 1.0 / (16 * (d + 2) ** 2 * _EPS))
            undecided = ~((r <= 0.5) & (2.0 * norms <= ceiling))
    c = np.atleast_1d(cond_2norm(stack[undecided]))   # an empty stack when all are certified
    k = _first_failure(~(c <= cond_max))
    if k is not None:
        raise IllConditioned(float(c[k]), t=_at(t, np.flatnonzero(undecided)[k]))
    return np.linalg.inv(m) if x is None else x


# --- [re, im] pair encoding used by scenario files and fixtures ---

def matrix_from_pairs(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValueError(f"expected an n x n x 2 nest of [re, im] pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():   # before 1j * inf, which warns
        raise NotFinite()
    return as_matrix(arr[..., 0] + 1j * arr[..., 1])


def matrix_to_pairs(a) -> list:
    m = as_matrix(a)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def vector_from_pairs(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an n x 2 list of [re, im] pairs, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    return arr[:, 0] + 1j * arr[:, 1]


def vector_to_pairs(v) -> list:
    arr = np.asarray(v, dtype=complex)
    return [[float(z.real), float(z.imag)] for z in arr]
