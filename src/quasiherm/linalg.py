"""Dense complex matrix kernel.

Stacked matrix products, Hermitian eigendecomposition, principal square
roots, gated inverses and the Frobenius norm that every residual in the
package is measured in.
The decompositions and gates take one d x d matrix or a stack of them,
shape (n, d, d); a gate on a stack checks every matrix and raises for the
first one that fails, naming its time when the caller passes the stack's
times as ``t``.

The inverse is gated certificate first: it tries a cheap certificate that
the gate passes, and falls back to the exact spectral test only where it
fails. For any X with r = ||AX - I||_F <= 1/2,
cond_2(A) <= ||A||_2 ||X||_2 / (1 - ||I - AX||_2) <= 2 ||A||_F ||X||_F,
however inaccurate X is (Higham, Accuracy and Stability, section 3.6 and
chapter 14). So X need not be inv(A): ``principal_sqrt`` hands out the
inverse of each root from the same eigendecomposition,
V diag(1/sqrt(lambda)) V^dagger, and ``inverse`` certifies that candidate
instead of inverting the root a second time; a matrix whose candidate
misses is inverted by inv, alone, as without one. The r that counts is the
computed one plus its rounding error, at most (d + 2)^2 eps ||A||_F ||X||_F.
A matrix with 2 ||A||_F ||X||_F <= cond_max is admitted without an SVD; the
others (and every stack on which inv fails) go to ``cond_2norm``, and a
matrix that inv cannot invert is refused whatever its cond. The SVD's own
cond is uncertain by about d eps cond relative, so the certificate admits no
matrix with 2 ||A||_F ||X||_F above 1/(16 (d + 2)^2 eps), whatever
cond_max is: near 1/eps the SVD alone decides.

Every stacked product of the package goes through ``matmul``. numpy's
``np.matmul`` makes one BLAS call per matrix of a stack, so for tiny
matrices its cost is call overhead, not arithmetic. For d <= SMALL_DIM
``matmul`` forms a @ b over the whole stack as d rank-one updates, one
broadcast multiply and add per k; above it is ``np.matmul``. Measured on a
stack of 2001 complex matrices with one BLAS thread (numpy 2.4, 2-core
x86-64 host), ``np.matmul`` against the rank-one updates: d = 2, 458 against
91 us; d = 3, 513 against 235 us; d = 4, 501 against 498 us (even); d = 6,
559 against 1673 us.

The norms come from plain sums of squares. Where they overflow, the
certificate does not hold. It needs no floor where squares underflow:
||A||_F ||X||_F >= ||AX||_F >= 1/2, so a norm small enough to lose
precision makes the other one overflow. Either way the gate admits the
same matrices, and a refusal raises the same exception, with the same
values and time, as the exact test alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NotFinite, NotHermitian, NotPositiveDefinite

# Largest d whose stacked products are formed as rank-one updates (matmul).
SMALL_DIM = 3
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
    """a, entries under complex_entries, as a square complex ndarray; inf or nan is NotFinite."""
    m = as_matrices(complex_entries(a))
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


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for arrays of matrices (ndim >= 2), broadcast over the leading axes
    as np.matmul broadcasts them, written to out when it is given.

    When no matrix has more than SMALL_DIM rows or columns, the product is the
    sum over k of the rank-one updates a[..., :, k] b[..., k, :], added in
    order of k, each an elementwise multiply over the whole stack; otherwise it
    is np.matmul, bit for bit. Each entry is then an inner product of d terms
    summed in one order, so it is within gamma_(d+2) (|a||b|)_ij of the exact
    one, as np.matmul's is (Higham, Accuracy and Stability, section 3.6). An
    out that may share memory with a or b is refused (ValueError): the updates
    would read entries they have overwritten.
    """
    if out is not None and (np.may_share_memory(out, a) or np.may_share_memory(out, b)):
        raise ValueError("out must not share memory with an input")
    d = a.shape[-1]
    if max(d, a.shape[-2], b.shape[-1]) > SMALL_DIM:
        return np.matmul(a, b, out=out)
    if b.shape[-2] != d:
        raise ValueError(f"matmul: inner dimensions differ, {a.shape} and {b.shape}")
    prod = np.multiply(a[..., :1], b[..., :1, :], out=out)
    if d > 1:
        term = np.empty_like(prod)
        for k in range(1, d):
            np.multiply(a[..., k:k + 1], b[..., k:k + 1, :], out=term)
            prod += term
    return prod


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


def principal_sqrt(a, eps_herm: float = EPS_HERM, eps_pos: float = EPS_POS,
                   t=None, inverse: bool = False):
    """Unique Hermitian positive-definite S with S @ S == a; with inverse=True
    the pair (S, X), X = V diag(1/sqrt(lambda)) V^dagger the inverse of S from
    the same eigendecomposition, a candidate for ``inverse`` to certify.

    Positivity gate is relative: lambda_min must exceed eps_pos * lambda_max.
    """
    eig = eig_hermitian(a, eps_herm, t)
    w, v = eig.eigenvalues, eig.eigenvectors
    _check_spectrum(w, eps_pos, t)
    root, vh = np.sqrt(w)[..., None, :], dagger(v)
    scaled = v * root
    s = matmul(scaled, vh)
    if not inverse:
        return s
    return s, matmul(np.divide(v, root, out=scaled), vh)   # X reuses the scaled-V buffer


def cond_2norm(a):
    """2-norm condition number: a float for one matrix, an array for a stack."""
    s = np.linalg.svd(as_matrices(a), compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):   # 0/0 for a zero matrix
        c = np.where(s[..., -1] == 0.0, np.inf, s[..., 0] / s[..., -1])
    return float(c) if c.ndim == 0 else c


def _uncertified(stack, xs, cond_max: float) -> np.ndarray:
    """A flag per matrix of stack that xs, its candidate inverse, does not
    certify: not both r <= 1/2 and 2 ||a||_F ||X||_F <= min(cond_max, the ceiling)."""
    d = stack.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):   # inf * 0: not certified
        residual = matmul(stack, xs)
        residual -= np.eye(d)
        norms = _plain_norms(stack) * _plain_norms(xs)
        r = _plain_norms(residual) + (d + 2) ** 2 * _EPS * norms
        ceiling = min(cond_max, 1.0 / (16 * (d + 2) ** 2 * _EPS))
        return ~((r <= 0.5) & (2.0 * norms <= ceiling))


def _inv(stack, cond_max: float):
    """(X, singular, undecided) for a stack: X = inv(stack) as computed, matrix
    by matrix where inv refuses the stack (singular flags the matrices it
    cannot invert), and undecided the matrices X does not certify (all of
    them where inv refused the stack)."""
    try:
        x = np.linalg.inv(stack)
    except np.linalg.LinAlgError:   # inv refuses the stack: invert matrix by matrix
        x = np.zeros_like(stack)
        singular = np.zeros(len(stack), dtype=bool)
        for k, mk in enumerate(stack):
            try:
                x[k] = np.linalg.inv(mk)
            except np.linalg.LinAlgError:
                singular[k] = True
        return x, singular, np.ones(len(stack), dtype=bool)
    return x, np.zeros(len(stack), dtype=bool), _uncertified(stack, x, cond_max)


def inverse(a, cond_max: float = COND_MAX, t=None, candidate=None) -> np.ndarray:
    """Matrix inverse, refused above a condition-number ceiling.

    Certificate first: for X = candidate when given, else X = inv(a) as
    computed, a matrix with r = ||aX - I||_F <= 1/2 and
    2 ||a||_F ||X||_F <= cond_max is admitted, since then, for any X,
    cond_2(a) <= ||a||_2 ||X||_2 / (1 - r) <= 2 ||a||_F ||X||_F.
    r is the computed residual plus (d + 2)^2 eps ||a||_F ||X||_F, which
    bounds the rounding of the product aX (|fl(aX) - aX| <= gamma_(d+2)
    |a||X| entrywise, for any order in which each entry's d terms are
    summed, so for matmul's rank-one updates as for BLAS, and
    || |a||X| ||_F <= ||a||_F ||X||_F) and of the sum
    of its d^2 squares (||aX||_F >= 1/2 when r <= 1/2). Above
    2 ||a||_F ||X||_F = 1/(16 (d + 2)^2 eps) nothing is certified, because
    there the SVD's cond, which the gate must reproduce, is itself only
    known to about d eps cond relative. The others, and the whole stack
    when inv fails on it, have their condition number taken by cond_2norm,
    which decides and names the first refusal; a matrix inv cannot invert
    is refused whatever its cond.

    The certificate vouches for the decision, not for X's accuracy: a
    candidate must be the inverse of a to working accuracy, as the X of
    principal_sqrt is. Each matrix is decided alone: its inverse is its
    candidate where that certifies, else inv's as computed, which the
    certificate and then cond_2norm decide as without a candidate. So no
    matrix's inverse depends on the others in the stack, no certified matrix
    can have an SVD cond above cond_max, and a refusal is the one without a
    candidate. A candidate that certifies every matrix is the result, uncopied.
    """
    m = as_matrices(a, t)
    stack = m.reshape((-1,) + m.shape[-2:])
    if candidate is None:
        x, singular, undecided = _inv(stack, cond_max)
    else:
        x = np.asarray(candidate, dtype=complex)
        if x.shape != m.shape:
            raise ValueError(f"candidate inverse has shape {x.shape}, not {m.shape}")
        x = x.reshape(stack.shape)
        missed = _uncertified(stack, x, cond_max)
        singular, undecided = np.zeros_like(missed), missed.copy()
        if missed.any():   # inv and its certificate on those matrices alone
            x = x.copy()
            x[missed], singular[missed], undecided[missed] = _inv(stack[missed], cond_max)
    c = np.atleast_1d(cond_2norm(stack[undecided]))   # an empty stack when all are certified
    k = _first_failure(~(c <= cond_max) | singular[undecided])
    if k is not None:
        raise IllConditioned(float(c[k]), t=_at(t, np.flatnonzero(undecided)[k]))
    return x.reshape(m.shape)


# --- entries, and the [re, im] pair encoding of scenario files ---

def complex_entries(values) -> np.ndarray:
    """values, a nest of numbers, as a new complex ndarray; the one entry rule for the matrices,
    snapshot times and initial state of a file and of code: a bool (numpy's too), string, None or
    list, which numpy converts, is a ValueError."""
    entries = np.asarray(values, dtype=object)
    if not all(issubclass(t, (int, float, complex, np.number)) and t is not bool
               for t in set(map(type, entries.flat))):
        raise ValueError("entries must be JSON numbers, not true, false or strings")
    return entries.astype(complex)


def vector_from_pairs(obj) -> np.ndarray:
    """The vector an n x 2 list of [re, im] pairs encodes, complex(re, im) bit for bit, [] the
    empty one. Its entries pass complex_entries; Scenario refuses inf and nan as in code."""
    pairs = np.asarray(obj, dtype=object)
    if pairs.shape != (0,) and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError(f"expected an n x 2 list of [re, im] pairs, got shape {pairs.shape}")
    return np.ascontiguousarray(complex_entries(pairs).real.reshape(-1, 2)).view(complex)[:, 0]


def matrix_from_pairs(obj) -> np.ndarray:
    """The matrix an n x n x 2 nest of [re, im] pairs encodes; its schedule refuses inf and nan."""
    pairs = np.asarray(obj, dtype=object)
    if pairs.ndim != 3 or pairs.shape[0] != pairs.shape[1] or pairs.shape[2] != 2:
        raise ValueError(f"expected an n x n x 2 nest of [re, im] pairs, got shape {pairs.shape}")
    return vector_from_pairs(pairs.reshape(-1, 2)).reshape(pairs.shape[:2])
