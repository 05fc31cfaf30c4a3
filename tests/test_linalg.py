import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quasiherm import linalg
from quasiherm.errors import IllConditioned, NotFinite, NotHermitian, NotPositiveDefinite

SQ3 = np.sqrt(3.0)


def test_hermitize_arithmetic():
    out = linalg.hermitize([[0, 1], [0, 0]])
    assert np.allclose(out, [[0, 0.5], [0.5, 0]])


def test_hermitize_fixed_point():
    a = np.array([[2, 1 + 1j], [1 - 1j, 3]])
    assert np.array_equal(linalg.hermitize(a), a)


def test_hermitize_antihermitian_to_zero():
    assert np.allclose(linalg.hermitize([[1j, 0], [0, 1j]]), np.zeros((2, 2)))


def test_eig_diagonal():
    eig = linalg.eig_hermitian(np.diag([3.0, 1.0]))
    assert np.allclose(eig.eigenvalues, [1.0, 3.0])
    assert np.allclose(np.abs(eig.eigenvectors), [[0, 1], [1, 0]])


def test_eig_2x2_hand():
    # characteristic polynomial of [[2,1],[1,2]]: (2-l)^2 = 1
    eig = linalg.eig_hermitian([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(eig.eigenvalues, [1.0, 3.0])
    v0, v1 = eig.eigenvectors[:, 0], eig.eigenvectors[:, 1]
    assert np.allclose(np.abs(v0), [1 / np.sqrt(2)] * 2)
    assert abs(np.vdot(v0, v1)) < 1e-14
    rec = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
    assert np.allclose(rec, [[2, 1], [1, 2]], atol=1e-12)


def test_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        linalg.eig_hermitian([[0, 1], [0, 0]])


def test_sqrt_diagonal():
    assert np.allclose(linalg.principal_sqrt(np.diag([1.0, 4.0])), np.diag([1.0, 2.0]))


def test_sqrt_2x2_hand():
    expect = 0.5 * np.array([[SQ3 + 1, SQ3 - 1], [SQ3 - 1, SQ3 + 1]])
    got = linalg.principal_sqrt([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(got, expect, atol=1e-13)


def test_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite) as exc:
        linalg.principal_sqrt([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
    assert exc.value.lambda_min == pytest.approx(-1.0)
    assert exc.value.lambda_max == pytest.approx(3.0)


def test_inverse_identity_and_diagonal():
    assert np.allclose(linalg.inverse(np.eye(2)), np.eye(2))
    assert np.allclose(linalg.inverse(np.diag([1.0, 2.0])), np.diag([1.0, 0.5]))


def test_inverse_hand_2x2():
    assert np.allclose(linalg.inverse([[1.0, 1.0], [0.0, 1.0]]),
                       [[1.0, -1.0], [0.0, 1.0]])


def test_inverse_rejects_singular():
    with pytest.raises(IllConditioned):
        linalg.inverse(np.diag([1.0, 0.0]))


def test_inverse_refuses_a_matrix_inv_cannot_invert_under_any_ceiling():
    """[[1, 2], [2, 4]] is singular, yet its SVD cond rounds to 2.5e16, under a
    ceiling of 1e20: it is refused as ill-conditioned at its own t."""
    stack = np.stack([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], np.eye(2)])
    with pytest.raises(IllConditioned) as exc:
        linalg.inverse(stack, cond_max=1e20, t=[0.0, 0.5, 1.0])
    assert exc.value.t == 0.5
    assert exc.value.cond < 1e20


def test_fro_norm_cases():
    assert linalg.fro_norm(np.zeros((3, 3))) == 0.0
    assert linalg.fro_norm(np.eye(2)) == pytest.approx(np.sqrt(2))
    assert linalg.fro_norm([[0, 1], [-1, 0]]) == pytest.approx(np.sqrt(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # squares that overflow, and squares that underflow
        assert linalg.fro_norm(np.full((2, 2), 1e200)) == 2e200
        assert linalg.fro_norm(np.full((2, 2), 1e-170)) == 2e-170


def test_fro_norms_survive_entries_whose_squares_overflow(rng):
    for d in (1, 2, 5):
        assert linalg.fro_norms(1e300 * np.eye(d)[None])[0] == 1e300 * np.sqrt(d)
        assert linalg.fro_norms(1e300 * np.eye(d)) == 1e300 * np.sqrt(d)
    plain = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    mixed = plain.copy()
    mixed[1] *= 1e300
    mixed[2, 0, 0] = np.inf
    got = linalg.fro_norms(mixed)
    assert np.array_equal(got[[0, 3]], np.linalg.norm(plain[[0, 3]], axis=(-2, -1)))
    assert got[1] == pytest.approx(1e300 * np.linalg.norm(plain[1]), rel=1e-15)
    assert got[2] == np.inf
    assert np.array_equal(linalg.fro_norms(plain), np.linalg.norm(plain, axis=(-2, -1)))


def test_fro_norms_survive_entries_whose_squares_underflow(rng):
    for d in (1, 2, 5):
        assert linalg.fro_norms(1e-300 * np.eye(d)) == pytest.approx(
            1e-300 * np.sqrt(d), rel=1e-15, abs=0.0)
    plain = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    mixed = plain.copy()
    mixed[1] *= 1e-300
    mixed[2] = 0.0
    got = linalg.fro_norms(mixed)
    assert np.array_equal(got[[0, 3]], np.linalg.norm(plain[[0, 3]], axis=(-2, -1)))
    assert got[1] == pytest.approx(1e-300 * np.linalg.norm(plain[1]), rel=1e-15, abs=0.0)
    assert got[2] == 0.0


def test_sqrt_random_roundtrip(rng):
    for _ in range(50):
        d = int(rng.integers(1, 9))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = b.conj().T @ b + 0.1 * np.eye(d)
        s = linalg.principal_sqrt(a)
        assert linalg.fro_norm(s @ s - a) <= 1e-11 * linalg.fro_norm(a)
        assert linalg.herm_defect(s) <= 1e-12 * linalg.fro_norm(s)
        assert np.linalg.eigvalsh(linalg.hermitize(s)).min() > 0


def test_sqrt_degenerate_scalar():
    for c in (0.25, 1.0, 9.0):
        assert np.array_equal(linalg.principal_sqrt(c * np.eye(3)),
                              np.sqrt(c) * np.eye(3))


def test_inverse_involution(rng):
    for _ in range(30):
        d = int(rng.integers(2, 7))
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) + 2 * np.eye(d)
        if linalg.cond_2norm(a) > 1e4:
            continue
        back = linalg.inverse(linalg.inverse(a))
        assert linalg.fro_norm(back - a) <= 1e-9 * linalg.fro_norm(a)


def test_spectrum_unitary_invariance(rng):
    for _ in range(20):
        d = int(rng.integers(2, 7))
        a = linalg.hermitize(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        w1 = linalg.eig_hermitian(a).eigenvalues
        w2 = linalg.eig_hermitian(q @ a @ q.conj().T).eigenvalues
        assert np.allclose(w1, w2, atol=1e-11)


def test_pair_encoding_roundtrip():
    """Literal [re, im] pairs, as a scenario file writes them, read back as the
    matrix and vector they encode."""
    ident = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    assert np.array_equal(linalg.matrix_from_pairs(ident), np.eye(2))
    m = np.array([[1 + 2j, 3], [0, -1j]])
    assert np.array_equal(linalg.matrix_from_pairs([[[1, 2], [3, 0]], [[0, 0], [0, -1]]]), m)
    v = np.array([1j, 2.5])
    assert np.array_equal(linalg.vector_from_pairs([[0, 1], [2.5, 0]]), v)


# --- stacks: each matrix gated and decomposed as if on its own ---

def _spd_stack(rng, n, d):
    b = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return b @ linalg.dagger(b) + 0.5 * np.eye(d)


def test_stacked_decompositions_match_one_by_one(rng):
    a = _spd_stack(rng, 7, 4)
    roots = linalg.principal_sqrt(a)
    inverses = linalg.inverse(a)
    conds = linalg.cond_2norm(a)
    defects = linalg.herm_defect(a + 1e-3j * np.eye(4))
    for k in range(a.shape[0]):
        assert np.allclose(roots[k], linalg.principal_sqrt(a[k]), rtol=0, atol=1e-14)
        assert np.allclose(inverses[k], linalg.inverse(a[k]), rtol=0, atol=1e-14)
        assert conds[k] == pytest.approx(linalg.cond_2norm(a[k]), rel=1e-14)
        assert defects[k] == pytest.approx(linalg.herm_defect(a[k] + 1e-3j * np.eye(4)),
                                           rel=1e-14)


def test_stacked_hermiticity_gate_names_first_bad_time(rng):
    a = linalg.hermitize(rng.normal(size=(5, 3, 3)) + 0j)
    a[3, 0, 1] += 1.0
    a[4, 1, 2] += 1.0
    ts = np.linspace(0.0, 1.0, 5)
    with pytest.raises(NotHermitian) as exc:
        linalg.eig_hermitian(a, t=ts)
    assert exc.value.t == ts[3]
    linalg.eig_hermitian(a[:3], t=ts[:3])


def test_stacked_positivity_gate_names_first_bad_time():
    ts = np.linspace(0.0, 1.0, 11)
    theta = np.zeros((ts.size, 2, 2), dtype=complex)
    theta[:, 0, 0] = 1.0
    theta[:, 1, 1] = 0.35 - ts   # first non-positive at t = 0.4
    with pytest.raises(NotPositiveDefinite) as exc:
        linalg.principal_sqrt(theta, t=ts)
    assert exc.value.t == pytest.approx(0.4)
    assert exc.value.lambda_min == pytest.approx(-0.05)


def test_stacked_inverse_gate_names_first_bad_time():
    ts = np.array([0.0, 0.5, 1.0, 1.5])
    a = np.stack([np.eye(2)] * 4).astype(complex)
    a[2] = np.diag([1.0, 0.0])
    a[3] = np.diag([1.0, 1e-12])
    with pytest.raises(IllConditioned) as exc:
        linalg.inverse(a, t=ts)
    assert exc.value.t == 1.0
    assert exc.value.cond == np.inf
    assert linalg.cond_2norm(a)[2] == np.inf


def test_cond_2norm_of_a_zero_matrix_is_inf_without_a_warning():
    assert linalg.cond_2norm(np.zeros((3, 3))) == np.inf
    assert linalg.cond_2norm(np.stack([np.zeros((2, 2)), np.eye(2)])).tolist() == [np.inf, 1.0]


def test_gate_without_times_reports_no_time():
    with pytest.raises(IllConditioned) as exc:
        linalg.inverse(np.stack([np.eye(2), np.diag([1.0, 0.0])]))
    assert exc.value.t is None


@pytest.mark.parametrize("bad", ["indefinite", "non-Hermitian"])
def test_positive_definite_gate_agrees_with_principal_sqrt(rng, bad):
    """principal_sqrt is the metric's positive-definite gate: it refuses the
    first bad matrix of a stack, by its Hermiticity or its spectrum, and names its time."""
    ts = np.linspace(0.0, 1.0, 6)
    a = _spd_stack(rng, ts.size, 3)
    for k in (2, 4):
        if bad == "indefinite":
            a[k] -= (np.linalg.eigvalsh(a[k])[0] + 0.1 * k) * np.eye(3)
        else:
            a[k, 0, 2] += 0.5
    with pytest.raises(NotPositiveDefinite if bad == "indefinite" else NotHermitian) as exc:
        linalg.principal_sqrt(a, t=ts)
    assert exc.value.t == ts[2]
    linalg.principal_sqrt(a[:2], t=ts[:2])


# --- the stacked product ---

_U = np.finfo(float).eps / 2   # unit roundoff


def _gamma(n):
    return n * _U / (1 - n * _U)


# 0, or of magnitude 2^-20 to 2^20: no product of two entries underflows
_ENTRY = st.floats(-2.0 ** 20, 2.0 ** 20, allow_subnormal=False).map(
    lambda x: x if abs(x) >= 2.0 ** -20 else 0.0)


def _complex_arrays(shape):
    return st.tuples(*(arrays(np.float64, shape, elements=_ENTRY) for _ in range(2))).map(
        lambda p: p[0] + 1j * p[1])


PRODUCT_SHAPES = {   # name -> (n, d) -> (a's shape, b's shape)
    "stacks": lambda n, d: ((n, d, d), (n, d, d)),
    "stack times one matrix": lambda n, d: ((n, d, d), (d, d)),
    "one matrix times stack": lambda n, d: ((d, d), (n, d, d)),
    "scan nodes": lambda n, d: ((n, 5, d, d), (n, 1, d, d)),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_matmul_agrees_with_numpy_within_the_inner_product_bound(data):
    """Entrywise within 2 gamma_(d+2) (|a||b|)_ij of np.matmul, each being within
    gamma_(d+2) of the exact product (Higham, Accuracy and Stability, section 3.6);
    np.matmul's bits above SMALL_DIM; into a strided out, the same bits."""
    d, n = data.draw(st.integers(1, 5), label="d"), data.draw(st.integers(0, 6), label="n")
    shape_a, shape_b = PRODUCT_SHAPES[data.draw(st.sampled_from(sorted(PRODUCT_SHAPES)))](n, d)
    a, b = data.draw(_complex_arrays(shape_a)), data.draw(_complex_arrays(shape_b))
    ref = np.matmul(a, b)
    got = linalg.matmul(a, b)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    if d > linalg.SMALL_DIM:
        assert np.array_equal(got, ref)
    else:
        assert (np.abs(got - ref) <= 2 * _gamma(d + 2) * (np.abs(a) @ np.abs(b))).all()
    out = np.full(ref.shape[:-1] + (2 * d,), np.nan, dtype=complex)[..., ::2]
    assert linalg.matmul(a, b, out=out) is out
    assert np.array_equal(out, got)


@pytest.mark.parametrize("alias", ["a", "b", "a reversed", "b transposed"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_matmul_refuses_an_out_that_shares_memory_with_an_input(d, alias):
    """On either side of SMALL_DIM: the rank-one updates would read what they
    have overwritten."""
    a = np.arange(3 * d * d, dtype=complex).reshape(3, d, d)
    b = a[::-1].copy()
    out = {"a": a, "b": b, "a reversed": a[::-1], "b transposed": np.swapaxes(b, -1, -2)}[alias]
    before = (a.copy(), b.copy())
    with pytest.raises(ValueError, match="share memory"):
        linalg.matmul(a, b, out=out)
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])


@pytest.mark.parametrize("err, t, text", [
    (NotHermitian(1.5e-3), None, "matrix is not Hermitian (defect 1.500e-03)"),
    (NotHermitian(1.5e-3, t=0.25), 0.25, "matrix is not Hermitian at t=0.25 (defect 1.500e-03)"),
    (NotPositiveDefinite(-0.5, 2.0), None,
     "matrix is not positive definite (lambda_min=-0.5, lambda_max=2)"),
    (NotPositiveDefinite(-0.5, 2.0, t=0.4), 0.4,
     "matrix is not positive definite at t=0.4 (lambda_min=-0.5, lambda_max=2)"),
    (IllConditioned(1e13), None, "matrix is ill-conditioned (cond=1.000e+13)"),
    (IllConditioned(1e13, t=1e-7), 1e-7, "matrix is ill-conditioned at t=1e-07 (cond=1.000e+13)"),
    (NotFinite(), None, "matrix entries must be finite"),
    (NotFinite(t=5e298), 5e298, "matrix entries must be finite at t=5e+298"),
], ids=[f"{name}{at}" for name in ("hermitian", "positive", "cond", "finite")
        for at in ("", "-at-t")])
def test_a_located_error_names_its_time_only_when_given(err, t, text):
    assert str(err) == text and err.args == (text,)
    assert err.t == t
    assert isinstance(err, ValueError) == isinstance(err, NotFinite)
