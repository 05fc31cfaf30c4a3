"""The certificate-first inverse gate decides exactly as the spectral test.

``linalg.inverse`` admits a matrix from its computed inverse alone, or from
a candidate inverse X it is given, when 2 ||A||_F ||X||_F <= cond_max and
||AX - I||_F <= 1/2. The reference below
is the gate as it was before the certificate: an SVD condition number for
every matrix, then ``inv``. Both sides must admit the same stacks, return
the same inverse and raise the same exception with the same values and time.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pairs
from quasiherm import cli, linalg
from quasiherm.errors import IllConditioned


def reference_inverse(a, cond_max, t):
    m = linalg.as_matrices(a, t)
    c = np.atleast_1d(linalg.cond_2norm(m))
    k = linalg._first_failure(~(c <= cond_max))
    if k is not None:
        raise IllConditioned(float(c[k]), t=linalg._at(t, k))
    return np.linalg.inv(m)


def outcome(gate, *args):
    """What a gate did: ("ok", value), or the exception's type and fields."""
    try:
        return "ok", gate(*args)
    except IllConditioned as e:
        return "ill", e.cond, e.t
    except np.linalg.LinAlgError as e:
        return "linalg", str(e)


def assert_same(got, want):
    assert got[0] == want[0]
    if got[0] == "ok":   # the inverse as np.linalg.inv computes it, bit for bit
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1:] == want[1:]


def unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def spread(rng, d, ratio):
    """d values from 1 down to ratio: both ends exact, the rest log-uniform between."""
    inner = ratio ** rng.uniform(0.0, 1.0, size=max(d - 2, 0))
    return np.sort(np.concatenate([[1.0, ratio][:d], inner]))[::-1]


def conditioned(rng, d, kappa):
    """A d x d matrix with singular values from 1 down to 1/kappa."""
    return (unitary(rng, d) * spread(rng, d, 1.0 / kappa)) @ unitary(rng, d).conj().T


def singular(rng, d):
    """An exactly singular matrix: its last row repeats its first."""
    m = rng.integers(-3, 4, size=(d, d)).astype(complex)
    m[-1] = m[0]
    return m


MATRIX_KINDS = ("kappa", "kappa", "kappa", "singular", "zero", "big", "small")


@st.composite
def inverse_cases(draw):
    cond_max = draw(st.sampled_from([1e2, 1e8, 1e12, 1e15]))
    d = draw(st.integers(2, 6))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for _ in range(n):
        kind = draw(st.sampled_from(MATRIX_KINDS))
        kappa = cond_max * 8.0 ** rng.uniform(-1.0, 1.0)   # log-uniform in [c/8, 8c]
        if kind == "singular":
            mats.append(singular(rng, d))
        elif kind == "zero":
            mats.append(np.zeros((d, d), dtype=complex))
        else:
            scale = {"kappa": 1.0, "big": 1e200, "small": 1e-200}[kind]
            mats.append(scale * conditioned(rng, d, kappa))
    return np.array(mats), cond_max, np.sort(rng.uniform(0.0, 1.0, size=n))


@settings(max_examples=300, deadline=None)
@given(inverse_cases())
def test_inverse_decides_as_the_svd_reference(case):
    stack, cond_max, ts = case
    assert_same(outcome(linalg.inverse, stack, cond_max, ts),
                outcome(reference_inverse, stack, cond_max, ts))


CANDIDATE_KINDS = ("exact", "times 10", "times 0.1", "perturbed", "zero", "inf entry")
_NEVER = ("times 10", "times 0.1", "zero", "inf entry")   # r >= 0.9 sqrt(d), or not finite


@st.composite
def candidate_cases(draw):
    """An inverse case, a candidate inverse per matrix and whether the
    candidate certifies it: True, False, or None where the draw leaves it open.

    A candidate is the matrix's inverse as inv (pinv where inv refuses it)
    computes it, scaled by 10 or by 0.1, perturbed by 1e-6 of its largest
    entry, a zero matrix, or its inverse with one entry inf. Half the cases
    are clean: every matrix has cond <= min(cond_max, 1/(16 (d + 2)^2 eps))
    / (4d) and its exact inverse as candidate, which certifies it, since then
    2 ||A||_F ||X||_F <= 2 d cond is at most half the bar and r is far below
    1/2. Scaled, zero and inf-entry candidates never certify (r is at least
    0.9 sqrt(d), or nan), nor do candidates of matrices scaled by 1e200 or
    1e-200, whose Frobenius norms overflow."""
    stack, cond_max, ts = draw(inverse_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = stack.shape[:2]
    clean = draw(st.booleans())
    if clean:
        bar = min(cond_max, 1.0 / (16 * (d + 2) ** 2 * np.finfo(float).eps)) / (4 * d)
        stack = np.array([conditioned(rng, d, bar ** rng.uniform()) for _ in range(n)])
    scaled = np.abs(stack).max(axis=(-2, -1)) > 1e100
    scaled |= (np.abs(stack).max(axis=(-2, -1)) < 1e-100) & (stack != 0).any(axis=(-2, -1))
    cands, certifies = [], []
    for a, big_or_small in zip(stack, scaled):
        kind = "exact" if clean else draw(st.sampled_from(CANDIDATE_KINDS))
        try:
            x = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            x = np.linalg.pinv(a)
        if kind in ("times 10", "times 0.1"):
            x = float(kind.split()[1]) * x
        elif kind == "perturbed":
            x = x + 1e-6 * np.abs(x).max() * (rng.normal(size=(d, d))
                                                + 1j * rng.normal(size=(d, d)))
        elif kind == "zero":
            x = np.zeros_like(x)
        elif kind == "inf entry":
            x[rng.integers(d), rng.integers(d)] = np.inf
        cands.append(x)
        certifies.append(True if clean else False if kind in _NEVER or big_or_small else None)
    return stack, cond_max, ts, np.array(cands), certifies


@settings(max_examples=300, deadline=None)
@given(candidate_cases())
def test_a_candidate_inverse_decides_as_the_svd_reference(case):
    """Given a candidate, the gate admits or refuses as the SVD reference does,
    with the same exception, values and t. Each matrix's inverse is decided
    alone: its candidate, bit for bit, where that certifies it, else inv's
    inverse of that matrix."""
    stack, cond_max, ts, cand, certifies = case
    got = outcome(linalg.inverse, stack, cond_max, ts, cand)
    want = outcome(reference_inverse, stack, cond_max, ts)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1:] == want[1:]
        return
    for x, c, w, certified in zip(got[1], cand, want[1], certifies):
        from_candidate, from_inv = np.array_equal(x, c), np.array_equal(x, w)
        if certified is None:
            assert from_candidate or from_inv
        else:
            assert from_candidate if certified else from_inv


def test_a_certified_candidate_is_returned_without_inv(rng, monkeypatch):
    """A candidate that certifies every matrix is the result, and inv is not
    called; one that misses a matrix is replaced there alone, by inv's inverse
    of that matrix."""
    stack = np.array([conditioned(rng, 5, 10.0) for _ in range(4)])
    cand, inv_calls = np.linalg.inv(stack), []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inv_calls.append(len(a)) or inv(a))
    assert np.shares_memory(linalg.inverse(stack, 1e8, candidate=cand), cand)
    assert inv_calls == []
    cand[2] *= 10.0
    got = linalg.inverse(stack, 1e8, candidate=cand)
    assert np.array_equal(got[2], inv(stack[2])) and np.array_equal(np.delete(got, 2, 0),
                                                                    np.delete(cand, 2, 0))
    assert inv_calls == [1]


@pytest.mark.parametrize("cond_max", [1e2, 1e8, 1e12, 1e15])
def test_inverse_of_one_matrix_decides_as_the_reference(rng, cond_max):
    for kappa in cond_max * np.geomspace(1 / 8, 8, 25):
        m = conditioned(rng, 4, kappa)
        assert_same(outcome(linalg.inverse, m, cond_max),
                    outcome(reference_inverse, m, cond_max, None))


def test_inverse_does_not_trust_an_inaccurate_inverse(rng, monkeypatch):
    """The certificate rests on ||AX - I|| <= 1/2, not on X being right: a computed
    inverse ten times too small must not admit a matrix above the ceiling."""
    m = conditioned(rng, 3, 1e6)
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: 0.1 * inv(a))
    with pytest.raises(IllConditioned) as exc:
        linalg.inverse(m, cond_max=9e5)
    assert exc.value.cond == pytest.approx(1e6, rel=1e-6)


def test_inverse_certifies_a_well_conditioned_stack_without_an_svd(rng, monkeypatch):
    stack = np.array([conditioned(rng, 5, 10.0) for _ in range(4)])
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: seen.append(len(a)) or
                        svd(a, *args, **kw))
    assert np.array_equal(linalg.inverse(stack, 1e8), np.linalg.inv(stack))
    assert seen == [0]   # cond_2norm still runs, on the empty undecided subset


def test_inverse_leaves_a_matrix_near_one_over_eps_to_the_svd(rng, monkeypatch):
    """Above 2 ||A||_F ||X||_F = 1/(16 (d+2)^2 eps), 1.8e13 at d = 2, the SVD's
    own cond is too uncertain to anticipate: it decides, whatever cond_max is."""
    stack = np.array([conditioned(rng, 2, 1e13), conditioned(rng, 2, 10.0)])
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: seen.append(len(a)) or
                        svd(a, *args, **kw))
    assert np.array_equal(linalg.inverse(stack, 1e15), np.linalg.inv(stack))
    assert seen == [1]


def test_inverse_counts_the_rounding_of_the_residual(rng, monkeypatch):
    """||AX - I||_F computes to 0.495, but at ||A||_F ||X||_F = 3e12 its rounding
    may reach (d+2)^2 eps ||A||_F ||X||_F = 0.01: the 1/2 is not certain."""
    m = conditioned(rng, 2, 5e12)
    inv, svd = np.linalg.inv, np.linalg.svd
    monkeypatch.setattr(np.linalg, "inv", lambda a: (1 - 0.495 / np.sqrt(2)) * inv(a))
    seen = []
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: seen.append(len(a)) or
                        svd(a, *args, **kw))
    x = linalg.inverse(m, 1e15)
    assert np.linalg.norm(m @ x - np.eye(2)) == pytest.approx(0.495, abs=1e-3)
    assert seen == [1]


def test_sampled_pair_run_takes_no_svd_and_no_eigvalsh(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 1.0, 5)
    om0 = np.eye(3) + 0.1 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    om1 = 0.2 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    h0 = 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "dimension": 3, "time": {"steps": 500},
        "model": {"kind": "pair", "h": pairs(h0 + h0.conj().T),
                  "theta": {"times": list(times),
                            "snapshots": [pairs((om0 + t * om1).conj().T @ (om0 + t * om1))
                                          for t in times]}}}))
    svd_matrices, eigvalsh_calls, cond_calls = [], [], []
    svd, cond_2norm = np.linalg.svd, linalg.cond_2norm
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: svd_matrices.append(
        int(np.prod(np.shape(a)[:-2]))) or svd(a, *args, **kw))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **kw: eigvalsh_calls.append(1))
    monkeypatch.setattr(linalg, "cond_2norm", lambda a: cond_calls.append(1) or cond_2norm(a))
    code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out.csv")])
    assert code == 0, capsys.readouterr()
    assert cond_calls and sum(svd_matrices) == 0
    assert not eigvalsh_calls
