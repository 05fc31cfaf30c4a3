import json

import numpy as np
import pytest

from quasiherm import builtin_names, dynamics, make_builtin, verify


@pytest.fixture(scope="session")
def growing():
    return make_builtin("growing-metric-2d")


@pytest.fixture(scope="session")
def growing_result(growing):
    return dynamics.evolve(growing)


@pytest.fixture(scope="session")
def growing_diag(growing_result):
    return verify.diagnostics_from_result(growing_result)


@pytest.fixture(scope="session")
def growing_diag_4000():
    s = make_builtin("growing-metric-2d", steps=4000)
    return verify.run_diagnostics(s)


@pytest.fixture(scope="session")
def builtin_diag():
    out = {}
    for name in builtin_names():
        s = make_builtin(name)
        out[name] = (s, verify.run_diagnostics(s))
    return out


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260823)


def pairs(m):
    """A vector, a matrix or a nest of them as the [re, im] pairs a scenario file
    holds; test modules import it (from conftest import pairs)."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in m]
    return [pairs(row) for row in m]


@pytest.fixture(scope="session")
def sampled_pair_text():
    """A d=8 pair-mode scenario file: h(t) = h0 + t a and theta(t) = Om(t)† Om(t),
    Om(t) = Om0 + t Om1, both sampled on 9 snapshots; 600 steps (four blocks)."""
    gen = np.random.default_rng(7)
    d = 8

    def gaussian():
        return gen.normal(size=(d, d)) + 1j * gen.normal(size=(d, d))

    h0, a = gaussian(), 0.1 * gaussian()
    h0, a = h0 + h0.conj().T, a + a.conj().T
    om0 = 3.0 * np.eye(d) + 0.2 * gaussian()
    om1 = 0.2 * gaussian()
    times = np.linspace(0.0, 1.0, 9)
    oms = [om0 + t * om1 for t in times]
    return json.dumps({
        "dimension": d,
        "time": {"start": 0.0, "end": 1.0, "steps": 600},
        "model": {"kind": "pair",
                  "h": {"times": times.tolist(),
                        "snapshots": [pairs(h0 + t * a) for t in times]},
                  "theta": {"times": times.tolist(),
                            "snapshots": [pairs(om.conj().T @ om) for om in oms]}},
    })
