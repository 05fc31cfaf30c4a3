"""Seeded scenario generator, independent reference and correctness gate.

Each workload is built from a ``numpy.random.default_rng(seed)`` stream and
written as scenario JSON in the schema documented in ``quasiherm.scenario_io``
(row-major nests of ``[re, im]`` pairs). The program only ever sees these
files.

Alongside the files this module computes, with plain numpy and none of the
package's code, the values every CSV row must carry: the node time ``t``, the
physical norm ``norm_phys`` and the naive-generator residual ``res_naive``.
The reference follows the definitions the seed commit implements (classical
RK4 for u with h evaluated at t, t + dt/2 and t + dt; U_R = omega^-1 u
omega(0); a central difference for the residual; omega the principal root of
theta) and reproduces that commit's CSV columns to about 1e-13.
``res_corrected`` is deliberately not part of the reference: an exact
omega-dot would lower it legitimately, so it is left to its verdict.
"""

from __future__ import annotations

import json
import os

import numpy as np

SPAN = (0.0, 1.0)
HBAR = 1.0

# Reference tolerance: |x - x_ref| <= ATOL + RTOL * |x_ref| for norm_phys and
# res_naive. Reordered floating-point arithmetic moves these by ~1e-13; any
# change to the integrator, the metric root or the residual definition moves
# them by far more.
ATOL = 1e-9
RTOL = 1e-9
T_ATOL = 1e-12

VERDICTS = ("NORM_CONSERVED", "METRIC_RECONSTRUCTED", "QH_HOLDS",
            "CORRECTED_GENERATOR_OK", "NAIVE_FAILS_IFF_METRIC_MOVES")
U_ORDER = (3.7, 4.3)        # RK4 on u
UR_CORR_MIN_ORDER = 1.7     # corrected propagator with a finite-difference omega-dot

BUILTIN_NAMES = ("constant-metric-2d", "growing-metric-2d",
                 "nonhermitian-dyson", "scalar-exponential")

# name -> sizes; "kind" selects the generator, "op" what one operation does.
WORKLOADS = {
    "builtins-n2000": {"kind": "builtins", "op": "run", "dim": 2, "steps": 2000},
    "sampled-d32-n500": {"kind": "pair", "op": "run", "dim": 32, "steps": 500,
                         "snapshots": 9, "energy": 1.0},
    # The larger spectrum keeps the RK4 error at N and 2N well above the
    # rounding floor below which convergence_order refuses to measure.
    "convergence-d8": {"kind": "pair", "op": "convergence", "dim": 8, "steps": 200,
                       "snapshots": 9, "energy": 8.0},
}


def _pairs(m: np.ndarray) -> list:
    if m.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in m]
    return [_pairs(row) for row in m]


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2).conj())


def _unit_state(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _gaussian(rng, dim: int) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


# --- closed forms of the four builtins, restated for the reference ---

def _builtin_theta(name: str, ts: np.ndarray) -> np.ndarray:
    n = ts.size
    if name == "growing-metric-2d":
        th = np.zeros((n, 2, 2), dtype=complex)
        th[:, 0, 0] = 1.0
        th[:, 1, 1] = 1.0 + ts * ts
        return th
    if name == "constant-metric-2d":
        return np.broadcast_to(np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex), (n, 2, 2))
    if name == "scalar-exponential":
        return np.exp(2.0 * ts)[:, None, None] * np.eye(2, dtype=complex)
    if name == "nonhermitian-dyson":
        om = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        return np.broadcast_to(om.conj().T @ om, (n, 2, 2))
    raise ValueError(name)


_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _reference(theta_of, h_of, phi0, steps: int) -> dict:
    """t, norm_phys and res_naive on the interior nodes, from the definitions."""
    ts = np.linspace(SPAN[0], SPAN[1], steps + 1)
    dt = (SPAN[1] - SPAN[0]) / steps
    dim = phi0.size
    scale = -1j / HBAR
    u = np.eye(dim, dtype=complex)
    us = np.empty((steps + 1, dim, dim), dtype=complex)
    us[0] = u
    h_lo, h_mid, h_hi = (scale * h_of(ts[:-1] + off) for off in (0.0, 0.5 * dt, dt))
    for k in range(steps):
        k1 = h_lo[k] @ u
        k2 = h_mid[k] @ (u + (0.5 * dt) * k1)
        k3 = h_mid[k] @ (u + (0.5 * dt) * k2)
        k4 = h_hi[k] @ (u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        us[k + 1] = u
    theta = theta_of(ts)
    lam, vec = np.linalg.eigh(_herm(theta))
    vh = np.swapaxes(vec, -1, -2).conj()
    omega = (vec * np.sqrt(lam)[:, None, :]) @ vh
    omega_inv = (vec / np.sqrt(lam)[:, None, :]) @ vh
    ur = omega_inv @ us @ omega[0]
    lhs = 1j * HBAR * (ur[2:] - ur[:-2]) / (2.0 * dt)
    h_big = omega_inv[1:-1] @ h_of(ts[1:-1]) @ omega[1:-1]
    res_naive = np.linalg.norm(lhs - h_big @ ur[1:-1], axis=(1, 2))
    states = ur @ phi0
    norms = np.einsum("ki,kij,kj->k", states.conj(), theta, states).real
    return {"t": ts[1:-1], "norm_phys": norms[1:-1], "res_naive": res_naive}


def _builtin_files(rng, spec: dict, out_dir: str) -> list[dict]:
    out = []
    for name in BUILTIN_NAMES:
        phi0 = _unit_state(rng, 2)
        doc = {"dimension": 2, "hbar": HBAR,
               "time": {"start": SPAN[0], "end": SPAN[1], "steps": spec["steps"]},
               "model": {"kind": "builtin", "name": name},
               "initial_state": _pairs(phi0)}
        ref = _reference(lambda ts, n=name: _builtin_theta(n, ts),
                         lambda ts: np.broadcast_to(_SIGMA_X, (ts.size, 2, 2)),
                         phi0, spec["steps"])
        out.append(_write(out_dir, name, doc, ref))
    return out


def _pair_file(rng, spec: dict, out_dir: str) -> dict:
    """h(t) = spectral Hamiltonian + tA; theta(t) = Omega(t)^dag Omega(t),
    Omega(t) = Omega0 + t Omega1, both sampled on uniform snapshots.

    Both schedules are polynomials of degree <= 2 in t, which the package's
    cubic Hermite interpolation with second-order slopes reproduces up to
    rounding, so the reference may use the closed forms.
    """
    dim = spec["dim"]
    q, _ = np.linalg.qr(_gaussian(rng, dim))
    energies = spec["energy"] * np.sort(rng.uniform(-1.0, 1.0, size=dim))
    h0 = _herm((q * energies) @ q.conj().T)
    a = _herm(_gaussian(rng, dim))
    a *= 0.5 * spec["energy"] / np.linalg.norm(a, 2)
    u_l, _, v_h = np.linalg.svd(_gaussian(rng, dim))
    om0 = (u_l * rng.uniform(1.0, 2.0, size=dim)) @ v_h
    om1 = _gaussian(rng, dim)
    om1 *= 0.3 / np.linalg.norm(om1, 2)
    phi0 = _unit_state(rng, dim)

    def theta_of(ts):
        om = om0 + ts[:, None, None] * om1
        return _herm(np.swapaxes(om, -1, -2).conj() @ om)

    def h_of(ts):
        return h0 + ts[:, None, None] * a

    times = np.linspace(SPAN[0], SPAN[1], spec["snapshots"])
    doc = {"name": f"pair-d{dim}", "dimension": dim, "hbar": HBAR,
           "time": {"start": SPAN[0], "end": SPAN[1], "steps": spec["steps"]},
           "model": {"kind": "pair",
                     "h": {"times": times.tolist(),
                           "snapshots": [_pairs(m) for m in h_of(times)]},
                     "theta": {"times": times.tolist(),
                               "snapshots": [_pairs(m) for m in theta_of(times)]}},
           "initial_state": _pairs(phi0)}
    ref = None
    if spec["op"] == "run":
        ref = _reference(theta_of, h_of, phi0, spec["steps"])
    return _write(out_dir, f"pair-d{dim}", doc, ref)


def _write(out_dir: str, stem: str, doc: dict, ref: dict | None) -> dict:
    path = os.path.join(out_dir, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    entry = {"name": stem, "path": path, "json_bytes": os.path.getsize(path),
             "steps": doc["time"]["steps"]}
    if ref is not None:
        entry["reference"] = os.path.join(out_dir, stem + ".ref.npz")
        np.savez(entry["reference"], **ref)
    return entry


def generate(workload: str, seed: int, out_dir: str) -> list[dict]:
    """Write the workload's scenario files and references; return their index."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    os.makedirs(out_dir, exist_ok=True)
    if spec["kind"] == "builtins":
        return _builtin_files(rng, spec, out_dir)
    return [_pair_file(rng, spec, out_dir)]


def check_run(entry: dict, code: int, stdout: str, csv_path: str, columns) -> list[str]:
    """Every way one ``quasiherm run`` can be wrong; empty when it is right."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    seen = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] in ("PASS", "FAIL"):
            seen[parts[1]] = parts[0]
    if sorted(seen) != sorted(VERDICTS):
        problems.append(f"verdicts {sorted(seen)} != {sorted(VERDICTS)}")
    problems += [f"verdict {k} {v}" for k, v in seen.items() if v != "PASS"]
    try:
        with open(csv_path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as e:
        return problems + [f"unreadable CSV: {e}"]
    if tuple(header) != tuple(columns):
        return problems + [f"CSV header {header}"]
    steps = entry["steps"]
    if rows.shape != (steps - 1, len(header)):
        return problems + [f"CSV shape {rows.shape}, want ({steps - 1}, {len(header)})"]
    if not np.isfinite(rows).all():
        problems.append("non-finite CSV entries")
    ref = np.load(entry["reference"])
    for col in ("t", "norm_phys", "res_naive"):
        got = rows[:, header.index(col)]
        want = ref[col]
        if col == "t":
            bad = np.abs(got - want) > T_ATOL
        else:
            bad = np.abs(got - want) > ATOL + RTOL * np.abs(want)
        if bad.any():
            k = int(np.argmax(bad))
            problems.append(f"{col} at t={ref['t'][k]:.6g}: "
                            f"{float(got[k])!r} vs reference {float(want[k])!r}")
    return problems


def check_orders(order_u: float, order_ur_corr: float) -> list[str]:
    """The convergence gate: RK4 order for u, at least FD order for ur_corr."""
    problems = []
    if not U_ORDER[0] <= order_u <= U_ORDER[1]:
        problems.append(f"u order {order_u:.4f} outside {U_ORDER}")
    if not order_ur_corr >= UR_CORR_MIN_ORDER:
        problems.append(f"ur_corr order {order_ur_corr:.4f} below {UR_CORR_MIN_ORDER}")
    return problems
