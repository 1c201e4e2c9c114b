"""Correctness checks for benchmark ops, independent of the ctcsim solvers.

Every check here recomputes what it needs from the op's inputs with plain
numpy (tensordot gate application, an einsum loop map, a dense eigensolve),
so a faster or restructured kernel in the program is checked against code it
does not share.  Residual fields are only required to stay within the
certificate tolerance, so a more exact kernel never fails.
"""

from __future__ import annotations

import math

import numpy as np

CERT_TOL = 1e-9      # the program's fixed-point certificate, 1/2 |E(s) - s|_1
DENSITY_TOL = 1e-10  # hermiticity, unit trace and PSD floor of a state
OUTPUT_TOL = 1e-9    # trace distance of rho_out to its recomputation
SIGMA_TOL = 1e-8     # trace distance of sigma to the reference, times the gap
REPORT_ATOL = 1e-8   # absolute tolerance on every float of a CLI report
GAP_MIN = 1e-6       # below this gap the fixed point is not unique
PROBES = 32          # random Hermitian probes in a stored matrix fingerprint

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
_BUILTIN = {"h": _H, "cnot": _CNOT}

RESIDUAL_KEYS = ("residual", "max_fixed_point_residual")


def unitary(circuit) -> np.ndarray:
    """The circuit's unitary, by tensordot of each gate onto its wire axes."""
    dims = circuit.dims
    total = int(np.prod(dims))
    u = np.eye(total, dtype=complex).reshape(dims + (total,))
    for gate in circuit.gates:
        m = _BUILTIN[gate.name] if gate.matrix is None else gate.matrix
        k = len(gate.wires)
        g = m.reshape(tuple(dims[w] for w in gate.wires) * 2)
        u = np.tensordot(g, u, axes=(list(range(k, 2 * k)), list(gate.wires)))
        u = np.moveaxis(u, list(range(k)), list(gate.wires))
    return u.reshape(total, total)


def loop_map(u, rho, cr: int, dc: int) -> np.ndarray:
    """Matrix T with vec(E(s)) = T vec(s), row-major vec, for
    E(s) = Tr_CR(U (rho x s) U+)."""
    u4 = u.reshape(cr, dc, cr, dc)
    x = np.tensordot(u4, rho, axes=([2], [0]))                  # a k i c
    t = np.tensordot(x, u4.conj(), axes=([0, 3], [0, 2]))       # k i l j
    return t.transpose(0, 2, 1, 3).reshape(dc * dc, dc * dc)


def fixed_point(t, dc: int) -> tuple[np.ndarray, float]:
    """The eigenvalue-1 state of T and the spectral gap 1 - |lambda_2|."""
    lam, vecs = np.linalg.eig(t)
    order = np.argsort(np.abs(lam - 1.0))
    sigma = vecs[:, order[0]].reshape(dc, dc)
    sigma = (sigma + sigma.conj().T) / 2
    sigma = sigma / sigma.trace().real
    gap = 1.0 - float(np.abs(lam[order[1:]]).max()) if lam.size > 1 else 1.0
    return sigma, gap


def output(u, rho, sigma, cr: int, dc: int) -> np.ndarray:
    """Tr_CTC(U (rho x sigma) U+)."""
    joint = u @ np.kron(rho, sigma) @ u.conj().T
    return joint.reshape(cr, dc, cr, dc).trace(axis1=1, axis2=3)


def trace_distance(a, b) -> float:
    diff = np.asarray(a) - np.asarray(b)
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


def density_errors(m, what: str) -> list[str]:
    m = np.asarray(m)
    errors = []
    herm = float(np.abs(m - m.conj().T).max())
    if herm > DENSITY_TOL:
        errors.append(f"{what} not Hermitian ({herm:.2e})")
    tr = abs(m.trace() - 1.0)
    if tr > DENSITY_TOL:
        errors.append(f"{what} trace off by {tr:.2e}")
    lam_min = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    if lam_min < -DENSITY_TOL:
        errors.append(f"{what} has eigenvalue {lam_min:.2e}")
    return errors


def evolution_errors(u, rho, cr: int, dc: int, rho_out, fp) -> list[str]:
    """Check a ctc_evolve result (rho_out, FixedPointResult) for inputs
    (U, rho): a certified state that is the loop's fixed point, and the
    output that state implies."""
    sigma = np.asarray(fp.sigma)
    errors = density_errors(sigma, "sigma") + density_errors(rho_out, "rho_out")
    if not fp.residual <= CERT_TOL:
        errors.append(f"reported residual {fp.residual:.2e} > {CERT_TOL:.0e}")
    t = loop_map(u, rho, cr, dc)
    image = (t @ sigma.reshape(-1)).reshape(dc, dc)
    residual = trace_distance(image, sigma)
    if residual > CERT_TOL:
        errors.append(f"sigma is not a fixed point: residual {residual:.2e}")
    reference, gap = fixed_point(t, dc)
    if gap > GAP_MIN:
        dist = trace_distance(sigma, reference)
        if dist > SIGMA_TOL / min(gap, 1.0):
            errors.append(f"sigma is {dist:.2e} from the unique fixed point "
                          f"(gap {gap:.2e})")
    dist = trace_distance(rho_out, output(u, rho, sigma, cr, dc))
    if dist > OUTPUT_TOL:
        errors.append(f"rho_out is {dist:.2e} from Tr_CTC(U (rho x sigma) U+)")
    return errors


def _probes(d: int) -> np.ndarray:
    rng = np.random.default_rng([20091, d])
    g = rng.standard_normal((PROBES, d, d)) + 1j * rng.standard_normal((PROBES, d, d))
    h = g + np.conj(np.swapaxes(g, 1, 2))
    return h / np.linalg.norm(h, axis=(1, 2), keepdims=True)


def fingerprint(m) -> list[float]:
    """Re tr(H_p m) for fixed random Hermitian H_p of unit Frobenius norm.

    Two matrices whose fingerprints differ by more than x differ by more
    than x in Frobenius norm; a random difference of size y shows up as
    about y / sqrt(d^2) in each probe.
    """
    m = np.asarray(m)
    return np.einsum("pij,ji->p", _probes(m.shape[0]), m).real.tolist()


def compare(got, want, path: str = "results") -> list[str]:
    """Differences of a decoded JSON value from its reference.

    Strings, booleans and integers must be equal, floats equal within
    REPORT_ATOL, and fields named in RESIDUAL_KEYS only within CERT_TOL.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got}"
                    f" != {sorted(want)}"]
        errors = []
        for key in sorted(want):
            sub = f"{path}.{key}"
            if key in RESIDUAL_KEYS:
                if not (isinstance(got[key], float) and got[key] <= CERT_TOL):
                    errors.append(f"{sub} = {got[key]!r} exceeds {CERT_TOL:.0e}")
            else:
                errors += compare(got[key], want[key], sub)
        return errors
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [e for i, (g, w) in enumerate(zip(got, want))
                for e in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(got - want) <= REPORT_ATOL else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []
