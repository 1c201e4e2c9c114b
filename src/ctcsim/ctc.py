"""The self-consistency engine.

A circuit with input state rho_cr induces a linear map on the time-machine
register,

    E(sigma) = Tr_CR( U (rho_cr x sigma) U+ ),

represented here as a matrix acting on column-stacked vectorizations. With
u4 = U.reshape(d_cr, d_ctc, d_cr, d_ctc), so u4[a,k,b,i] = <a,k|U|b,i> (CR
index first), the image of the matrix unit |i><j| is

    E(|i><j|)[k,l] = sum_abc u4[a,k,b,i] rho_cr[b,c] conj(u4[a,l,c,j]),

computed for all i, j at once by two tensor contractions; the same half
contraction with rho_cr also gives the output map below. The engine finds a
density matrix sigma* with E(sigma*) = sigma* (one always exists for a
completely positive trace-preserving E) and then produces the
causality-respecting output

    rho_out = Tr_CTC( U (rho_cr x sigma*) U+ ).

Because sigma* depends on rho_cr, the full map rho_cr -> rho_out is
nonlinear. Two fixed-point selections are provided for degenerate fixed
spaces: "canonical" (the spectral projection of the maximally mixed state,
i.e. the Cesaro limit seeded at I/d) and "max_entropy" (entropy maximization
over the fixed space). Both are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .circuit import Circuit, compile_unitary
from .qmat import (DEFAULT_TOL, Tolerances, ValidationError, ValidationReport,
                   dagger, require_density, require_unitary, trace_distance,
                   validate)


class SolverError(RuntimeError):
    """The fixed-point solver failed (numerical breakdown or bad residual)."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        super().__init__(message)


class ConvergenceError(SolverError):
    """An iterative solver ran out of iterations before meeting tolerance."""


def _vec(m: np.ndarray) -> np.ndarray:
    # column stacking: vec(|i><j|) has a single 1 at index j*d + i
    return np.asarray(m).reshape(-1, order="F")


def _unvec(v: np.ndarray) -> np.ndarray:
    d = int(round(np.sqrt(v.size)))
    return np.asarray(v).reshape(d, d, order="F")


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + dagger(m)) / 2


@dataclass(frozen=True)
class Superoperator:
    """Matrix form of a linear map on d_ctc x d_ctc matrices.

    matrix is (d_ctc^2, d_ctc^2) and acts on column-stacked vectorizations.
    """

    d_ctc: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d2 = self.d_ctc * self.d_ctc
        if m.shape != (d2, d2):
            raise ValidationError(
                f"superoperator matrix shape {m.shape}, expected {(d2, d2)}")
        object.__setattr__(self, "matrix", m)

    def apply(self, sigma) -> np.ndarray:
        sigma = np.asarray(sigma, dtype=complex)
        if sigma.shape != (self.d_ctc, self.d_ctc):
            raise ValidationError(
                f"operand shape {sigma.shape}, expected "
                f"{(self.d_ctc, self.d_ctc)}")
        return _unvec(self.matrix @ _vec(sigma))


@dataclass(frozen=True)
class FixedPointResult:
    """A certified fixed point of an induced superoperator.

    Attributes:
        sigma: the chosen consistent time-machine state.
        residual: recomputed certificate, half the trace norm of
            E(sigma) - sigma.
        fixed_space_dim: dimension of the eigenvalue-1 subspace (eigenvalues
            within the detection window of 1).
        method: "exact", "cesaro" or "bruteforce".
        selection: "canonical" or "max_entropy".
    """

    sigma: np.ndarray
    residual: float
    fixed_space_dim: int
    method: str
    selection: str


def _half_conjugation(u: np.ndarray, rho_cr: np.ndarray, cr_dim: int,
                      ctc_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """u4 = U.reshape(cr, ctc, cr, ctc) and w[a,k,i,c] = sum_b u4[a,k,b,i] rho[b,c].

    w is U (rho_cr x .) with the CTC input index i left open; contracting it
    with conj(u4) closes the conjugation for every CTC operand at once.
    """
    u4 = u.reshape(cr_dim, ctc_dim, cr_dim, ctc_dim)
    return u4, np.tensordot(u4, rho_cr, axes=([2], [0]))


def induced_superoperator(u, rho_cr, cr_dims, ctc_dims,
                          tol: Tolerances = DEFAULT_TOL) -> Superoperator:
    """Matrix of sigma -> Tr_CR(U (rho_cr x sigma) U+).

    Column j*d+i holds the column-stacked image of |i><j|, so entry
    (l*d+k, j*d+i) is E(|i><j|)[k,l] = sum_abc u4[a,k,b,i] rho[b,c]
    conj(u4[a,l,c,j]) with u4 = U.reshape(cr, d, cr, d). Built as
    t[k,i,l,j] = sum_ac w[a,k,i,c] conj(u4[a,l,c,j]) from the half
    conjugation w, then transposed to (l,k,j,i) and flattened.
    """
    cr_dim = int(np.prod(cr_dims))
    dc = int(np.prod(ctc_dims))
    u = require_unitary(u, tol, "interaction unitary")
    if u.shape != (cr_dim * dc, cr_dim * dc):
        raise ValidationError(
            f"unitary dimension {u.shape[0]} != cr*ctc = {cr_dim * dc}")
    rho = require_density(rho_cr, tol, "rho_cr")
    if rho.shape != (cr_dim, cr_dim):
        raise ValidationError(f"rho_cr dimension {rho.shape[0]} != {cr_dim}")
    u4, w = _half_conjugation(u, rho, cr_dim, dc)
    t = np.tensordot(w, u4.conj(), axes=([0, 3], [0, 2]))
    return Superoperator(d_ctc=dc,
                         matrix=t.transpose(2, 0, 3, 1).reshape(dc * dc, dc * dc))


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Choi matrix sum_ij E(|i><j|) x |i><j|; PSD iff E is completely positive.

    An index reshuffle of the superoperator matrix: entry (k*d+i, l*d+j) is
    E(|i><j|)[k,l], which the matrix holds at (l*d+k, j*d+i).
    """
    d = s.d_ctc
    return s.matrix.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def validate_superoperator(s: Superoperator,
                           tol: Tolerances = DEFAULT_TOL) -> ValidationReport:
    """Report trace-preservation (within 1e-10) and complete-positivity
    (Choi PSD within 1e-9) violations."""
    d = s.d_ctc
    violations: list[tuple[str, float]] = []
    # row l*d+k of column j*d+i is E(|i><j|)[k,l]; TP means its trace is delta_ij
    traces = s.matrix.reshape(d, d, d * d).trace(axis1=0, axis2=1)
    tp_err = float(np.abs(traces - _vec(np.eye(d))).max())
    if tp_err > 1e-10:
        violations.append(("trace preserving", float(tp_err)))
    lam_min = float(scipy.linalg.eigvalsh(_hermitize(choi_matrix(s)))[0])
    if lam_min < -1e-9:
        violations.append(("completely positive", -lam_min))
    return ValidationReport("superoperator", tuple(violations))


def _schur_fixed_cluster(m: np.ndarray, window: float):
    """Ordered complex Schur form with the eigenvalue-1 cluster leading."""
    t, z, sdim = scipy.linalg.schur(
        m, output="complex", sort=lambda lam: abs(lam - 1.0) <= window)
    return t, z, int(sdim)


def _spectral_projector(t: np.ndarray, z: np.ndarray, sdim: int) -> np.ndarray:
    """Projection onto the leading Schur cluster along the complement.

    Annihilates every other spectral component, decaying and peripheral
    alike, so applying it to a state is the Cesaro limit of the iteration
    seeded there.
    """
    n = t.shape[0]
    if sdim == n:
        return np.eye(n, dtype=complex)
    t11 = t[:sdim, :sdim]
    t12 = t[:sdim, sdim:]
    t22 = t[sdim:, sdim:]
    # X solves T11 X - X T22 = -T12 so that [[I, X],[0, 0]] commutes with T
    x = scipy.linalg.solve_sylvester(t11, -t22, t12)
    q = np.zeros((n, n), dtype=complex)
    q[:sdim, :sdim] = np.eye(sdim)
    q[:sdim, sdim:] = x
    return z @ q @ dagger(z)


def _psd_clip(sigma: np.ndarray, floor: float) -> np.ndarray:
    """Apply the repair policy: eigenvalues in [-floor, 0) become 0, anything
    lower is an error; the result is renormalized to unit trace."""
    lam, vecs = scipy.linalg.eigh(_hermitize(sigma))
    if lam[0] < -floor:
        raise SolverError(
            f"fixed-point candidate has eigenvalue {lam[0]:.3e} below the PSD floor",
            residual=None)
    lam = np.clip(lam, 0.0, None)
    out = (vecs * lam) @ dagger(vecs)
    return out / out.trace().real


def _certify(sigma: np.ndarray, s: Superoperator, fixed_space_dim: int,
             method: str, selection: str, tol: Tolerances) -> FixedPointResult:
    residual = trace_distance(s.apply(sigma), sigma)
    if residual > tol.fixed_point_residual:
        raise SolverError(
            f"fixed-point residual {residual:.3e} exceeds tolerance "
            f"{tol.fixed_point_residual:.1e}", residual=residual)
    report = validate(sigma, "density", tol)
    if not report.ok:
        raise SolverError(f"fixed-point candidate is not a density matrix: "
                          f"{report.message()}", residual=residual)
    return FixedPointResult(sigma=sigma, residual=residual,
                            fixed_space_dim=fixed_space_dim,
                            method=method, selection=selection)


def _hermitian_fixed_basis(z: np.ndarray, sdim: int) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt, real coefficients) Hermitian basis of the
    fixed subspace. CPTP maps commute with the adjoint, so the subspace is
    adjoint-closed and its Hermitian part has real dimension sdim."""
    basis: list[np.ndarray] = []
    for k in range(sdim):
        f = _unvec(z[:, k])
        for g in (_hermitize(f), (f - dagger(f)) / 2j):
            w = g.copy()
            for b in basis:
                w = w - b * np.trace(dagger(b) @ w).real
            nw = float(np.sqrt(np.trace(dagger(w) @ w).real))
            if nw > 1e-9:
                basis.append(w / nw)
    if len(basis) != sdim:
        raise SolverError(
            f"fixed subspace not adjoint-closed ({len(basis)} Hermitian "
            f"directions for cluster size {sdim})")
    return basis


def _max_entropy_point(basis: list[np.ndarray], start: np.ndarray) -> np.ndarray:
    """Entropy maximization over the unit-trace PSD slice of span(basis)."""
    # imported here: scipy.optimize costs about 0.2 s and only this path needs it
    from scipy.optimize import minimize

    def sigma_of(c):
        out = np.zeros_like(basis[0])
        for ck, b in zip(c, basis):
            out = out + ck * b
        return out

    def neg_entropy(c):
        lam = np.clip(scipy.linalg.eigvalsh(sigma_of(c)), 1e-300, None)
        return float((lam * np.log2(lam)).sum())

    def neg_entropy_grad(c):
        lam, vecs = scipy.linalg.eigh(sigma_of(c))
        lam = np.clip(lam, 1e-300, None)
        grad_op = (vecs * (np.log2(lam) + 1.0 / np.log(2.0))) @ dagger(vecs)
        return np.array([np.trace(dagger(b) @ grad_op).real for b in basis])

    c0 = np.array([np.trace(dagger(b) @ start).real for b in basis])
    trace_jac = np.array([b.trace().real for b in basis])
    constraints = [
        {"type": "eq", "fun": lambda c: sigma_of(c).trace().real - 1.0,
         "jac": lambda c: trace_jac},
        {"type": "ineq",
         "fun": lambda c: float(scipy.linalg.eigvalsh(sigma_of(c))[0])},
    ]
    res = minimize(neg_entropy, c0, jac=neg_entropy_grad, method="SLSQP",
                   constraints=constraints, tol=1e-8,
                   options={"maxiter": 1000, "ftol": 1e-14})
    candidate = _hermitize(sigma_of(res.x))
    # keep the better of start vs search outcome; the objective is concave so
    # the search should never lose, but SLSQP can stall at the boundary
    if neg_entropy(res.x) > neg_entropy(c0) + 1e-12:
        return start
    return candidate


def fixed_point_exact(s: Superoperator, selection: str = "canonical",
                      tol: Tolerances = DEFAULT_TOL) -> FixedPointResult:
    """Fixed point via the spectral projection onto the eigenvalue-1 subspace.

    canonical: image of the maximally mixed state under the projection that
    kills all decaying and peripheral components (the closed form of Cesaro
    averaging), Hermitized and renormalized. max_entropy: entropy
    maximization over the Hermitian unit-trace PSD slice of the fixed
    subspace (interior search, tolerance 1e-8), seeded at the canonical point.

    Raises:
        SolverError: no eigenvalue within the detection window of 1 (signals
            a non-CPTP or numerically broken input), or certification failure
            (residual above tolerance, or the result fails density
            validation).
    """
    if selection not in ("canonical", "max_entropy"):
        raise ValidationError(f"unknown selection {selection!r}")
    d = s.d_ctc
    t, z, sdim = _schur_fixed_cluster(s.matrix, tol.eigenvalue_one_window)
    if sdim == 0:
        raise SolverError("no superoperator eigenvalue within the detection "
                          "window of 1; input is not a valid CPTP map")
    projector = _spectral_projector(t, z, sdim)
    sigma = _unvec(projector @ _vec(np.eye(d, dtype=complex) / d))
    sigma = _hermitize(sigma)
    sigma = sigma / sigma.trace().real
    if selection == "max_entropy" and sdim > 1:
        basis = _hermitian_fixed_basis(z, sdim)
        sigma = _max_entropy_point(basis, sigma)
        sigma = _psd_clip(sigma, tol.psd_floor)
    return _certify(sigma, s, sdim, "exact", selection, tol)


def fixed_point_cesaro(s: Superoperator, init=None, max_iter: int = 2 ** 40,
                       tol: float | None = None,
                       tolerances: Tolerances = DEFAULT_TOL) -> FixedPointResult:
    """Fixed point by the running Cesaro mean of plain map iteration.

    Evaluates the mean of E^1(init)..E^N(init) at N = 2, 4, 8, ... by operator
    doubling and stops once half the trace norm of E(mean) - mean AND of the
    step from the previous doubling are both <= tol. Repeated squaring is
    guarded: eigenvalues numerically above 1 explode under doubling, so the
    iteration stops early (and reports non-convergence) if the powers blow up.

    Args:
        s: the superoperator.
        init: starting density matrix, default maximally mixed.
        max_iter: cap on N.
        tol: convergence tolerance, default Tolerances.fixed_point_residual.

    Raises:
        ConvergenceError: max_iter (or the squaring guard) reached without
            meeting tol; carries the last residual.
    """
    if tol is None:
        tol = tolerances.fixed_point_residual
    if tol <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    d = s.d_ctc
    if init is None:
        init = np.eye(d, dtype=complex) / d
    init = require_density(init, tolerances, "init")
    m = s.matrix
    dim = m.shape[0]
    v0 = _vec(init)

    power = m.copy()                       # M^N
    mean_op = (np.eye(dim, dtype=complex) + m) / 2.0   # (1/N) sum_{n<N} M^n
    n = 2

    def evaluate(op):
        raw = _unvec(m @ (op @ v0))        # mean over E^1..E^N
        sig = _hermitize(raw)
        return sig / sig.trace().real

    cert_tol = replace(tolerances, fixed_point_residual=max(
        tol, tolerances.fixed_point_residual))

    def finish(sigma_raw: np.ndarray) -> FixedPointResult:
        sigma = _psd_clip(sigma_raw, tolerances.psd_floor)
        dim_est = max(1, int(round((m @ mean_op).trace().real)))
        return _certify(sigma, s, dim_est, "cesaro", "canonical", cert_tol)

    prev = evaluate(mean_op)
    last_residual = trace_distance(s.apply(prev), prev)
    if last_residual <= tol:
        # the N=2 mean already sits on a fixed point (e.g. constant maps)
        return finish(prev)
    while n * 2 <= max_iter:
        squared = power @ power
        if not np.isfinite(squared).all() or np.abs(squared).max() > 1e6:
            raise ConvergenceError(
                f"power iteration blew up at N={n} with residual "
                f"{last_residual:.3e} (eigenvalues numerically above 1)",
                residual=last_residual)
        power = squared
        mean_op = mean_op @ (np.eye(dim, dtype=complex) + power) / 2.0
        n *= 2
        current = evaluate(mean_op)
        r_fixed = trace_distance(s.apply(current), current)
        r_step = trace_distance(current, prev)
        last_residual = r_fixed
        if r_fixed <= tol and r_step <= tol:
            return finish(current)
        prev = current
    raise ConvergenceError(
        f"Cesaro iteration did not converge within N={max_iter} "
        f"(last residual {last_residual:.3e})", residual=last_residual)


def evolve_given_ctc_state(u, rho_cr, sigma, cr_dim: int, ctc_dim: int) -> np.ndarray:
    """Ordinary (linear) evolution for a FIXED time-machine state:
    Tr_CTC(U (rho_cr x sigma) U+).

    Closes the half conjugation w of induced_superoperator with sigma on
    its open CTC input, ws[a,k,c,j] = sum_i w[a,k,i,c] sigma[i,j], then
    traces the CTC output: out[a,e] = sum_kcj ws[a,k,c,j] conj(u4[e,k,c,j]).
    """
    u = np.asarray(u, dtype=complex)
    rho = np.asarray(rho_cr, dtype=complex)
    u4, w = _half_conjugation(u, rho, cr_dim, ctc_dim)
    ws = np.tensordot(w, np.asarray(sigma, dtype=complex), axes=([2], [0]))
    return np.tensordot(ws, u4.conj(), axes=([1, 2, 3], [1, 2, 3]))


def ctc_evolve(circuit: Circuit, rho_cr, selection: str = "canonical",
               tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, FixedPointResult]:
    """Full nonlinear evolution of a CR input through a circuit.

    Composes the induced superoperator, the fixed-point solve, and the final
    partial trace. Returns the evolved CR state together with the fixed-point
    record. rho_cr is validated once, by induced_superoperator.
    """
    u = compile_unitary(circuit)
    superop = induced_superoperator(u, rho_cr, circuit.cr_dims, circuit.ctc_dims,
                                    tol)
    fp = fixed_point_exact(superop, selection, tol)
    rho_out = evolve_given_ctc_state(u, rho_cr, fp.sigma, circuit.cr_dim,
                                     circuit.ctc_dim)
    report = validate(rho_out, "density", tol)
    if not report.ok:
        raise SolverError(f"evolved state failed validation: {report.message()}")
    return rho_out, fp
