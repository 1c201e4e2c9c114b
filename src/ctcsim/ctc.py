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
nonlinear. The exact solver first tries one LU solve of the bordered system
(M - I with row 0 replaced by the trace row). It takes that answer only
when the LAPACK condition estimate shows the fixed point is unique and the
estimate times the residual bounds its error by FIXED_POINT_RESIDUAL.
Otherwise (a singular or ill-conditioned system: a degenerate or
near-degenerate fixed space) it falls back to an ordered Schur form. Two
fixed-point selections are provided for degenerate fixed spaces:
"canonical" (the spectral projection of the maximally mixed state, i.e. the
Cesaro limit seeded at I/d) and "max_entropy" (Deutsch's rule: the fixed
state of largest entropy, in closed form). Both are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .circuit import Circuit, compile_unitary
from .qmat import (EIGENVALUE_ONE_WINDOW, FIXED_POINT_RESIDUAL, PSD_FLOOR,
                   ValidationError, ValidationReport, dagger, require_density,
                   require_unitary, trace_distance, validate,
                   von_neumann_entropy)


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
        method: "exact" or "cesaro".
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


def _loop_map(u: np.ndarray, rho_cr, cr_dim: int, dc: int) -> Superoperator:
    """The loop map of a trusted (cr*dc)-square unitary; rho_cr is checked.

    Column j*d+i holds the column-stacked image of |i><j|, so entry
    (l*d+k, j*d+i) is E(|i><j|)[k,l] = sum_abc u4[a,k,b,i] rho[b,c]
    conj(u4[a,l,c,j]) with u4 = U.reshape(cr, d, cr, d). Built as
    t[k,i,l,j] = sum_ac w[a,k,i,c] conj(u4[a,l,c,j]) from the half
    conjugation w, then transposed to (l,k,j,i) and flattened.
    """
    rho = require_density(rho_cr, "rho_cr")
    if rho.shape != (cr_dim, cr_dim):
        raise ValidationError(f"rho_cr dimension {rho.shape[0]} != {cr_dim}")
    u4, w = _half_conjugation(u, rho, cr_dim, dc)
    t = np.tensordot(w, u4.conj(), axes=([0, 3], [0, 2]))
    return Superoperator(d_ctc=dc,
                         matrix=t.transpose(2, 0, 3, 1).reshape(dc * dc, dc * dc))


def induced_superoperator(u, rho_cr, cr_dims, ctc_dims) -> Superoperator:
    """Matrix of sigma -> Tr_CR(U (rho_cr x sigma) U+) for a caller's U,
    which is checked to be a unitary of dimension cr*ctc."""
    cr_dim = int(np.prod(cr_dims))
    dc = int(np.prod(ctc_dims))
    u = require_unitary(u, "interaction unitary")
    if u.shape != (cr_dim * dc, cr_dim * dc):
        raise ValidationError(
            f"unitary dimension {u.shape[0]} != cr*ctc = {cr_dim * dc}")
    return _loop_map(u, rho_cr, cr_dim, dc)


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Choi matrix sum_ij E(|i><j|) x |i><j|; PSD iff E is completely positive.

    An index reshuffle of the superoperator matrix: entry (k*d+i, l*d+j) is
    E(|i><j|)[k,l], which the matrix holds at (l*d+k, j*d+i).
    """
    d = s.d_ctc
    return s.matrix.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def validate_superoperator(s: Superoperator) -> ValidationReport:
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


def _lu_fixed_point(s: Superoperator) -> np.ndarray | None:
    """The unique fixed point from one LU solve of the bordered system, or
    None when the solve cannot vouch for it (acceptance rule: see
    fixed_point_exact).

    A is M - I with row 0 replaced by the trace row vec(I), so a trace-1
    fixed point solves A v = e_0 (for a trace-preserving M, row 0 of M - I
    is implied by the others) and ||A^-1||_1 ||A v - e_0||_1 bounds the
    distance of v to it. A second eigenvalue lambda within the window of 1
    has a trace-zero eigenvector x with ||A x|| <= |lambda - 1| ||x||, so it
    forces ||A^-1||_2 >= 1e9; the factor 1e-3 in the cut covers the change
    to the 1-norm (at most sqrt(n)) and the usual underestimate of the
    estimate, so an accepted answer is one the Schur window also calls
    unique.
    """
    n = s.matrix.shape[0]
    a = s.matrix - np.eye(n)
    a[0] = _vec(np.eye(s.d_ctc))
    # getrf flags an exactly singular A with info > 0 and warns about
    # nothing, where scipy.linalg.lu_factor would raise a LinAlgWarning
    lu, piv, info = scipy.linalg.lapack.zgetrf(a)
    if info != 0:
        return None
    anorm = np.linalg.norm(a, 1)
    rcond, info = scipy.linalg.lapack.zgecon(lu, anorm)
    # rcond estimates 1 / (||A||_1 ||A^-1||_1); both comparisons are
    # written so that a NaN rejects the answer
    if info != 0 or not rcond * anorm >= EIGENVALUE_ONE_WINDOW / 1e-3:
        return None
    e0 = np.zeros(n, dtype=complex)
    e0[0] = 1.0
    v, _ = scipy.linalg.lapack.zgetrs(lu, piv, e0)
    error_bound = np.abs(a @ v - e0).sum() / (rcond * anorm)
    return _unvec(v) if error_bound <= FIXED_POINT_RESIDUAL else None


def _schur_fixed_cluster(m: np.ndarray):
    """Ordered complex Schur form with the eigenvalue-1 cluster leading."""
    t, z, sdim = scipy.linalg.schur(
        m, output="complex",
        sort=lambda lam: abs(lam - 1.0) <= EIGENVALUE_ONE_WINDOW)
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


def _psd_clip(sigma: np.ndarray) -> np.ndarray:
    """Apply the repair policy: eigenvalues in [-PSD_FLOOR, 0) become 0,
    anything lower is an error; the result is renormalized to unit trace."""
    lam, vecs = scipy.linalg.eigh(_hermitize(sigma))
    if lam[0] < -PSD_FLOOR:
        raise SolverError(
            f"fixed-point candidate has eigenvalue {lam[0]:.3e} below the PSD floor",
            residual=None)
    lam = np.clip(lam, 0.0, None)
    out = (vecs * lam) @ dagger(vecs)
    return out / out.trace().real


def _certify(sigma: np.ndarray, s: Superoperator, fixed_space_dim: int,
             method: str, selection: str, bound: float) -> FixedPointResult:
    residual = trace_distance(s.apply(sigma), sigma)
    if residual > bound:
        raise SolverError(
            f"fixed-point residual {residual:.3e} exceeds tolerance "
            f"{bound:.1e}", residual=residual)
    report = validate(sigma, "density")
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


def _max_entropy_point(m: np.ndarray, sdim: int, start: np.ndarray) -> np.ndarray:
    """Deutsch's maximum-entropy fixed point, in closed form.

    On the support V of the canonical point sigma = `start` (maximal among
    fixed states) the adjoint map fixes an algebra A = (+)_k M_{d_k} x I_{m_k}
    and the fixed states are (+)_k p_k tau_k x omega_k (Wolf, Quantum
    Channels & Operations, Thm 6.14). Entropy peaks at tau_k = I/d_k and
    p_k ~ 2^S((I/d_k) x omega_k). The twirl T(X) = sum_j A_j X A_j+ over an
    orthonormal basis of A takes a generic element of A to a central one,
    whose eigenspaces are the blocks, and sigma to (+)_k c_k I x omega_k.
    """
    lam, vecs = scipy.linalg.eigh(start)
    keep = lam > PSD_FLOOR
    support, lam = vecs[:, keep], lam[keep]
    # the map restricted to operators on V; the null space of its adjoint
    # minus I is A, with an orthonormal basis from the smallest singular values
    m_v = np.kron(support.T, dagger(support)) @ m @ np.kron(support.conj(), support)
    vh = scipy.linalg.svd(dagger(m_v) - np.eye(len(m_v)))[2]
    onb = np.stack([_unvec(v) for v in vh[-sdim:].conj()])

    def twirl(x):
        return np.tensordot(onb @ x, onb.conj(), axes=([0, 2], [0, 2]))

    # fixed pseudo-random weights keep the selection deterministic and give
    # distinct blocks distinct central values with probability one
    generic = _hermitize(np.tensordot(
        np.random.default_rng(0).standard_normal(sdim), onb, axes=1))
    mu, centre_vecs = scipy.linalg.eigh(twirl(generic))
    gap = EIGENVALUE_ONE_WINDOW * np.linalg.norm(generic)
    splits = np.flatnonzero(np.diff(mu) > gap) + 1
    twirled = support @ twirl(np.diag(lam)) @ dagger(support)
    out = np.zeros_like(start)
    for q_k in np.split(support @ centre_vecs, splits, axis=1):
        state = dagger(q_k) @ twirled @ q_k
        state /= state.trace().real
        out += 2 ** von_neumann_entropy(state) * (q_k @ state @ dagger(q_k))
    return out / out.trace().real


def fixed_point_exact(s: Superoperator,
                      selection: str = "canonical") -> FixedPointResult:
    """Fixed point of a loop map, unique ones by LU, the rest by ordered Schur.

    LU first: one solve of the bordered system A v = e_0, where A is M - I
    with row 0 replaced by the trace row. Its answer is taken, with
    fixed_space_dim 1, when the LAPACK estimate of ||A^-1||_1 is at most
    1e-3 / EIGENVALUE_ONE_WINDOW and that estimate times ||A v - e_0||_1, a
    bound on the distance to the true fixed point, is at most
    FIXED_POINT_RESIDUAL. A degenerate fixed space makes A singular, and a
    near-degenerate one makes it ill-conditioned, so both fall back.

    Schur fallback: the spectral projection onto the eigenvalues within
    EIGENVALUE_ONE_WINDOW of 1 (their count is fixed_space_dim).
    canonical: image of the maximally mixed state under the projection that
    kills all decaying and peripheral components (the closed form of Cesaro
    averaging). max_entropy: the fixed state of largest entropy, in closed
    form from the canonical point and the block structure of the fixed
    space; the canonical point when fixed_space_dim is 1. Either path's
    sigma is Hermitized, renormalized and certified.

    Raises:
        SolverError: no eigenvalue within the detection window of 1 (signals
            a non-CPTP or numerically broken input), or certification failure
            (residual above tolerance, or the result fails density
            validation).
    """
    if selection not in ("canonical", "max_entropy"):
        raise ValidationError(f"unknown selection {selection!r}")
    d = s.d_ctc
    sigma = _lu_fixed_point(s)
    sdim = 1
    if sigma is None:
        t, z, sdim = _schur_fixed_cluster(s.matrix)
        if sdim == 0:
            raise SolverError("no superoperator eigenvalue within the detection "
                              "window of 1; input is not a valid CPTP map")
        projector = _spectral_projector(t, z, sdim)
        sigma = _unvec(projector @ _vec(np.eye(d, dtype=complex) / d))
    sigma = _hermitize(sigma)
    sigma = sigma / sigma.trace().real
    if selection == "max_entropy" and sdim > 1:
        _hermitian_fixed_basis(z, sdim)  # raises unless adjoint-closed
        sigma = _psd_clip(_max_entropy_point(s.matrix, sdim, sigma))
    return _certify(sigma, s, sdim, "exact", selection, FIXED_POINT_RESIDUAL)


def fixed_point_cesaro(s: Superoperator, init=None, max_iter: int = 2 ** 40,
                       tol: float | None = None) -> FixedPointResult:
    """Fixed point by repeated squaring of the lazy map L = (I + E)/2.

    L^N = 2^-N sum_k C(N, k) E^k averages the iterates of E with binomial
    weights. Each eigenvalue lambda != 1 of a CPTP map has |(1 + lambda)/2| < 1,
    so L^N converges geometrically to the spectral projection onto the fixed
    space, the same limit as the uniform Cesaro mean, and peripheral
    (rotating) components die too. Evaluates E(L^N(init)) at N = 1, 2, 4, ...
    with one matrix product per doubling and stops once half the trace norm
    of E(sigma) - sigma AND of the step from the previous doubling are both
    <= tol. fixed_space_dim is estimated as round(tr L^N).

    Two guards: squaring blows up eigenvalues numerically above 1, so the
    iteration stops early when the powers do; and a map that does not
    preserve trace moves the iterate's trace away from 1 (L pulls an
    eigenvalue below -1 inside the unit disc, and a map without eigenvalue 1
    drives the trace to 0), so a trace beyond 1 +- 0.5, far outside the
    drift of squaring, stops it too.

    Args:
        s: the superoperator.
        init: starting density matrix, default maximally mixed.
        max_iter: cap on N.
        tol: convergence tolerance, default FIXED_POINT_RESIDUAL.

    Raises:
        ConvergenceError: max_iter or either guard reached without meeting
            tol; carries the last residual (None before the first one).
    """
    if tol is None:
        tol = FIXED_POINT_RESIDUAL
    if tol <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    d = s.d_ctc
    if init is None:
        init = np.eye(d, dtype=complex) / d
    v0 = _vec(require_density(init, "init"))
    m = s.matrix
    power = (np.eye(m.shape[0], dtype=complex) + m) / 2   # L^N
    n = 1
    prev = last_residual = None
    while True:
        raw = _unvec(m @ (power @ v0))     # E(L^N(init))
        trace = raw.trace().real
        if not abs(trace - 1) <= 0.5:
            raise ConvergenceError(
                f"iterate trace {trace:.3e} at N={n}: the map does not "
                f"preserve trace", residual=last_residual)
        current = _hermitize(raw) / trace
        last_residual = trace_distance(s.apply(current), current)
        # at N = 1 the residual alone decides (e.g. constant maps)
        if last_residual <= tol and (
                prev is None or trace_distance(current, prev) <= tol):
            dim_est = max(1, int(round(power.trace().real)))
            return _certify(_psd_clip(current), s, dim_est, "cesaro",
                            "canonical", max(tol, FIXED_POINT_RESIDUAL))
        if n * 2 > max_iter:
            raise ConvergenceError(
                f"Cesaro iteration did not converge within N={max_iter} "
                f"(last residual {last_residual:.3e})", residual=last_residual)
        power = power @ power
        if not np.isfinite(power).all() or np.abs(power).max() > 1e6:
            raise ConvergenceError(
                f"power iteration blew up at N={n} with residual "
                f"{last_residual:.3e} (eigenvalues numerically above 1)",
                residual=last_residual)
        n *= 2
        prev = current


def evolve_given_ctc_state(u, rho_cr, sigma, cr_dim: int, ctc_dim: int) -> np.ndarray:
    """Ordinary (linear) evolution for a FIXED time-machine state:
    Tr_CTC(U (rho_cr x sigma) U+).

    Closes the half conjugation w of the loop map with sigma on
    its open CTC input, ws[a,k,c,j] = sum_i w[a,k,i,c] sigma[i,j], then
    traces the CTC output: out[a,e] = sum_kcj ws[a,k,c,j] conj(u4[e,k,c,j]).
    """
    u = np.asarray(u, dtype=complex)
    rho = np.asarray(rho_cr, dtype=complex)
    u4, w = _half_conjugation(u, rho, cr_dim, ctc_dim)
    ws = np.tensordot(w, np.asarray(sigma, dtype=complex), axes=([2], [0]))
    return np.tensordot(ws, u4.conj(), axes=([1, 2, 3], [1, 2, 3]))


def solve_loop(u: np.ndarray, rho_cr, cr_dim: int, ctc_dim: int,
               selection: str = "canonical"
               ) -> tuple[Superoperator, FixedPointResult]:
    """Deutsch's consistency step for one whole CR input.

    Builds the loop map E of a compiled interaction U, which it trusts, and
    solves E(sigma) = sigma with fixed_point_exact. Returns (E, fixed point).
    rho_cr is validated once, by the loop-map kernel.
    """
    superop = _loop_map(u, rho_cr, cr_dim, ctc_dim)
    return superop, fixed_point_exact(superop, selection)


def _checked_output(rho_out: np.ndarray) -> np.ndarray:
    """rho_out, once it passes density validation; a failure there is a
    numerical breakdown of the solve, so it raises SolverError."""
    report = validate(rho_out, "density")
    if not report.ok:
        raise SolverError(f"evolved state failed validation: {report.message()}")
    return rho_out


def _evolve(u: np.ndarray, rho_cr, cr_dim: int, ctc_dim: int,
            selection: str) -> tuple[np.ndarray, FixedPointResult]:
    """ctc_evolve for a compiled, trusted interaction U."""
    _, fp = solve_loop(u, rho_cr, cr_dim, ctc_dim, selection)
    rho_out = evolve_given_ctc_state(u, rho_cr, fp.sigma, cr_dim, ctc_dim)
    return _checked_output(rho_out), fp


def ctc_evolve(circuit: Circuit, rho_cr, selection: str = "canonical"
               ) -> tuple[np.ndarray, FixedPointResult]:
    """Full nonlinear evolution of a CR input through a circuit.

    Compiles the circuit once, then runs the consistency step (solve_loop)
    and the final partial trace. Returns the evolved CR state together with
    the fixed-point record.
    """
    return _evolve(compile_unitary(circuit), rho_cr, circuit.cr_dim,
                   circuit.ctc_dim, selection)
