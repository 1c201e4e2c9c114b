"""The self-consistency engine.

A circuit with input state rho_cr induces a linear map on the time-machine
register,

    E(sigma) = Tr_CR( U (rho_cr x sigma) U+ ),

represented here as a matrix acting on column-stacked vectorizations. With
U[(a,k),(b,i)] = <a,k|U|b,i> (CR index first), one kernel lays out two
operands per input, xbar[(k,i),(b,a)] = conj U[(a,k),(b,i)] and
w[(k,i),(c,a)] = sum_b U[(a,k),(b,i)] rho_cr[b,c]. The image of |i><j|,

    E(|i><j|)[k,l] = sum_ca w[(k,i),(c,a)] xbar[(l,j),(c,a)],

is then one matrix product for all i, j, and the output map below one
contraction with sigma and one product. The engine finds a density matrix
sigma* with E(sigma*) = sigma* (one always exists for a completely positive
trace-preserving E) and then produces the causality-respecting output

    rho_out = Tr_CTC( U (rho_cr x sigma*) U+ ) = Phi_sigma*(rho_cr).

Because sigma* depends on rho_cr, the full map rho_cr -> rho_out is
nonlinear. The exact solver runs in real arithmetic: E preserves
Hermiticity, so in the isometric coordinates h(sigma) = vec(Re sigma + Im
sigma) it is the real matrix M_R = Re M + Im(M) K (K transposes on vec),
with M's spectrum, and sigma = (h + h^T)/2 + i (h - h^T)/2 is Hermitian by
construction. The public solvers refuse a map that does not preserve
Hermiticity. The solver tries one LU solve of the bordered system and falls
back to one ordered real Schur form of M_R; fixed_point_exact states what
each accepts. Two deterministic selections serve degenerate fixed spaces:
"canonical" (the spectral projection of the maximally mixed state, i.e. the
Cesaro limit seeded at I/d) and "max_entropy" (Deutsch's rule: the fixed
state of largest entropy, in closed form).

The kernels take stacks of loops (a leading loop axis; one loop is a stack
of one). LAPACK LU above n = dc^2 = 16 and the Schur fallback go item by
item, in input order; density checks run once on the stack. An input on
R (x) CR, with a register R no gate touches, is solved on Tr_R rho, and its
output is (id_R (x) Phi_sigma*)(rho).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, _sequence, compile_unitary
from .qmat import (CHOI_PSD_FLOOR, EIGENVALUE_ONE_WINDOW, FIXED_POINT_RESIDUAL,
                   HERMITICITY_PRESERVING_TOL, PSD_FLOOR, TRACE_PRESERVING_TOL,
                   ValidationError, ValidationReport,
                   _density_failure, _half_trace_norms, _hermitize,
                   _require_instance, _require_integer, _square, dagger,
                   require_density, require_unitary, von_neumann_entropy)


class SolverError(RuntimeError):
    """The fixed-point solver failed (numerical breakdown or bad residual)."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        super().__init__(message)


class ConvergenceError(SolverError):
    """An iterative solver ran out of iterations before meeting tolerance."""


def _vec(m: np.ndarray) -> np.ndarray:
    # column stacking per matrix of a stack: vec(|i><j|) is 1 at j*d + i
    return m.swapaxes(-1, -2).reshape(*m.shape[:-2], m.shape[-1] ** 2)


def _unvec(v: np.ndarray) -> np.ndarray:
    d = round(v.shape[-1] ** 0.5)
    return v.reshape(*v.shape[:-1], d, d).swapaxes(-1, -2)


@dataclass(frozen=True)
class Superoperator:
    """Matrix form of a linear map on d_ctc x d_ctc matrices.

    matrix is (d_ctc^2, d_ctc^2) and acts on column-stacked vectorizations.
    """

    d_ctc: int
    matrix: np.ndarray

    def __post_init__(self):
        _require_integer(self.d_ctc, "d_ctc")
        object.__setattr__(self, "matrix", _square(
            self.matrix, self.d_ctc ** 2, "superoperator matrix"))

    def apply(self, sigma) -> np.ndarray:
        return _unvec(self.matrix @ _vec(_square(sigma, self.d_ctc, "operand")))


@dataclass(frozen=True)
class FixedPointResult:
    """A certified fixed point of an induced superoperator.

    Attributes:
        sigma: the chosen consistent time-machine state.
        residual: recomputed certificate, half the trace norm of
            E(sigma) - sigma.
        fixed_space_dim: dimension of the eigenvalue-1 subspace (eigenvalues
            within the detection window of 1). From fixed_point_cesaro it is
            round(tr L^N) at the stopping N, an estimate that can over-count.
        method: "exact" or "cesaro".
        selection: "canonical" or "max_entropy".
    """

    sigma: np.ndarray
    residual: float
    fixed_space_dim: int
    method: str
    selection: str


def _operands(u: np.ndarray, rho: np.ndarray, cr_dim: int, dc: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """xbar[(k,i),(b,a)] = conj U[(a,k),(b,i)] (one transposed copy of U,
    conjugated in place once w is formed) and w[(k,i),(c,a)] = sum_b
    U[(a,k),(b,i)] rho[b,c], each (items, dc^2, cr, cr); u, rho stacks or 2-D."""
    x = u.reshape(-1, cr_dim, dc, cr_dim, dc).transpose(0, 2, 4, 3, 1).copy()
    x = x.reshape(-1, dc * dc, cr_dim, cr_dim)
    w = rho.swapaxes(-1, -2)[..., None, :, :] @ x
    return np.conjugate(x, out=x), w


def _checked_cr(rho_cr, cr_dim: int) -> np.ndarray:
    """A caller's CR input, checked, as a stack of one."""
    return _square(require_density(rho_cr, "rho_cr"), cr_dim, "rho_cr")[None]


def _loop_map(u: np.ndarray, rho: np.ndarray, cr_dim: int, dc: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loop maps of trusted (cr*dc)-square unitaries u on trusted CR
    inputs rho (B, cr, cr) (either 2-D: shared), and their operands (xbar,
    w). Entry (l*d+k, j*d+i) is E(|i><j|)[k,l] = sum_ca w[(k,i),(c,a)]
    xbar[(l,j),(c,a)]: one product w xbar^T, transposed to (l,k,j,i)."""
    xbar, w = _operands(u, rho, cr_dim, dc)
    t = w.reshape(-1, dc * dc, cr_dim ** 2) @ xbar.reshape(
        -1, dc * dc, cr_dim ** 2).swapaxes(-1, -2)
    maps = t.reshape(-1, dc, dc, dc, dc).transpose(0, 3, 1, 4, 2)
    return maps.reshape(-1, dc * dc, dc * dc), xbar, w


def _output(xbar: np.ndarray, w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Tr_CTC(U (rho x sigma) U+) from rho's operands, per item (sigma, like
    xbar, may be shared): y[(k,j),(c,a)] = sum_i sigma[i,j] w[(k,i),(c,a)],
    then out[a,e] = sum_kjc y[(k,j,c),a] xbar[(k,j,c),e], one product y^T xbar."""
    dc, cr = round(w.shape[1] ** 0.5), w.shape[-1]
    y = sigma.swapaxes(-1, -2)[..., None, :, :] @ w.reshape(-1, dc, dc, cr * cr)
    return y.reshape(-1, dc * dc * cr, cr).swapaxes(-1, -2) @ xbar.reshape(
        -1, dc * dc * cr, cr)


def induced_superoperator(u, rho_cr, cr_dims, ctc_dims) -> Superoperator:
    """Matrix of sigma -> Tr_CR(U (rho_cr x sigma) U+) for a caller's U,
    which is checked to be a unitary of dimension cr*ctc. An entry of cr_dims
    or ctc_dims that is not an integer >= 1 raises ValidationError."""
    cr_dim, dc = (math.prod(_require_integer(d, f"{name}[{k}]") for k, d in
                            enumerate(_sequence(dims, f"$.{name}")))
                  for name, dims in (("cr_dims", cr_dims), ("ctc_dims", ctc_dims)))
    what = "interaction unitary"
    u = _square(require_unitary(u, what), cr_dim * dc, what)
    return Superoperator(dc, _loop_map(u, _checked_cr(rho_cr, cr_dim), cr_dim, dc)[0][0])


def choi_matrix(s: Superoperator) -> np.ndarray:
    """Choi matrix sum_ij E(|i><j|) x |i><j|; PSD iff E is completely positive.

    An index reshuffle of the superoperator matrix: entry (k*d+i, l*d+j) is
    E(|i><j|)[k,l], which the matrix holds at (l*d+k, j*d+i).
    """
    _require_instance(s, Superoperator, "map")
    d = s.d_ctc
    return s.matrix.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def validate_superoperator(s: Superoperator) -> ValidationReport:
    """Report trace-preservation (within TRACE_PRESERVING_TOL) and complete-
    positivity (Choi PSD within CHOI_PSD_FLOOR) violations."""
    _require_instance(s, Superoperator, "map")
    d = s.d_ctc
    violations: list[tuple[str, float]] = []
    # row l*d+k of column j*d+i is E(|i><j|)[k,l]; TP means its trace is delta_ij
    traces = s.matrix.reshape(d, d, d * d).trace(axis1=0, axis2=1)
    tp_err = float(np.abs(traces - _vec(np.eye(d))).max())
    if tp_err > TRACE_PRESERVING_TOL:
        violations.append(("trace preserving", float(tp_err)))
    lam_min = float(np.linalg.eigvalsh(_hermitize(choi_matrix(s)))[0])
    if lam_min < -CHOI_PSD_FLOOR:
        violations.append(("completely positive", -lam_min))
    return ValidationReport("superoperator", tuple(violations))


def _real_form(maps: np.ndarray) -> np.ndarray:
    """M_R = Re M + Im(M) K of a stack of maps, K transposing the domain's vec:
    M_R h(X) = h(E(X)) for Hermitian X if E preserves Hermiticity."""
    d = round(maps.shape[-1] ** 0.5)
    return maps.real + maps.imag.reshape(*maps.shape[:-1], d, d).swapaxes(
        -1, -2).reshape(maps.shape)


def _real_vec(sigma: np.ndarray) -> np.ndarray:
    """h(sigma) = vec(Re sigma + Im sigma) of a stack of Hermitian matrices."""
    return _vec(sigma.real + sigma.imag)


def _from_real(h: np.ndarray) -> np.ndarray:
    """sigma = (h + h^T)/2 + i (h - h^T)/2, the Hermitian part of (1 + i) h."""
    return _hermitize((1 + 1j) * _unvec(h))


def _lu_fixed_point(maps: np.ndarray, d_ctc: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed points of a stack (B, n, n) of real maps M_R by one bordered LU
    solve each, at unit trace (undefined where refused), and the accepted mask.

    A is M_R - I with row 0 replaced by the trace row vec(I) = h(I), so a
    trace-1 fixed point solves A v = e_0 (for a trace-preserving map, row 0
    of M_R - I is implied by the others) and ||A^-1||_1 ||A v - e_0||_1
    bounds the 1-norm distance of v to it (the 1-norms of vec h and vec
    sigma differ by at most sqrt(2) either way). accept takes v when
    ||A^-1||_1 <= 1e-3 / EIGENVALUE_ONE_WINDOW and that bound <=
    FIXED_POINT_RESIDUAL. A second eigenvalue lambda of M_R (M's spectrum)
    within the window of 1 has a trace-zero eigenvector x with ||A x|| <=
    |lambda - 1| ||x||, so it forces ||A^-1||_2 >= 1e9; the factor 1e-3
    covers the 1-norm (at most sqrt(n) larger) and dgecon's underestimate,
    so an accepted answer is one the Schur window calls unique. The branches
    differ only in how they obtain v and ||A^-1||_1: up to n = 16 (dc <= 4)
    exactly, by a stacked numpy inverse (never below the estimate, so it
    accepts less; no scipy); above, faster, item by item by LAPACK dgetrf,
    dgetrs and dgecon.
    """
    b, n = maps.shape[:2]
    a = maps - np.eye(n)
    a[:, 0] = _vec(np.eye(d_ctc))
    e0 = np.eye(1, n)[0]

    def accept(a, v, recip_norm):
        # a stack, or one 2-D item; recip_norm = 1 / ||A^-1||_1 (NaN: refused)
        ok = (recip_norm >= EIGENVALUE_ONE_WINDOW / 1e-3) & (
            np.abs((a @ v[..., None])[..., 0] - e0).sum(axis=-1)
            <= FIXED_POINT_RESIDUAL * recip_norm)
        sigma = _from_real(v)
        np.divide(sigma, sigma.trace(axis1=-2, axis2=-1).real[..., None, None],
                  out=sigma, where=ok[..., None, None])
        return sigma, ok

    # 1 BLAS thread, real: inverse and norm 9, 15, 100 us at n = 4, 16, 64 (LAPACK
    # 11, 13, 48 us); 50 stacked inverses at n = 4 take 44 us, five singles
    if n <= 16:
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:   # an exactly singular item
            inv = np.full_like(a, np.nan)
            for i, item in enumerate(a):
                with contextlib.suppress(np.linalg.LinAlgError):
                    inv[i] = np.linalg.inv(item)
        return accept(a, inv[:, :, 0], 1 / np.abs(inv).sum(axis=1).max(axis=1))
    import scipy.linalg
    sigma, ok = np.zeros((b, d_ctc, d_ctc), dtype=complex), np.zeros(b, dtype=bool)
    for i, item in enumerate(a):
        # getrf flags an exactly singular A with info > 0 and warns about
        # nothing, where scipy.linalg.lu_factor would raise a LinAlgWarning
        lu, piv, info = scipy.linalg.lapack.dgetrf(item)
        if info == 0:
            anorm = np.linalg.norm(item, 1)
            rcond, info = scipy.linalg.lapack.dgecon(lu, anorm)
            sigma[i], ok[i] = accept(item, scipy.linalg.lapack.dgetrs(lu, piv, e0)[0],
                                     rcond * anorm if info == 0 else np.nan)
    return sigma, ok


def _psd_clip(sigma: np.ndarray) -> np.ndarray:
    """Apply the repair policy: eigenvalues in [-PSD_FLOOR, 0) become 0,
    anything lower is an error; the result is renormalized to unit trace."""
    lam, vecs = np.linalg.eigh(_hermitize(sigma))
    if lam[0] < -PSD_FLOOR:
        raise SolverError(
            f"fixed-point candidate has eigenvalue {lam[0]:.3e} below the PSD floor",
            residual=None)
    lam = np.clip(lam, 0.0, None)
    out = (vecs * lam) @ dagger(vecs)
    return out / out.trace().real


def _certify(sigma: np.ndarray, maps: np.ndarray, dims, method: str,
             selection: str) -> list[FixedPointResult]:
    """Each (Hermitian) sigma of a stack must be a state with residual (half the
    trace norm of E(sigma) - sigma) <= FIXED_POINT_RESIDUAL; first failure raises."""
    # with h = h(sigma) and the real maps M_R, E(sigma) - sigma is the
    # Hermitian part of (1 + i) unvec(M_R h - h); _half_trace_norms takes it
    h = _real_vec(sigma)
    residual = _half_trace_norms(
        (1 + 1j) * _unvec((maps @ h[:, :, None])[:, :, 0] - h)).tolist()
    bad = [i for i, r in enumerate(residual) if r > FIXED_POINT_RESIDUAL]
    failure = _density_failure(sigma)
    if bad and (failure is None or bad[0] <= failure[0]):
        raise SolverError(f"fixed-point residual {residual[bad[0]]:.3e} exceeds "
                          f"tolerance {FIXED_POINT_RESIDUAL:.1e}",
                          residual=residual[bad[0]])
    if failure is not None:
        raise SolverError(f"fixed-point candidate is not a density matrix: "
                          f"{failure[1].message()}", residual=residual[failure[0]])
    return [FixedPointResult(sigma=x, residual=r, fixed_space_dim=int(k),
                             method=method, selection=selection)
            for x, r, k in zip(sigma, residual, dims)]


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
    import scipy.linalg
    lam, vecs = scipy.linalg.eigh(start)
    keep = lam > PSD_FLOOR
    support, lam = vecs[:, keep], lam[keep]
    # the real map restricted to operators on V; the null space of its transpose
    # (the adjoint) minus I is A's Hermitian part, whose orthonormal basis is A's
    m_v = (_real_form(np.kron(support.T, dagger(support))) @ m
           @ _real_form(np.kron(support.conj(), support)))
    onb = _from_real(scipy.linalg.svd(m_v.T - np.eye(len(m_v)))[2][-sdim:])

    def twirl(x):
        return np.tensordot(onb @ x, onb.conj(), axes=([0, 2], [0, 2]))

    # fixed pseudo-random weights keep the selection deterministic and give
    # distinct blocks distinct central values with probability one
    generic = np.tensordot(np.random.default_rng(0).standard_normal(sdim), onb, 1)
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


def _schur_fixed_point(m: np.ndarray, d_ctc: int, selection: str
                       ) -> tuple[np.ndarray, int]:
    """Fixed point and fixed_space_dim of a real map M_R (d_ctc^2 square) off
    one ordered real Schur form M_R = Z T Z^T, the quasi-triangular T11
    holding the eigenvalues within EIGENVALUE_ONE_WINDOW of 1; a conjugate
    pair falls on one side of the window, so its 2x2 block stays whole.

    canonical: Z [[I, X], [0, 0]] Z^T h(I/d), the projection along the rest
    of the spectrum (it commutes with T when T11 X - X T22 = T12). With y =
    Z^T h(I/d) it is Z1 (y1 + X y2); dtrsyl solves for X on the blocks
    (Bartels-Stewart; Higham, ch. 16). max_entropy: from that point.

    Certified by the same form. A fixed space of a CPTP map has a semisimple
    eigenvalue 1 (Wolf, ch. 6), so the spread max |lambda - 1| over T11's
    eigenvalues must be round-off, at most 1e3 eps_mach n. With y = Z^T h,
    h = h(sigma), the trailing rows of (T - I) y = Z^T r (r = M_R h - h)
    give y2 = (T22 - I)^-1 Z2^T r, so the Hilbert-Schmidt distance ||y2||_2
    <= ||y2||_1 of sigma to the fixed space is at most the resolvent bound
    ||(T22 - I)^-1||_1 ||Z2^T r||_1. A triangular estimate would ignore the
    2x2 bumps of T22 - I, so dgetrf factors the block and dgecon estimates
    1 / (||T22 - I||_1 ||(T22 - I)^-1||_1) (Higham, ch. 15). No T22: 0.
    """
    import scipy.linalg
    n = m.shape[0]
    t, z, sdim = scipy.linalg.schur(
        m, output="real",
        sort=lambda re, im: abs(complex(re, im) - 1.0) <= EIGENVALUE_ONE_WINDOW)
    if sdim == 0:
        raise SolverError("no superoperator eigenvalue within the detection "
                          "window of 1; input is not a valid CPTP map")
    y = z.T @ _vec(np.eye(d_ctc) / d_ctc)
    if sdim < n:
        x, scale, info = scipy.linalg.lapack.dtrsyl(
            t[:sdim, :sdim], t[sdim:, sdim:], t[:sdim, sdim:], isgn=-1)
        if info != 0:
            raise SolverError(f"dtrsyl info {info}: close eigenvalues perturbed")
        y[:sdim] += x @ y[sdim:] / scale
    sigma = _from_real(z[:, :sdim] @ y[:sdim])
    # the projection of a trace-preserving map keeps tr(I/d) = 1; a trace at
    # round-off (a map that does not preserve trace) leaves no state to scale
    trace, floor = sigma.trace().real, 1e3 * np.finfo(float).eps * n
    if not floor < abs(trace) < np.inf:
        raise SolverError(f"canonical point has trace {trace:.3e}: no "
                          f"unit-trace state is a multiple of it")
    sigma = sigma / trace
    if selection == "max_entropy" and sdim > 1:
        sigma = _psd_clip(_max_entropy_point(m, sdim, sigma))
    spread, bound = float(np.abs(np.linalg.eigvals(t[:sdim, :sdim]) - 1).max()), 0.0
    if sdim < n:
        a = t[sdim:, sdim:] - np.eye(n - sdim)
        anorm = np.linalg.norm(a, 1)
        rcond = scipy.linalg.lapack.dgecon(scipy.linalg.lapack.dgetrf(a)[0], anorm)[0]
        h = _real_vec(sigma)
        bound = float(np.abs(z[:, sdim:].T @ (m @ h - h)).sum() / (rcond * anorm))
    if not (spread <= floor and bound <= FIXED_POINT_RESIDUAL):
        failed = "resolvent bound" if spread <= floor else "cluster spread"
        raise SolverError(
            f"eigenvalue-1 cluster of size {sdim} not certified, {failed} too "
            f"large: spread {spread:.3e} (floor {floor:.1e}), resolvent bound "
            f"{bound:.3e} (tolerance {FIXED_POINT_RESIDUAL:.1e})")
    return sigma, int(sdim)


def _loop_matrix(s: Superoperator) -> np.ndarray:
    """The matrix M of a caller's loop map, refused unless the map preserves
    Hermiticity: conj(M) = K M K (K transposes on vec), as M_R assumes."""
    _require_instance(s, Superoperator, "loop map")
    m, d = s.matrix, s.d_ctc
    defect = np.abs(m.conj() - m.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(
        m.shape)).max()
    if defect > HERMITICITY_PRESERVING_TOL:
        raise ValidationError(f"loop map does not preserve Hermiticity: max "
                              f"|conj(M) - K M K| is {defect:.3e}")
    return m


def fixed_point_exact(s: Superoperator,
                      selection: str = "canonical") -> FixedPointResult:
    """Fixed point of a loop map, unique ones by LU, the rest by ordered Schur.

    LU first (_lu_fixed_point): one solve of the bordered system A v = e_0,
    taken with fixed_space_dim 1 under its one rule on ||A^-1||_1 and the
    distance bound, on M_R. A (near-)degenerate fixed space fails it.

    Schur fallback (_schur_fixed_point): one ordered real Schur form of M_R
    gives fixed_space_dim (its eigenvalues within EIGENVALUE_ONE_WINDOW of
    1), the point and the point's certificate, the cluster spread and
    resolvent bound. canonical: the spectral projection of the maximally
    mixed state, the closed form of Cesaro averaging. max_entropy: the fixed
    state of largest entropy, in closed form from the canonical point and
    the block structure of the fixed space. Either path's sigma is then
    certified by its residual and density validation.

    Raises:
        ValidationError: a map that does not preserve Hermiticity.
        SolverError: no eigenvalue within the detection window of 1 (signals
            a non-CPTP or numerically broken input), a canonical point of
            zero trace, dtrsyl info != 0, a Schur spread or bound too large
            (both named in the message), a residual above tolerance, or a
            result that fails density validation.
    """
    return _fixed_points(_loop_matrix(s)[None], s.d_ctc, selection)[1][0]


def _fixed_points(maps: np.ndarray, d_ctc: int, selection: str
                  ) -> tuple[np.ndarray, list[FixedPointResult]]:
    """(sigma stack, fixed_point_exact of each map); the first failure raises."""
    if selection not in ("canonical", "max_entropy"):
        raise ValidationError(f"unknown selection {selection!r}")
    maps = _real_form(maps)
    sigma, accepted = _lu_fixed_point(maps, d_ctc)
    dims = [1] * len(maps)
    for i in np.flatnonzero(~accepted):
        try:
            sigma[i], dims[i] = _schur_fixed_point(maps[i], d_ctc, selection)
        except SolverError:   # unless an earlier item fails its certificate
            _certify(sigma[:i], maps[:i], dims[:i], "exact", selection)
            raise
    return sigma, _certify(sigma, maps, dims, "exact", selection)


def fixed_point_cesaro(s: Superoperator,
                       max_iter: int = 2 ** 40) -> FixedPointResult:
    """Fixed point by repeated squaring of the lazy map L = (I + E)/2.

    L^N = 2^-N sum_k C(N, k) E^k averages the iterates of E with binomial
    weights. Each eigenvalue lambda != 1 of a CPTP map has |(1 + lambda)/2| < 1,
    so L^N converges geometrically to the spectral projection onto the fixed
    space, the same limit as the uniform Cesaro mean, and peripheral
    (rotating) components die too. Evaluates E(L^N(I/d)) at N = 1, 2, 4, ...
    with one matrix product per doubling and stops once half the trace norm
    of E(sigma) - sigma AND of the step from the previous doubling are both
    <= FIXED_POINT_RESIDUAL. fixed_space_dim is round(tr L^N) at the
    stopping N, an estimate that can over-count (a constant map gives 2).

    Two guards: squaring blows up eigenvalues numerically above 1, so the
    iteration stops early when the powers do; and a map that does not
    preserve trace moves the iterate's trace away from 1 (L pulls an
    eigenvalue below -1 inside the unit disc, and a map without eigenvalue 1
    drives the trace to 0), so a trace beyond 1 +- 0.5, far outside the
    drift of squaring, stops it too. max_iter caps N.

    Raises:
        ValidationError: a map that does not preserve Hermiticity, or a
            max_iter that is not an integer >= 1.
        ConvergenceError: max_iter or either guard reached before
            convergence; carries the last residual (None before the first one).
    """
    _require_integer(max_iter, "max_iter")
    m = _loop_matrix(s)
    v0 = _vec(np.eye(s.d_ctc, dtype=complex) / s.d_ctc)
    power = (np.eye(m.shape[0], dtype=complex) + m) / 2   # L^N
    n, prev, last_residual = 1, None, None
    while True:
        raw = _unvec(m @ (power @ v0))     # E(L^N(I/d))
        trace = raw.trace().real
        if not abs(trace - 1) <= 0.5:
            raise ConvergenceError(
                f"iterate trace {trace:.3e} at N={n}: the map does not "
                f"preserve trace", residual=last_residual)
        current = _hermitize(raw) / trace
        # the residual E(current) - current, then the step prev - current from
        # the previous doubling; at N = 1 the residual alone decides (constant maps)
        img = _unvec(m @ _vec(current))
        norms = _half_trace_norms(np.array([img, prev] if n > 1 else [img]) - current)
        last_residual = float(norms[0])
        if (norms <= FIXED_POINT_RESIDUAL).all():
            dim_est = max(1, int(round(power.trace().real)))
            return _certify(_psd_clip(current)[None], _real_form(m[None]), [dim_est],
                            "cesaro", "canonical")[0]
        if n * 2 > max_iter:
            raise ConvergenceError(
                f"Cesaro iteration did not converge within N={max_iter} "
                f"(last residual {last_residual:.3e})", residual=last_residual)
        power = power @ power
        if not np.abs(power).max() <= 1e6:   # NaN and inf included
            raise ConvergenceError(
                f"power iteration blew up at N={n} with residual "
                f"{last_residual:.3e} (eigenvalues numerically above 1)",
                residual=last_residual)
        n *= 2
        prev = current


def evolve_given_ctc_state(u, rho_cr, sigma, cr_dim: int, ctc_dim: int) -> np.ndarray:
    """Ordinary (linear) evolution for a FIXED time-machine state:
    Tr_CTC(U (rho_cr x sigma) U+), with U of dimension cr_dim * ctc_dim."""
    u = _square(u, _require_integer(cr_dim, "cr_dim")
                * _require_integer(ctc_dim, "ctc_dim"), "u")
    rho, sigma = _square(rho_cr, cr_dim, "rho_cr"), _square(sigma, ctc_dim, "sigma")
    return _output(*_operands(u, rho, cr_dim, ctc_dim), sigma)[0]


def _checked_output(rho_out: np.ndarray) -> np.ndarray:
    """A stack rho_out once each passes density validation; a failure there
    is a numerical breakdown of the solve, so it raises SolverError."""
    failure = _density_failure(rho_out)
    if failure is not None:
        raise SolverError(f"evolved state failed validation: {failure[1].message()}")
    return rho_out


def frozen_channel(u: np.ndarray, x: np.ndarray, sigma: np.ndarray,
                   cr_dim: int, ctc_dim: int) -> np.ndarray:
    """Phi_sigma(X) = Tr_CTC(U (X (x) sigma) U+) of each CR operator of a
    stack x (B, ..., cr, cr), trusted u and sigma per item or shared (2-D):
    by the loop-map kernel, on U with its register axes swapped, sigma frozen."""
    swapped = u.reshape(-1, cr_dim, ctc_dim, cr_dim, ctc_dim).transpose(0, 2, 1, 4, 3)
    phi = _loop_map(swapped, sigma, ctc_dim, cr_dim)[0]
    vecs = _vec(x).reshape(len(x), -1, cr_dim ** 2) @ phi.swapaxes(1, 2)
    return _unvec(vecs).reshape(x.shape)


def evolve_stack(u: np.ndarray, rho: np.ndarray, cr_dim: int, ctc_dim: int,
                 selection: str) -> tuple[np.ndarray, list[FixedPointResult]]:
    """ctc_evolve of a trusted stack rho (B, n*cr, n*cr) on R (x) CR under
    compiled, trusted u (2-D: shared): each loop is solved on Tr_R rho. For
    n = 1 the outputs reuse the loop maps' operands; for n > 1 Phi_sigma's
    matrix takes the n^2 blocks of rho (operands of that many blocks would be
    n^2 times larger)."""
    n = rho.shape[-1] // cr_dim
    blocks = rho.reshape(-1, n, cr_dim, n, cr_dim)
    maps, xbar, w = _loop_map(u, rho if n == 1 else blocks.trace(axis1=1, axis2=3),
                              cr_dim, ctc_dim)
    sigma, fps = _fixed_points(maps, ctc_dim, selection)
    if n == 1:
        out = _output(xbar, w, sigma)
    else:
        out = frozen_channel(u, blocks.transpose(0, 1, 3, 2, 4), sigma, cr_dim,
                             ctc_dim).transpose(0, 1, 3, 2, 4).reshape(rho.shape)
    return _checked_output(out), fps


def ctc_evolve(circuit: Circuit, rho_cr, selection: str = "canonical"
               ) -> tuple[np.ndarray, FixedPointResult]:
    """Full nonlinear evolution of a CR input through a circuit.

    Takes the circuit's unitary from compile_unitary, which builds it on the
    first call for that Circuit and reuses it after, then runs the
    consistency step and the final partial trace, as a stack of one. Returns
    the evolved CR state together with the fixed-point record.
    """
    _require_instance(circuit, Circuit, "circuit")
    (out,), (fp,) = evolve_stack(compile_unitary(circuit), _checked_cr(
        rho_cr, circuit.cr_dim), circuit.cr_dim, circuit.ctc_dim, selection)
    return out, fp
