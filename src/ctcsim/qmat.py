"""Dense complex linear algebra and information measures.

Everything downstream (circuits, the fixed-point engine, the discrimination
experiments) is built on the primitives here. One global convention applies
throughout the package: in a tensor product the FIRST factor is the most
significant, i.e. ``kron(a, b)`` has block structure indexed by ``a`` and the
row-major index of ``|i⟩⊗|j⟩`` is ``i * dim_b + j``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """An input failed matrix validation (shape, hermiticity, trace, ...)."""


# Numerical tolerances shared across the package; no function takes a
# per-call override.
# max entrywise deviation of M from M†, and the unit-trace and unitarity defects
HERMITICITY_TOL = 1e-10
# eigenvalues in [-PSD_FLOOR, 0) count as zero; anything lower is an error,
# never silently repaired
PSD_FLOOR = 1e-10
# acceptance bound on ½‖E(σ)−σ‖₁ for solver output
FIXED_POINT_RESIDUAL = 1e-9
# superoperator eigenvalues within this distance of 1 form the fixed subspace
EIGENVALUE_ONE_WINDOW = 1e-9


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of `validate`: each violation as (invariant name, magnitude)."""

    kind: str
    violations: tuple[tuple[str, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def message(self) -> str:
        if self.ok:
            return f"valid {self.kind}"
        parts = ", ".join(f"{name} (violation {mag:.3e})"
                          for name, mag in self.violations)
        return f"invalid {self.kind}: {parts}"


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def kron(*factors) -> np.ndarray:
    """Kronecker product with the first factor most significant.

    ``kron(a, b, c)`` equals ``kron(kron(a, b), c)``; dimensions multiply.
    """
    if not factors:
        raise ValidationError("kron needs at least one factor")
    out = _as_matrix(factors[0])
    for f in factors[1:]:
        out = np.kron(out, _as_matrix(f))
    return out


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in `keep`.

    Args:
        m: square matrix over the full tensor space.
        dims: subsystem dimensions in order, product must match m. Entries
            of 1 are permitted (trivial factors).
        keep: indices of the subsystems to retain; the result keeps them in
            ascending index order. Must be a nonempty subset.

    Returns:
        The reduced matrix on the kept subsystems; trace is preserved.
    """
    a = _as_matrix(m)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValidationError("subsystem dimensions must be >= 1")
    total = int(np.prod(dims))
    if a.shape != (total, total):
        raise ValidationError(
            f"dims {dims} imply shape ({total}, {total}), got {a.shape}")
    keep = sorted(set(int(k) for k in keep))
    n = len(dims)
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"keep must be a nonempty subset of 0..{n - 1}")
    t = a.reshape(dims + dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out_axes = keep + [i + n for i in keep]
    reduced = np.einsum(t, row + col, out_axes)
    dk = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(dk, dk)


def trace_distance(a, b) -> float:
    """½ Σ|eigenvalues of (a − b)| for equal-dimension Hermitian inputs.

    The difference is Hermitized before the eigendecomposition; this is a
    diagnostic, not a validator.
    """
    ma, mb = _as_matrix(a), _as_matrix(b)
    if ma.shape != mb.shape:
        raise ValidationError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return float(_half_trace_norms(ma - mb))


def _hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(-1, -2)) / 2


def _half_trace_norms(diff: np.ndarray) -> np.ndarray:
    """½ Σ|eigenvalues| of each Hermitized matrix of a stack (..., d, d)."""
    return np.abs(np.linalg.eigvalsh(_hermitize(diff))).sum(axis=-1) / 2


def von_neumann_entropy(rho) -> float:
    """−Σ λ log₂ λ in bits, with 0·log 0 = 0.

    Eigenvalues in [-PSD_FLOOR, 0) count as 0; anything lower raises.
    """
    h = _as_matrix(rho)
    lam = np.linalg.eigvalsh((h + dagger(h)) / 2)
    if lam[0] < -PSD_FLOOR:
        raise ValidationError(
            f"eigenvalue {lam[0]:.3e} below the PSD floor -{PSD_FLOOR:.1e}")
    lam = lam[lam > 0]
    return float(-(lam * np.log2(lam)).sum())


def mutual_information(rho_ab, dims) -> float:
    """S(A) + S(B) − S(AB) in bits across the bipartition `dims` = (dA, dB).

    Numerical noise may produce tiny negatives; values in [−1e−8, 0) are
    clamped to 0 and anything lower is an error.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) != 2:
        raise ValidationError("mutual_information needs exactly two subsystems")
    rho_a = partial_trace(rho_ab, dims, keep=[0])
    rho_b = partial_trace(rho_ab, dims, keep=[1])
    mi = (von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
          - von_neumann_entropy(rho_ab))
    if mi < -1e-8:
        raise ValidationError(f"mutual information {mi:.3e} below -1e-8")
    return max(mi, 0.0)


def validate(m, kind: str) -> ValidationReport:
    """Check matrix invariants without raising.

    The PSD test of a density matrix is certified by one numpy Cholesky
    factorization of h + PSD_FLOOR·I, h the Hermitized matrix: in exact
    arithmetic it succeeds iff λ_min(h) > −PSD_FLOOR. Only when it fails
    does numpy's eigvalsh run; its λ_min then decides the case and sizes the
    violation, so boundary decisions and reported magnitudes are eigvalsh's.

    Args:
        m: square matrix.
        kind: "density" (Hermitian, PSD within PSD_FLOOR, unit trace) or
            "unitary" (M†M = I within HERMITICITY_TOL).

    Returns:
        A ValidationReport listing each violated invariant and its magnitude.
        Malformed input (not square, 0 x 0, non-finite entries) is itself
        reported as a violation, never raised.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return ValidationReport(kind, (("square shape", float("nan")),))
    if a.size == 0:
        return ValidationReport(kind, (("nonempty shape", float("nan")),))
    if not np.isfinite(a).all():
        return ValidationReport(kind, (("finite entries", float("nan")),))
    violations: list[tuple[str, float]] = []
    if kind == "density":
        herm = float(np.abs(a - dagger(a)).max())
        if herm > HERMITICITY_TOL:
            violations.append(("hermiticity", herm))
        tr = float(abs(a.trace() - 1.0))
        if tr > HERMITICITY_TOL:
            violations.append(("unit trace", tr))
        shifted = (a + dagger(a)) / 2
        shifted.flat[::a.shape[0] + 1] += PSD_FLOOR
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            lam_min = float(np.linalg.eigvalsh((a + dagger(a)) / 2)[0])
            if lam_min < -PSD_FLOOR:
                violations.append(("positive semidefinite", -lam_min))
    elif kind == "unitary":
        defect = float(np.abs(dagger(a) @ a - np.eye(a.shape[0])).max())
        if defect > HERMITICITY_TOL:
            violations.append(("unitarity", defect))
    else:
        raise ValidationError(f"unknown validation kind {kind!r}")
    return ValidationReport(kind, tuple(violations))


def _density_failure(stack) -> tuple[int, ValidationReport] | None:
    """(index, report) of the first matrix of a stack (B, d, d) that validate
    rejects as a density, or None; item by item only if the stacked rules fail."""
    a = np.asarray(stack, dtype=complex)
    if a.shape[1] == a.shape[2] and a.size and np.isfinite(a).all():
        a_h = a.conj().swapaxes(1, 2)
        shifted = (a + a_h) / 2
        shifted.reshape(len(a), -1)[:, ::a.shape[1] + 1] += PSD_FLOOR
        if (np.abs(a - a_h).max() <= HERMITICITY_TOL and np.abs(
                a.trace(axis1=1, axis2=2) - 1.0).max() <= HERMITICITY_TOL):
            try:
                np.linalg.cholesky(shifted)
                return None
            except np.linalg.LinAlgError:
                pass
    reports = (validate(item, "density") for item in a)
    return next(((i, r) for i, r in enumerate(reports) if not r.ok), None)


def require_density(m, what: str = "state") -> np.ndarray:
    """Validate as a density matrix, raising ValidationError on failure."""
    a = _as_matrix(m)
    report = validate(a, "density")
    if not report.ok:
        raise ValidationError(f"{what}: {report.message()}")
    return a


def require_unitary(m, what: str = "matrix") -> np.ndarray:
    """Validate as a unitary, raising ValidationError on failure."""
    a = _as_matrix(m)
    report = validate(a, "unitary")
    if not report.ok:
        raise ValidationError(f"{what}: {report.message()}")
    return a
