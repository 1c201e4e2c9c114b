"""Dense complex linear algebra and information measures.

Everything downstream (circuits, the fixed-point engine, the discrimination
experiments) is built on the primitives here. One global convention applies
throughout the package: in a tensor product the FIRST factor is the most
significant, i.e. ``kron(a, b)`` has block structure indexed by ``a`` and the
row-major index of ``|i⟩⊗|j⟩`` is ``i * dim_b + j``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """An input failed matrix validation (shape, hermiticity, trace, ...)."""


# Numerical tolerances, each named once here for the whole package; no
# function takes a per-call override.
HERMITICITY_TOL = 1e-10      # max |M - M†| entry; unit-trace, unitarity defects
PSD_FLOOR = 1e-10            # eigenvalues in [-PSD_FLOOR, 0) count as zero
NORM_TOL = 1e-10             # | ||v|| - 1 | of a pure state
WEIGHT_SUM_TOL = 1e-12       # | sum p - 1 | of an ensemble's weights
INNER_PRODUCT_TOL = 1e-10    # 1 - |<a|b>| of one ray; |<a|b> - <Ua|Ub>|
BUILTIN_MATCH_TOL = 1e-12    # max deviation of a builtin-named gate's matrix
TRACE_PRESERVING_TOL = 1e-10  # a superoperator's trace-preservation defect
CHOI_PSD_FLOOR = 1e-9        # Choi eigenvalues in [-CHOI_PSD_FLOOR, 0) are CP
MUTUAL_INFO_FLOOR = 1e-8     # mutual information in [-floor, 0) clamps to 0
FIXED_POINT_RESIDUAL = 1e-9  # acceptance bound on ½‖E(σ)−σ‖₁ of solver output
EIGENVALUE_ONE_WINDOW = 1e-9  # loop-map eigenvalues this close to 1 are fixed
HERMITICITY_PRESERVING_TOL = 1e-10  # max |conj(M) - K M K| entry of a loop map M


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


def _as_array(m, what: str, dtype=complex) -> np.ndarray:
    """m as an array of dtype (None: numpy's choice); entries numpy cannot
    read as numbers, or a ragged nesting, raise ValidationError."""
    try:
        return np.asarray(m, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what}: not an array of numbers ({exc})") from exc


def _is_integer(value) -> bool:
    """value is a Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_integer(value, what: str, least: int = 1):
    """value, refused unless it is an integer >= least (no coercion)."""
    if not (_is_integer(value) and value >= least):
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def _square(m, d: int, what: str) -> np.ndarray:
    """A caller's m as a complex array, refused unless it is d x d."""
    a = _as_array(m, what)
    if a.shape != (d, d):
        raise ValidationError(f"{what} shape {a.shape}, expected {(d, d)}")
    return a


def _require_instance(obj, cls: type, what: str) -> None:
    if not isinstance(obj, cls):
        raise ValidationError(f"{what} must be a {cls.__name__}, got {type(obj).__name__}")


def _as_matrix(m) -> np.ndarray:
    a = _as_array(m, "matrix")
    if a.ndim != 2:
        raise ValidationError(f"expected a matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix has non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def kron(*factors) -> np.ndarray:
    """Kronecker product of the factors in order, the first most significant."""
    if not factors:
        raise ValidationError("kron needs at least one factor")
    return functools.reduce(np.kron, map(_as_matrix, factors))


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out the tensor factors of m not listed in `keep`, a nonempty
    subset of the factor indices; the kept factors stay in ascending order
    and the trace is preserved. dims are the factor dimensions in order,
    integers >= 1 whose product is m's dimension; a dims or keep entry that
    is not an integer raises ValidationError, never a truncation."""
    a = _as_matrix(m)
    dims = tuple(_require_integer(d, f"dims[{i}]") for i, d in enumerate(dims))
    _square(a, math.prod(dims), f"dims {dims}: matrix")
    keep = sorted({_require_integer(k, "keep entry", 0) for k in keep})
    n = len(dims)
    if not keep or keep[-1] >= n:
        raise ValidationError(f"keep must be a nonempty subset of 0..{n - 1}")
    t = a.reshape(dims + dims)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out_axes = keep + [i + n for i in keep]
    reduced = np.einsum(t, row + col, out_axes)
    dk = math.prod(dims[i] for i in keep)
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
    """S(A) + S(B) − S(AB) in bits across the bipartition `dims` = (dA, dB),
    two integers >= 1 (any other entry raises ValidationError).

    Numerical noise may produce tiny negatives; values in
    [−MUTUAL_INFO_FLOOR, 0) are clamped to 0 and anything lower is an error.
    """
    dims = tuple(dims)
    if len(dims) != 2:
        raise ValidationError("mutual_information needs exactly two subsystems")
    rho_a, rho_b = (partial_trace(rho_ab, dims, keep=[k]) for k in (0, 1))
    mi = (von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
          - von_neumann_entropy(rho_ab))
    if mi < -MUTUAL_INFO_FLOOR:
        raise ValidationError(f"mutual information {mi:.3e} below -1e-8")
    return max(mi, 0.0)


def _norms(vecs: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each vector of a stack (..., d), to the bit; a norm
    whose square overflows is inf, without a warning."""
    re, im = vecs.real[..., None, :], vecs.imag[..., None, :]
    with np.errstate(over="ignore"):
        return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


# --- the input rules: one stacked check per kind ----------------------------

def _first_failure(kind: str, stack: np.ndarray, rules, finite: bool = True
                   ) -> tuple[int, ValidationReport] | None:
    """(index, report) of the first item of a stack that breaks a rule, or
    None. rules(items) gives (name, magnitudes, limit) per rule, a float per
    item, broken above the limit. With `finite`, the rules see only the items
    before the first non-finite one, which fails "finite entries"."""
    end = len(stack)
    if finite and not np.isfinite(stack).all():
        end = int(np.isfinite(stack).reshape(end, -1).all(axis=1).argmin())
    checked = rules(stack if end == len(stack) else stack[:end])
    i = end
    for _, mag, limit in checked:   # scan what max() does not clear (a NaN first too)
        if not max(mag, default=0.0) <= limit:
            i = next((k for k, x in enumerate(mag[:i]) if x > limit), i)
    if i < end:
        return i, ValidationReport(kind, tuple(
            (name, mag[i]) for name, mag, limit in checked if mag[i] > limit))
    if end < len(stack):
        return end, ValidationReport(kind, (("finite entries", math.nan),))
    return None


def _density_failure(stack: np.ndarray) -> tuple[int, ValidationReport] | None:
    """Density matrices (B, d, d): Hermitian and of unit trace within
    HERMITICITY_TOL, PSD within PSD_FLOOR. One Cholesky factorization of all
    h + PSD_FLOOR·I (h Hermitized) passes every λ_min(h) > −PSD_FLOOR; if it
    fails, each item's eigvalsh λ_min decides it and sizes the violation."""
    def rules(a):
        a_h = a.conj().swapaxes(1, 2)
        shifted = (a + a_h) / 2
        shifted.reshape(len(a), a.shape[1] ** 2)[:, ::a.shape[1] + 1] += PSD_FLOOR
        try:
            np.linalg.cholesky(shifted)
            psd = [0.0] * len(a)
        except np.linalg.LinAlgError:
            psd = (-np.linalg.eigvalsh((a + a_h) / 2)[:, 0]).tolist()
        herm = np.abs(a - a_h).max(axis=(1, 2)).tolist()
        trace = [abs(t - 1.0) for t in a.trace(axis1=1, axis2=2).tolist()]
        return (("hermiticity", herm, HERMITICITY_TOL),
                ("unit trace", trace, HERMITICITY_TOL),
                ("positive semidefinite", psd, PSD_FLOOR))
    return _first_failure("density", stack, rules)


def _unitary_failure(stack: np.ndarray) -> tuple[int, ValidationReport] | None:
    """Unitaries (B, d, d): M†M = I within HERMITICITY_TOL."""
    return _first_failure("unitary", stack, lambda a: (("unitarity", np.abs(
        a.conj().swapaxes(1, 2) @ a - np.eye(a.shape[1])).max(axis=(1, 2)).tolist(),
        HERMITICITY_TOL),))


def _state_failure(stack: np.ndarray) -> tuple[int, ValidationReport] | None:
    """Pure states (B, d): norm 1 within NORM_TOL."""
    return _first_failure("state", stack, lambda v: (
        ("unit norm", [abs(n - 1.0) for n in _norms(v).tolist()], NORM_TOL),))


def _weights_failure(stack: np.ndarray) -> tuple[int, ValidationReport] | None:
    """Weight vectors (B, n): all positive (the magnitude counts those not,
    NaN too), and their Python sum 1 within WEIGHT_SUM_TOL."""
    def rules(p):
        rows = p.tolist()
        positive = [float(sum(not w > 0 for w in r)) for r in rows]
        return (("positive weights", positive, 0),
                ("unit sum", [abs(sum(r) - 1.0) for r in rows], WEIGHT_SUM_TOL))
    return _first_failure("weights", stack, rules, finite=False)


def validate(m, kind: str) -> ValidationReport:
    """The ValidationReport of a square matrix, each violated invariant with
    its magnitude: the one-item view of _density_failure (kind "density") or
    _unitary_failure ("unitary"). Malformed input (entries that are not
    numbers, not square, 0 x 0, non-finite) is reported, never raised."""
    check = {"density": _density_failure, "unitary": _unitary_failure}.get(
        kind if isinstance(kind, str) else None)
    if check is None:
        raise ValidationError(f"unknown validation kind {kind!r}")
    try:
        a = _as_array(m, "matrix")
    except ValidationError:
        return ValidationReport(kind, (("numeric entries", math.nan),))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return ValidationReport(kind, (("square shape", math.nan),))
    if a.size == 0:
        return ValidationReport(kind, (("nonempty shape", math.nan),))
    failure = check(a[None])
    return ValidationReport(kind, ()) if failure is None else failure[1]


def _require(m, kind: str, what: str) -> np.ndarray:
    a = _as_matrix(m)
    report = validate(a, kind)
    if not report.ok:
        raise ValidationError(f"{what}: {report.message()}")
    return a


def require_density(m, what: str = "state") -> np.ndarray:
    """Validate as a density matrix, raising ValidationError on failure."""
    return _require(m, "density", what)


def require_unitary(m, what: str = "matrix") -> np.ndarray:
    """Validate as a unitary, raising ValidationError on failure."""
    return _require(m, "unitary", what)
