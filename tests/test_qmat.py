"""Tests for the linear-algebra layer."""

import numpy as np
import pytest

from ctcsim.qmat import (EIGENVALUE_ONE_WINDOW, FIXED_POINT_RESIDUAL,
                         HERMITICITY_TOL, PSD_FLOOR, ValidationError, dagger,
                         kron, mutual_information, partial_trace,
                         require_density, require_unitary, trace_distance,
                         validate, von_neumann_entropy)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def proj(v):
    return np.outer(v, v.conj())


def test_dagger_is_conjugate_transpose():
    m = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert np.array_equal(dagger(m), m.conj().T)


def test_kron_identities():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_first_factor_most_significant():
    # |0><0| x |1><1| puts its single 1 at row 1, col 1 (zero-based)
    m = kron(proj(KET0), proj(KET1))
    expected = np.zeros((4, 4))
    expected[1, 1] = 1.0
    assert np.array_equal(m, expected)


def test_kron_xx_maps_00_to_11():
    v00 = np.array([1, 0, 0, 0], dtype=complex)
    v11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(kron(X, X) @ v00, v11)


def test_kron_multiple_factors():
    a, b, c = np.diag([1.0, 2.0]), np.diag([3.0, 4.0]), np.diag([5.0, 6.0])
    assert np.allclose(kron(a, b, c), np.kron(np.kron(a, b), c))


def test_partial_trace_product_state():
    rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
    sigma = np.array([[0.5, 0.2j], [-0.2j, 0.5]], dtype=complex)
    assert np.allclose(partial_trace(kron(rho, sigma), (2, 2), keep=[0]), rho)
    assert np.allclose(partial_trace(kron(rho, sigma), (2, 2), keep=[1]), sigma)


def test_partial_trace_bell_is_maximally_mixed():
    assert np.allclose(partial_trace(proj(BELL), (2, 2), keep=[1]), I2 / 2)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dims = tuple(rng.choice([2, 3, 4], size=rng.integers(2, 4)))
        total = int(np.prod(dims))
        g = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
        m = g + dagger(g)
        keep = sorted(rng.choice(len(dims), size=rng.integers(1, len(dims)),
                                 replace=False).tolist())
        reduced = partial_trace(m, dims, keep)
        assert abs(reduced.trace() - m.trace()) < 1e-10


def test_partial_trace_keep_all_and_validation():
    m = np.eye(4, dtype=complex)
    assert np.allclose(partial_trace(m, (2, 2), keep=[0, 1]), m)
    with pytest.raises(ValidationError):
        partial_trace(m, (2, 3), keep=[0])
    with pytest.raises(ValidationError):
        partial_trace(m, (2, 2), keep=[2])
    with pytest.raises(ValidationError):
        partial_trace(m, (2, 2), keep=[])


def test_trace_distance_basics():
    rho = proj(PLUS)
    assert trace_distance(rho, rho) == 0.0
    assert abs(trace_distance(proj(KET0), proj(KET1)) - 1.0) < 1e-12


def test_trace_distance_zero_vs_plus():
    # closed form: eigenvalues of the difference are +-1/2 sqrt(2)
    assert abs(trace_distance(proj(KET0), proj(PLUS)) - 0.7071067811865476) < 1e-12


def test_entropy_values():
    assert von_neumann_entropy(proj(KET0)) == 0.0
    assert abs(von_neumann_entropy(I2 / 2) - 1.0) < 1e-12
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) < 1e-12


def test_entropy_rejects_negative_eigenvalues():
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.diag([1.1, -0.1]).astype(complex))


def test_entropy_clips_tiny_negatives():
    rho = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    assert abs(von_neumann_entropy(rho)) < 1e-9


def test_mutual_information_product_state():
    rho = kron(np.diag([0.2, 0.8]), np.diag([0.6, 0.4])).astype(complex)
    assert abs(mutual_information(rho, (2, 2))) < 1e-12


def test_mutual_information_classical_and_quantum():
    classical = np.zeros((4, 4), dtype=complex)
    classical[0, 0] = classical[3, 3] = 0.5
    assert abs(mutual_information(classical, (2, 2)) - 1.0) < 1e-12
    assert abs(mutual_information(proj(BELL), (2, 2)) - 2.0) < 1e-12


def test_mutual_information_needs_bipartition():
    with pytest.raises(ValidationError):
        mutual_information(np.eye(8) / 8, (2, 2, 2))


def test_validate_density_accepts_maximally_mixed():
    assert validate(I2 / 2, "density").ok


def test_validate_unitary_accepts_hadamard():
    assert validate(H, "unitary").ok


def test_validate_density_rejects_bad_trace():
    report = validate(np.diag([1.0, 0.1]).astype(complex), "density")
    assert not report.ok
    assert "trace" in report.message()


def test_validate_density_rejects_non_hermitian_and_negative():
    report = validate(np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex), "density")
    assert not report.ok
    report = validate(np.diag([1.5, -0.5]).astype(complex), "density")
    assert not report.ok
    assert "positive semidefinite" in report.message()


def test_validate_rejects_malformed_input():
    assert not validate(np.ones((2, 3)), "density").ok
    bad = np.eye(2, dtype=complex)
    bad[0, 0] = np.nan
    assert not validate(bad, "density").ok
    with pytest.raises(ValidationError):
        validate(I2, "projector")


def test_require_helpers_raise_with_context():
    with pytest.raises(ValidationError, match="rho_test"):
        require_density(np.diag([2.0, 0.0]).astype(complex), what="rho_test")
    with pytest.raises(ValidationError, match="gate"):
        require_unitary(np.diag([1.0, 2.0]).astype(complex), what="gate")
    assert np.array_equal(require_unitary(H), H)


def test_tolerances_defaults_and_positivity():
    assert HERMITICITY_TOL == 1e-10
    assert PSD_FLOOR == 1e-10
    assert FIXED_POINT_RESIDUAL == 1e-9
    assert EIGENVALUE_ONE_WINDOW == 1e-9
