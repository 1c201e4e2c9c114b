"""Tests for the linear-algebra layer."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from ctcsim.qmat import (EIGENVALUE_ONE_WINDOW, FIXED_POINT_RESIDUAL,
                         HERMITICITY_TOL, PSD_FLOOR, ValidationError,
                         _density_failure, _state_failure, _unitary_failure,
                         _weights_failure, dagger, kron, mutual_information,
                         partial_trace, require_density, require_unitary,
                         trace_distance, validate, von_neumann_entropy)
from ctcsim import Gate, Superoperator, build_epr_swap, ctc_evolve
from ctcsim.oracle import random_unitary
from ctcsim.protocol import LabeledEnsemble

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
    report = validate(I2 / 2, "density")
    assert report.ok and report.message() == "valid density"


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


def rank_deficient(d, rank, seed):
    """G G+ / tr(G G+) for a complex Gaussian d x rank matrix G."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ dagger(g)
    return m / m.trace().real


@pytest.fixture
def no_eigvalsh(monkeypatch):
    """States inside the floor must be certified by the Cholesky factor of
    h + PSD_FLOOR I alone, without the eigensolver validate falls back to
    (numpy's eigvalsh)."""
    def fail(*args, **kwargs):
        raise AssertionError("eigvalsh ran on an accepted state")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 12, 33, 64, 100, 128])
def test_psd_check_accepts_pure_and_rank_deficient_states(d, no_eigvalsh):
    for rank in sorted({1, 2, d // 2, d - 1}):
        report = validate(rank_deficient(d, rank, [d, rank]), "density")
        assert report.ok, (d, rank, report.message())


def spectrum_state(lam, seed):
    """Q diag(lam) Q+ for a Haar-random Q."""
    q = random_unitary(len(lam), seed)
    return (q * np.asarray(lam, dtype=float)) @ dagger(q)


def test_psd_check_tolerates_negatives_above_the_floor(no_eigvalsh):
    lam = [1.0 + 0.5 * PSD_FLOOR, -0.5 * PSD_FLOOR, 0.0]
    assert validate(np.diag(lam).astype(complex), "density").ok
    assert validate(spectrum_state(lam, 4), "density").ok


def test_psd_check_rejects_below_the_floor_with_the_eigvalsh_magnitude():
    lam = [1.0 + 2 * PSD_FLOOR, -2 * PSD_FLOOR, 0.0]
    for m in (np.diag(lam).astype(complex), spectrum_state(lam, 5)):
        report = validate(m, "density")
        lam_min = scipy.linalg.eigvalsh((m + dagger(m)) / 2)[0]
        assert report.violations == (("positive semidefinite", -lam_min),)
        assert abs(-lam_min - 2 * PSD_FLOOR) < 1e-14


@st.composite
def hermitian_unit_trace(draw):
    """Q diag(lam) Q+ of unit trace whose smallest eigenvalue lies near
    -PSD_FLOOR: lam holds -k * PSD_FLOOR, some zeros and positive weights."""
    d = draw(st.integers(1, 24))
    if d == 1:
        return np.ones((1, 1), dtype=complex)
    rank = draw(st.integers(1, d - 1))
    k = draw(st.one_of(st.floats(-1.0, 3.0), st.floats(0.9, 1.1)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.random(rank) + 0.01
    weights *= (1.0 + k * PSD_FLOOR) / weights.sum()
    lam = np.concatenate([[-k * PSD_FLOOR], np.zeros(d - 1 - rank), weights])
    return spectrum_state(lam, rng)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hermitian_unit_trace())
def test_psd_check_agrees_with_the_eigvalsh_rule(m):
    lam_min = scipy.linalg.eigvalsh((m + dagger(m)) / 2)[0]
    # within 1% of the floor, rounding may fall on either side of the cut
    assume(not -1.01 * PSD_FLOOR <= lam_min <= -0.99 * PSD_FLOOR)
    event("rejected" if lam_min < -PSD_FLOOR else "accepted")
    assert validate(m, "density").ok == (lam_min >= -PSD_FLOOR)


def reference_spectra(a, b):
    """trace_distance(a, b) and von_neumann_entropy(a) from scipy's eigvalsh."""
    diff = a - b
    lam = scipy.linalg.eigvalsh((a + dagger(a)) / 2)
    lam = lam[lam > 0]
    return (np.abs(scipy.linalg.eigvalsh((diff + dagger(diff)) / 2)).sum() / 2,
            -(lam * np.log2(lam)).sum())


def assert_spectra_match_scipy(a, b):
    want_distance, want_entropy = reference_spectra(a, b)
    assert abs(trace_distance(a, b) - want_distance) <= 1e-14
    # entropy reaches log2(d) bits, so the bound is relative above 1 bit
    assert (abs(von_neumann_entropy(a) - want_entropy)
            <= 1e-14 * max(1.0, want_entropy))


@st.composite
def state_pairs(draw):
    """Two d-dimensional density matrices, d <= 32, of random ranks."""
    d = draw(st.integers(1, 32))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    ranks = [draw(st.integers(1, d)) for _ in range(2)]
    return tuple(rank_deficient(d, r, [seed, k]) for k, r in enumerate(ranks))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(state_pairs())
def test_spectra_agree_with_scipy_eigvalsh(pair):
    assert_spectra_match_scipy(*pair)


@pytest.mark.parametrize("d", [64, 128])
def test_spectra_agree_with_scipy_eigvalsh_at_large_dimension(d):
    for rank in (1, d // 2, d):
        assert_spectra_match_scipy(rank_deficient(d, rank, [d, rank, 0]),
                                   rank_deficient(d, d - rank + 1, [d, rank, 1]))


def test_validate_rejects_malformed_input():
    assert not validate(np.ones((2, 3)), "density").ok
    bad = np.eye(2, dtype=complex)
    bad[0, 0] = np.nan
    assert not validate(bad, "density").ok
    with pytest.raises(ValidationError):
        validate(I2, "projector")


@pytest.mark.parametrize("kind", ["density", "unitary"])
def test_validate_reports_an_empty_matrix(kind):
    report = validate(np.zeros((0, 0)), kind)
    assert [name for name, _ in report.violations] == ["nonempty shape"]
    assert np.isnan(report.violations[0][1])
    require = require_density if kind == "density" else require_unitary
    with pytest.raises(ValidationError, match="nonempty shape"):
        require(np.zeros((0, 0)))


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


# --- bad entries and the stacked checks ---------------------------------------

# entries numpy cannot read as numbers, and ragged nestings
@pytest.mark.parametrize("call", [
    lambda: require_density([[1, "a"]]),
    lambda: require_unitary([[1], [1, 2]]),
    lambda: trace_distance([[1, "a"]], [[1]]),
    lambda: kron(I2, [[1, "a"]]),
    lambda: ctc_evolve(build_epr_swap(), [[1, "a"]]),
    lambda: LabeledEnsemble([(0, 1.0, ["a", 0])]),
    lambda: LabeledEnsemble([(0, 1.0, [[1], [1, 2]])]),
    lambda: LabeledEnsemble([(0, "x", [1, 0])]),
    lambda: LabeledEnsemble([(0, None, [1, 0])]),
    lambda: LabeledEnsemble([(0, [0.5, 0.5], [1, 0])]),
    lambda: Gate("g", (0,), [[1, "a"]]),
    lambda: Superoperator(1, [["a"]]),
], ids=["require_density", "require_unitary-ragged", "trace_distance", "kron",
        "ctc_evolve", "ensemble-state", "ensemble-ragged-state",
        "ensemble-weight", "ensemble-none-weight", "ensemble-list-weight",
        "gate", "superoperator"])
def test_every_bad_entry_is_a_validation_error(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("call, words", [
    (lambda: kron(), "kron needs at least one factor"),
    (lambda: partial_trace(np.eye(2), (2, 0), keep=[0]),
     r"dims\[1\] must be an integer >= 1, got 0"),
    (lambda: partial_trace(np.eye(4) / 4, (2.9, 2), keep=[0]),
     r"dims\[0\] must be an integer >= 1, got 2\.9"),
    (lambda: partial_trace(np.eye(4) / 4, (True, 4), keep=[0]),
     r"dims\[0\] must be an integer >= 1, got True"),
    (lambda: partial_trace(np.eye(4) / 4, (2.0, 2), keep=[0]),
     r"dims\[0\] must be an integer >= 1, got 2\.0"),
    (lambda: partial_trace(np.eye(4) / 4, (2, 2), keep=[0.7]),
     r"keep entry must be an integer >= 0, got 0\.7"),
    (lambda: mutual_information(np.eye(4) / 4, (2.5, 2)),
     r"dims\[0\] must be an integer >= 1, got 2\.5"),
    (lambda: trace_distance(I2, np.eye(3)),
     r"dimension mismatch: \(2, 2\) vs \(3, 3\)"),
    (lambda: kron(I2, np.ones(2)), "expected a matrix, got ndim=1"),
    (lambda: trace_distance(I2, np.diag([np.inf, 0.0])),
     "matrix has non-finite entries"),
    (lambda: mutual_information(2 * np.eye(4) / 4, (2, 2)),
     r"mutual information -2\.000e\+00 below"),
], ids=["kron-no-factors", "partial-trace-dim-0", "partial-trace-float-dim",
        "partial-trace-bool-dim", "partial-trace-integral-float-dim",
        "partial-trace-float-keep",
        "mutual-information-float-dim", "trace-distance-shapes",
        "matrix-ndim", "matrix-non-finite", "mutual-information-floor"])
def test_each_primitive_refusal_names_its_rule(call, words):
    with pytest.raises(ValidationError, match=words):
        call()


@pytest.mark.parametrize("m", [[[1, "a"]], [[1], [1, 2]]])
@pytest.mark.parametrize("kind", ["density", "unitary"])
def test_validate_reports_entries_that_are_not_numbers(m, kind):
    report = validate(m, kind)
    assert [name for name, _ in report.violations] == ["numeric entries"]


def _spoil(kind, item, how, rng):
    """item with one rule of its kind broken, by a clear margin."""
    item = item.copy()
    if how == "non-finite":
        item.flat[rng.integers(item.size)] = rng.choice([np.nan, np.inf])
    elif how == "hermiticity":
        item[0, -1] += 1e-3 if len(item) > 1 else 1e-3j
    elif how == "trace":
        item *= 1.5
    elif how == "psd":
        lam = np.full(len(item), 0.4 / max(len(item) - 1, 1))
        lam[0] = -0.4 if len(item) > 1 else 1.0 + 0.4   # a 1 x 1 state: trace
        q = random_unitary(len(item), rng)
        item[...] = (q * lam) @ dagger(q)
    elif how == "unitarity":
        item[-1] *= 1.01
    elif how == "norm":
        item *= 1.001
    elif how == "weight":
        item[rng.integers(item.size)] = rng.choice([-0.2, 0.0, np.nan])
    elif how == "sum":
        item *= 1.01
    return item


SPOILS = {"density": ["hermiticity", "trace", "psd", "non-finite"],
          "unitary": ["unitarity", "non-finite"],
          "state": ["norm", "non-finite"],
          "weights": ["weight", "sum"]}


def _valid(kind, d, rng):
    if kind == "density":
        return rank_deficient(d, int(rng.integers(1, d + 1)), rng)
    if kind == "unitary":
        return random_unitary(d, rng)
    if kind == "state":
        return random_unitary(d, rng)[:, 0]
    w = rng.random(d) + 0.05
    return w / sum(w.tolist())


@st.composite
def spoiled_stacks(draw):
    """A stack of 1-6 valid items of one kind with 0-2 of them spoiled."""
    kind = draw(st.sampled_from(sorted(SPOILS)))
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    stack = np.stack([_valid(kind, d, rng) for _ in range(n)])
    spoiled = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    for i in spoiled:
        stack[i] = _spoil(kind, stack[i], draw(st.sampled_from(SPOILS[kind])), rng)
    return kind, stack, min(spoiled, default=None)


CHECKS = {"density": _density_failure, "unitary": _unitary_failure,
          "state": _state_failure, "weights": _weights_failure}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spoiled_stacks())
def test_the_stacked_check_is_its_one_item_view_on_the_first_bad_item(case):
    kind, stack, first = case
    event(kind)
    failure = CHECKS[kind](stack)
    # alone, the items before the first spoiled one pass, and it fails
    alone = [CHECKS[kind](stack[i:i + 1]) for i in range(len(stack))]
    failing_alone = [i for i, f in enumerate(alone) if f is not None]
    assert failing_alone[:1] == ([] if first is None else [first])
    if first is None:
        assert failure is None
        return
    index, report = failure
    assert index == first and not report.ok
    assert report == alone[first][1]
    if kind in ("density", "unitary"):
        assert report == validate(stack[first], kind)
