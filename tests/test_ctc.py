"""Tests for the fixed-point engine: superoperators, solvers, evolution."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import ctcsim.ctc as ctc_module
from ctcsim.circuit import (Circuit, Gate, build_bhw2, build_epr_swap,
                            compile_unitary, complete_unitary, parse_circuit,
                            serialize_circuit)
from ctcsim.ctc import (ConvergenceError, SolverError, Superoperator,
                        _fixed_points, _hermitize, _lu_fixed_point,
                        _real_form, _schur_fixed_point, choi_matrix, ctc_evolve,
                        evolve_given_ctc_state, fixed_point_cesaro,
                        fixed_point_exact, induced_superoperator,
                        validate_superoperator)
from ctcsim.oracle import random_density, random_unitary
from ctcsim.qmat import (EIGENVALUE_ONE_WINDOW, ValidationError, dagger, kron,
                         mutual_information, partial_trace, trace_distance,
                         validate, von_neumann_entropy)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def proj(v):
    return np.outer(v, v.conj())


def vec(m):
    return m.reshape(-1, order="F")


def apply_map_directly(u, rho_cr, sigma, cr_dim, ctc_dim):
    """Reference evaluation of the induced map, bypassing Superoperator."""
    joint = u @ kron(rho_cr, sigma) @ dagger(u)
    return partial_trace(joint, (cr_dim, ctc_dim), keep=[1])


def epr_superoperator():
    circuit = build_epr_swap()
    u = compile_unitary(circuit)
    return induced_superoperator(u, proj(BELL), circuit.cr_dims,
                                 circuit.ctc_dims), u


# --- induced superoperator ---------------------------------------------------

def test_identity_unitary_gives_identity_superoperator():
    s = induced_superoperator(np.eye(4, dtype=complex), proj(KET0), (2,), (2,))
    assert np.allclose(s.matrix, np.eye(4))


def test_swap_unitary_gives_constant_map():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)
    rho = random_density(2, 3)
    s = induced_superoperator(swap, rho, (2,), (2,))
    rng = np.random.default_rng(0)
    for _ in range(5):
        sigma = random_density(2, rng)
        assert np.allclose(s.apply(sigma), rho)


def test_columns_hold_matrix_unit_images():
    # column j*d+i must be vec of the image of |i><j|
    u = random_unitary(4, 9)
    rho = random_density(2, 9)
    s = induced_superoperator(u, rho, (2,), (2,))
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            image = partial_trace(u @ kron(rho, unit) @ dagger(u), (2, 2), keep=[1])
            assert np.allclose(s.matrix[:, j * 2 + i], vec(image))


def test_epr_superoperator_is_constant_onto_half_identity():
    s, _ = epr_superoperator()
    rng = np.random.default_rng(1)
    for _ in range(5):
        sigma = random_density(2, rng)
        assert trace_distance(s.apply(sigma), np.eye(2) / 2) < 1e-12


def test_induced_superoperator_validation():
    with pytest.raises(ValidationError):
        induced_superoperator(np.eye(3, dtype=complex), proj(KET0), (2,), (2,))
    with pytest.raises(ValidationError):
        induced_superoperator(np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex),
                              proj(KET0), (2,), (2,))
    with pytest.raises(ValidationError):
        induced_superoperator(np.eye(4, dtype=complex), np.eye(2, dtype=complex),
                              (2,), (2,))  # trace 2


def test_superoperator_shape_checks():
    with pytest.raises(ValidationError):
        Superoperator(d_ctc=2, matrix=np.eye(3, dtype=complex))
    s = Superoperator(d_ctc=2, matrix=np.eye(4, dtype=complex))
    with pytest.raises(ValidationError):
        s.apply(np.eye(3, dtype=complex))


def test_validate_superoperator_on_induced_maps():
    rng = np.random.default_rng(7)
    for trial in range(10):
        u = random_unitary(8, rng)
        rho = random_density(4, rng)
        s = induced_superoperator(u, rho, (2, 2), (2,))
        report = validate_superoperator(s)
        assert report.ok, report.message()


def test_validate_superoperator_flags_violations():
    not_tp = Superoperator(d_ctc=2, matrix=1.1 * np.eye(4, dtype=complex))
    report = validate_superoperator(not_tp)
    assert not report.ok and "trace" in report.message()
    # transpose map is positive but not completely positive
    transpose = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[i, j] = 1.0
            transpose[:, j * 2 + i] = vec(unit.T)
    report = validate_superoperator(Superoperator(d_ctc=2, matrix=transpose))
    assert not report.ok and "positive" in report.message()


def test_choi_matrix_of_identity_channel():
    s = Superoperator(d_ctc=2, matrix=np.eye(4, dtype=complex))
    choi = choi_matrix(s)
    expected = 2 * proj(BELL)
    assert np.allclose(choi, expected)


# --- exact fixed points ------------------------------------------------------

def test_identity_superoperator_canonical_point():
    s = Superoperator(d_ctc=2, matrix=np.eye(4, dtype=complex))
    fp = fixed_point_exact(s)
    assert fp.fixed_space_dim == 4
    assert trace_distance(fp.sigma, np.eye(2) / 2) < 1e-12
    assert fp.method == "exact" and fp.selection == "canonical"


def test_epr_fixed_point_is_half_identity():
    s, _ = epr_superoperator()
    fp = fixed_point_exact(s)
    assert fp.fixed_space_dim == 1
    assert fp.residual <= 1e-10
    assert trace_distance(fp.sigma, np.eye(2) / 2) < 1e-9


def test_bhw2_plus_input_fixed_point():
    circuit = build_bhw2(PLUS)
    u = compile_unitary(circuit)
    s = induced_superoperator(u, proj(PLUS), circuit.cr_dims, circuit.ctc_dims)
    fp = fixed_point_exact(s)
    assert trace_distance(fp.sigma, proj(KET1)) < 1e-9


def kraus_superoperator(kraus_ops, d):
    m = np.zeros((d * d, d * d), dtype=complex)
    for k in kraus_ops:
        m += np.kron(k.conj(), k)
    return Superoperator(d_ctc=d, matrix=m)


def test_selection_rules_differ_on_degenerate_channel():
    # Kraus {P0, P1, |1><2|}: fixed points are diag(a, 1-a, 0); iterating from
    # I/3 lands on diag(1/3, 2/3, 0) while the entropy maximum is at a = 1/2
    p0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0, 0.0]).astype(complex)
    shift = np.zeros((3, 3), dtype=complex)
    shift[1, 2] = 1.0
    s = kraus_superoperator([p0, p1, shift], 3)
    assert validate_superoperator(s).ok
    canonical = fixed_point_exact(s, "canonical")
    assert canonical.fixed_space_dim == 2
    assert trace_distance(canonical.sigma, np.diag([1 / 3, 2 / 3, 0])) < 1e-9
    maxent = fixed_point_exact(s, "max_entropy")
    assert trace_distance(maxent.sigma, np.diag([0.5, 0.5, 0.0])) < 1e-10
    assert maxent.selection == "max_entropy"


@pytest.mark.parametrize("gamma", [0.5, 0.01])
def test_canonical_point_is_the_limit_of_a_leak(gamma):
    # Kraus {diag(1, 1, sqrt(1 - gamma)), sqrt(gamma) |1><2|}: |2> leaks into
    # |1> with decaying eigenvalues 1 - gamma and sqrt(1 - gamma), so
    # iterating from I/3 lands on diag(1/3, 2/3, 0), where the orthogonal
    # projection of I/3 onto the fixed space would give diag(1/2, 1/2, 0)
    shift = np.zeros((3, 3), dtype=complex)
    shift[1, 2] = 1.0
    s = kraus_superoperator([np.diag([1, 1, np.sqrt(1 - gamma)]).astype(complex),
                             np.sqrt(gamma) * shift], 3)
    fp = fixed_point_exact(s)
    assert fp.fixed_space_dim == 4
    assert trace_distance(fp.sigma, np.diag([1 / 3, 2 / 3, 0])) < 1e-10


def block_channel(blocks, scramble):
    """Kraus operators of (+)_k X_k -> Tr_2(X_k) x omega_k on blocks
    C^{d_k} x C^{m_k}, conjugated by `scramble`, and the analytic maximum
    entropy fixed point (+)_k p_k (I/d_k) x omega_k, p_k ~ 2^{S_k}."""
    total = sum(d * omega.shape[0] for d, omega in blocks)
    kraus, parts = [], []
    offset = 0
    for d, omega in blocks:
        m = omega.shape[0]
        embed = np.eye(total, dtype=complex)[:, offset:offset + d * m]
        lam, vecs = np.linalg.eigh(omega)
        for a in range(m):
            for b in range(m):
                swap_in = np.sqrt(lam[a]) * np.outer(vecs[:, a], np.eye(m)[b])
                kraus.append(scramble @ embed @ np.kron(np.eye(d), swap_in)
                             @ dagger(scramble @ embed))
        parts.append(scramble @ embed @ np.kron(np.eye(d) / d, omega)
                     @ dagger(scramble @ embed))
        offset += d * m
    weights = np.array([2 ** von_neumann_entropy(p) for p in parts])
    answer = sum(w * p for w, p in zip(weights / weights.sum(), parts))
    return kraus, answer


def test_max_entropy_weighs_blocks_by_entropy():
    # M_2 x omega (+) M_1 x omega' on C^6 in a scrambled basis: the fixed
    # space has dimension 2^2 + 1^2 = 5
    rng = np.random.default_rng(1)
    kraus, answer = block_channel([(2, random_density(2, rng)),
                                   (1, random_density(2, rng))],
                                  random_unitary(6, rng))
    s = kraus_superoperator(kraus, 6)
    assert validate_superoperator(s).ok
    fp = fixed_point_exact(s, "max_entropy")
    assert fp.fixed_space_dim == 5
    assert trace_distance(fp.sigma, answer) < 1e-10


def test_max_entropy_on_leak_circuit():
    # CR |0> with a CTC qutrit: |0,0> -> |0,0>, |0,1> -> |0,1>, |0,2> -> |1,1>
    # leaks |2> into |1>, so the fixed states are those on span{|0>, |1>}
    e = np.eye(6)
    u = complete_unitary([(e[0], e[0]), (e[1], e[1]), (e[2], e[4])], 6)
    circuit = Circuit(cr_dims=(2,), ctc_dims=(3,), gates=(Gate("leak", (0, 1), u),))
    rho = proj(KET0)
    _, canonical = ctc_evolve(circuit, rho)
    assert canonical.fixed_space_dim == 4
    assert trace_distance(canonical.sigma, np.diag([1 / 3, 2 / 3, 0])) < 1e-10
    _, maxent = ctc_evolve(circuit, rho, "max_entropy")
    assert trace_distance(maxent.sigma, np.diag([0.5, 0.5, 0.0])) < 1e-10


def test_max_entropy_on_untouched_ctc_wires():
    # no gate touches the two CTC qubits: E is the identity, the answer I/4
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2, 2), gates=(Gate("h", (0,)),))
    _, fp = ctc_evolve(circuit, proj(PLUS), "max_entropy")
    assert fp.fixed_space_dim == 16
    assert trace_distance(fp.sigma, np.eye(4) / 4) < 1e-10


def test_near_degenerate_fixed_space_raises():
    # U = expm(-i eps H) at eps = 1e-5 has a decaying mode with |lambda - 1|
    # about 1e-10 inside the window around 1; the max-entropy selection must
    # refuse it, not return a point built from the wrong fixed space
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = scipy.linalg.expm(-1e-5j * (g + dagger(g)) / 2)
    s = induced_superoperator(u, random_density(2, 5), (2,), (2,))
    with pytest.raises(SolverError):
        fixed_point_exact(s, "max_entropy")


def test_max_entropy_matches_canonical_when_unique():
    s, _ = epr_superoperator()
    fp = fixed_point_exact(s, "max_entropy")
    assert trace_distance(fp.sigma, np.eye(2) / 2) < 1e-9


def test_unknown_selection_rejected():
    s, _ = epr_superoperator()
    with pytest.raises(ValidationError):
        fixed_point_exact(s, "greedy")


def test_residuals_match_independent_recomputation():
    rng = np.random.default_rng(21)
    for trial in range(10):
        u = random_unitary(4, rng)
        rho = random_density(2, rng)
        s = induced_superoperator(u, rho, (2,), (2,))
        fp = fixed_point_exact(s)
        recomputed = trace_distance(
            apply_map_directly(u, rho, fp.sigma, 2, 2), fp.sigma)
        assert abs(recomputed - fp.residual) < 1e-12
        assert recomputed <= 1e-9


# --- LU path and Schur fallback ---------------------------------------------

CTC_DIMS_UP_TO_8 = [(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2)]


@st.composite
def loop_circuits(draw):
    """A circuit of 1-4 Haar gates on mixed qubit/qutrit wires, CTC
    dimension at most 8, and a random CR input."""
    cr_dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=1,
                                  max_size=2)))
    ctc_dims = draw(st.sampled_from(CTC_DIMS_UP_TO_8))
    dims = cr_dims + ctc_dims
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gates = []
    for k in range(draw(st.integers(1, 4))):
        wires = tuple(draw(st.lists(st.integers(0, len(dims) - 1), min_size=1,
                                    max_size=3, unique=True)))
        span = int(np.prod([dims[w] for w in wires]))
        gates.append(Gate(f"g{k}", wires, random_unitary(span, rng)))
    circuit = Circuit(cr_dims=cr_dims, ctc_dims=ctc_dims, gates=tuple(gates))
    return circuit, random_density(circuit.cr_dim, rng)


def lu_point(s):
    """The LU path's answer for one loop map, or None where it refuses."""
    sigma, accepted = _lu_fixed_point(_real_form(s.matrix[None]), s.d_ctc)
    return sigma[0] if accepted[0] else None


def schur_canonical_point(s):
    """The canonical sigma and fixed_space_dim from a dense spectral
    projector, built apart from the solver: ordered Schur form M = Z T Z+
    with the same eigenvalue-1 window, X from scipy's solve_sylvester, and
    Z [[I, X], [0, 0]] Z+ applied to vec(I/d)."""
    t, z, sdim = scipy.linalg.schur(
        s.matrix, output="complex",
        sort=lambda lam: abs(lam - 1) <= EIGENVALUE_ONE_WINDOW)
    n, d = len(t), s.d_ctc
    q = np.eye(n, dtype=complex)
    q[sdim:, sdim:] = 0
    q[:sdim, sdim:] = scipy.linalg.solve_sylvester(
        t[:sdim, :sdim], -t[sdim:, sdim:], t[:sdim, sdim:])
    sigma = _hermitize((z @ q @ dagger(z) @ vec(np.eye(d) / d)).reshape(
        d, d, order="F"))
    return sigma / sigma.trace().real, sdim


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(loop_circuits())
def test_lu_path_agrees_with_schur_projector(case):
    circuit, rho = case
    s = induced_superoperator(compile_unitary(circuit), rho, circuit.cr_dims,
                              circuit.ctc_dims)
    schur_sigma, sdim = schur_canonical_point(s)
    fp = fixed_point_exact(s)
    if lu_point(s) is None:
        event("Schur fallback")
    else:
        event("LU accepted")
        assert sdim == 1
    assert fp.fixed_space_dim == sdim
    assert np.abs(fp.sigma - schur_sigma).max() < 1e-10


def untouched_ctc_superoperator():
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2, 2), gates=(Gate("h", (0,)),))
    return induced_superoperator(compile_unitary(circuit), proj(PLUS),
                                 circuit.cr_dims, circuit.ctc_dims)


def block_superoperator():
    rng = np.random.default_rng(1)
    kraus, _ = block_channel([(2, random_density(2, rng)),
                              (1, random_density(2, rng))],
                             random_unitary(6, rng))
    return kraus_superoperator(kraus, 6)


@pytest.mark.parametrize("make, fixed_space_dim", [
    (lambda: Superoperator(d_ctc=3, matrix=np.eye(9)), 9),
    (untouched_ctc_superoperator, 16),
    (block_superoperator, 5)], ids=["identity", "untouched-ctc", "blocks"])
def test_degenerate_loops_never_take_the_lu_path(make, fixed_space_dim):
    s = make()
    assert lu_point(s) is None
    for selection in ("canonical", "max_entropy"):
        assert fixed_point_exact(s, selection).fixed_space_dim == fixed_space_dim


def near_degenerate_superoperator(eps, h_seed=3, rho_seed=5, d_ctc=2):
    """U = expm(-i eps H) on one CR qubit and one CTC wire (a qubit unless
    d_ctc says otherwise): the second eigenvalue of the loop map sits about
    eps^2 from 1."""
    rng = np.random.default_rng(h_seed)
    d = 2 * d_ctc
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u = scipy.linalg.expm(-1j * eps * (g + dagger(g)) / 2)
    return induced_superoperator(u, random_density(2, rho_seed), (2,), (d_ctc,))


def mpmath_fixed_point(s):
    """The fixed point of the same float map from a 60-digit LU solve of the
    bordered system (M - I with row 0 replaced by the trace row)."""
    mpmath = pytest.importorskip("mpmath")
    n = s.matrix.shape[0]
    with mpmath.workdps(60):
        a = mpmath.matrix(s.matrix.tolist()) - mpmath.eye(n)
        for j, x in enumerate(vec(np.eye(s.d_ctc))):
            a[0, j] = x
        v = mpmath.lu_solve(a, mpmath.matrix([1] + [0] * (n - 1)))
        return np.array([complex(x) for x in v]).reshape(
            s.d_ctc, s.d_ctc, order="F")


@pytest.mark.parametrize("eps, outcome", [
    (1e-2, "lu"), (1e-3, "schur"), (3e-4, "resolvent bound"),
    (1e-4, "resolvent bound"), (3e-5, "cluster spread"),
    (1e-5, "cluster spread")])
def test_near_degenerate_loops_are_solved_or_refused(monkeypatch, eps,
                                                     outcome):
    # the condition estimate of the bordered system grows as 1/eps^2
    # (1.2e4 at 1e-2, 1.2e10 at 1e-5); above 1e6 the Schur form decides.
    # Its resolvent bound grows too (1.6e-10 at 1e-3, 1.2e-8 at 1e-4), and
    # below 1e-4 a decaying mode enters the window with a spread of 1e-10
    schur_calls = []

    def counted(m, d_ctc, selection):
        schur_calls.append(m.shape)
        return _schur_fixed_point(m, d_ctc, selection)

    monkeypatch.setattr(ctc_module, "_schur_fixed_point", counted)
    s = near_degenerate_superoperator(eps)
    reference = mpmath_fixed_point(s)
    assert (lu_point(s) is not None) == (outcome == "lu")
    if outcome in ("lu", "schur"):
        fp = fixed_point_exact(s)
        assert fp.fixed_space_dim == 1
        assert trace_distance(fp.sigma, reference) <= 1e-9
    else:
        with pytest.raises(SolverError, match=f"{outcome} too large: spread"):
            fixed_point_exact(s)
    assert len(schur_calls) == (outcome != "lu")


@pytest.mark.parametrize("matrix, residual, message", [
    (0.5 * np.eye(4), 0.25, "residual 2.500e-01 exceeds"),
    (np.outer(vec(np.diag([2.0, -1.0])), vec(np.eye(2))), 0.0,
     "not a density matrix"),
    ((1 + 1e-7) * np.eye(4), None,
     "no superoperator eigenvalue within the detection window")],
    ids=["half-identity", "non-psd-fixed-point", "no-eigenvalue-one"])
def test_maps_that_are_not_channels_are_refused(matrix, residual, message):
    # 0.5 I: the bordered system is well posed, but the map halves its
    # answer |0><0|. The rank-one map X -> tr(X) diag(2, -1) fixes only a
    # matrix that is not PSD. (1 + 1e-7) I has no eigenvalue in the window,
    # and LU refuses its condition estimate of 1e7
    s = Superoperator(d_ctc=2, matrix=matrix)
    assert (lu_point(s) is None) == (residual is None)
    with pytest.raises(SolverError, match=message) as err:
        fixed_point_exact(s)
    assert err.value.residual == (
        None if residual is None else pytest.approx(residual, abs=1e-15))


@pytest.mark.parametrize("solve", [fixed_point_exact, fixed_point_cesaro])
def test_a_map_that_does_not_preserve_hermiticity_is_refused(solve):
    # X -> P(X) + tr(X) (1 - i) R, with P a Haar loop and R real, symmetric
    # and traceless: trace preserving, but E(X+) != E(X)+ (conj(1 - i) -
    # (1 - i) = 2i). The exact solver reads a map through M_R, which is E only
    # for Hermiticity-preserving maps: read so, this one's exact point had
    # residual 8e-17 while E moved it by 1.41
    r = np.diag([1.0, -1.0])
    s = Superoperator(2, haar_loop(2, 0).matrix
                      + (1 - 1j) * np.outer(vec(r), vec(np.eye(2))))
    sigma = np.eye(2, dtype=complex) / 2
    assert np.abs(s.apply(sigma) - s.apply(sigma).conj().T).max() == pytest.approx(2)
    with pytest.raises(ValidationError, match=r"does not preserve Hermiticity: "
                       r"max \|conj\(M\) - K M K\| is 2\.000e\+00"):
        solve(s)


def test_certificate_reads_the_imaginary_part_of_the_defect():
    # |+><+| under the phase gate S: the defect S sigma S+ - sigma has
    # imaginary off-diagonal entries, and the real-coordinate residual must
    # equal the complex recomputation, 1/sqrt(2)
    phase = np.diag([1, 1j])
    s = Superoperator(d_ctc=2, matrix=np.kron(phase.conj(), phase))
    sigma = proj(PLUS)
    defect = s.apply(sigma) - sigma
    assert np.abs(defect.imag).max() == pytest.approx(0.5)
    with pytest.raises(SolverError, match="residual 7.071e-01 exceeds") as err:
        ctc_module._certify(sigma[None], _real_form(s.matrix[None]), [1],
                            "exact", "canonical")
    assert err.value.residual == pytest.approx(
        np.abs(np.linalg.eigvalsh(defect)).sum() / 2, rel=1e-12)


@pytest.mark.parametrize("selection", ["canonical", "max_entropy"])
@pytest.mark.parametrize("basis_change", [np.eye(2), random_unitary(2, 0)],
                         ids=["diagonal", "scrambled"])
def test_traceless_fixed_space_is_refused(basis_change, selection):
    # not trace preserving: the eigenvalue-1 space is spanned by |0><1| and
    # |1><0|, so the projection of I/2 onto it has trace 0 (1e-31 after a
    # change of basis, which must not be mistaken for a state)
    k = np.kron(basis_change.conj(), basis_change)
    s = Superoperator(d_ctc=2,
                      matrix=k @ np.diag([0.5, 1.0, 1.0, 0.5]) @ dagger(k))
    with pytest.raises(SolverError, match="trace"):
        fixed_point_exact(s, selection)


def slow_loops():
    """near_degenerate_superoperator with eps log-uniform in [1e-6, 1e-2]
    and a random H and CR input: from certified Schur points to refusals."""
    seeds = st.integers(0, 2 ** 32 - 1)
    return st.builds(near_degenerate_superoperator,
                     st.floats(-6, -2).map(lambda e: 10.0 ** e), seeds, seeds)


@st.composite
def block_channels(draw):
    """A block channel (+)_k X_k -> Tr_2(X_k) x omega_k on C^{d_k} x C^{m_k}
    (d_k, m_k <= 3, total dimension 2 to 8) in a Haar-scrambled basis."""
    shapes, room = [], 8
    while room > 6 or (room > 0 and draw(st.booleans())):
        d = draw(st.integers(1, min(3, room)))
        m = draw(st.integers(1, min(3, room // d)))
        shapes.append((d, m))
        room -= d * m
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kraus, _ = block_channel([(d, random_density(m, rng)) for d, m in shapes],
                             random_unitary(8 - room, rng))
    return kraus_superoperator(kraus, 8 - room)


def circuit_loop_map(case):
    circuit, rho = case
    return induced_superoperator(compile_unitary(circuit), rho,
                                 circuit.cr_dims, circuit.ctc_dims)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(loop_circuits().map(circuit_loop_map), block_channels(),
                 slow_loops()))
def test_exact_fixed_points_are_states_or_refused(s):
    # with the second eigenvalue at least 1e-3 from 1 the fixed point is the
    # null vector of M - I; an SVD gives it within 3e-15 of a 60-digit solve
    # here, where np.linalg.eig's eigenvector was up to 7e-9 off on
    # near-constant maps
    gapped = np.sort(np.abs(np.linalg.eigvals(s.matrix) - 1))[1] >= 1e-3
    event("gapped" if gapped else "degenerate or near-degenerate")
    if gapped:
        null = scipy.linalg.svd(s.matrix - np.eye(len(s.matrix)))[2][-1]
        reference = _hermitize(null.conj().reshape(s.d_ctc, s.d_ctc,
                                                   order="F"))
        reference /= reference.trace().real
    for selection in ("canonical", "max_entropy"):
        try:
            fp = fixed_point_exact(s, selection)
        except SolverError:
            event(f"{selection} refused")
            continue
        assert validate(fp.sigma, "density").ok
        if gapped:
            assert trace_distance(fp.sigma, reference) <= 1e-9


# 0.5 I fails the residual and X -> tr(X) diag(2, -1) the density check of
# the certificate, after LU accepted each
NOT_CHANNELS = (0.5 * np.eye(4),
                np.outer(vec(np.diag([2.0, -1.0])), vec(np.eye(2))))


def haar_loop(d_ctc, seed):
    """The loop map of one Haar gate on a CR qubit and a d_ctc-level CTC wire
    on a random CR input, whose fixed point is unique."""
    return induced_superoperator(random_unitary(2 * d_ctc, seed),
                                 random_density(2, seed), (2,), (d_ctc,))


def solve_alone(s, selection):
    try:
        return fixed_point_exact(s, selection)
    except SolverError as exc:
        return exc


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(
    loop_circuits().map(circuit_loop_map), block_channels(), slow_loops(),
    st.sampled_from(NOT_CHANNELS).map(lambda m: Superoperator(2, m))),
    min_size=1, max_size=8), st.sampled_from(("canonical", "max_entropy")))
@example([near_degenerate_superoperator(eps) for eps in
          (1e-2, 1e-3, 1e-5, 1e-2, 3e-4, 1e-3)]
         + [Superoperator(2, m) for m in NOT_CHANNELS], "canonical")
# n = 25 > 16 takes LAPACK LU item by item; the identity's bordered system is
# exactly singular (dgetrf info > 0), so Schur solves it with fixed_space_dim
# 25 between two loops that LU accepts
@example([haar_loop(5, 0), Superoperator(5, np.eye(25)), haar_loop(5, 1)],
         "canonical")
def test_a_stack_of_loops_solves_as_each_loop_alone(loops, selection):
    # loops of one CTC dimension form one stack; an item the solver refuses
    # alone makes the whole stack raise its message, the first such in input
    # order, and the rest, stacked without it, match their lone solves bit
    # for bit
    for d in sorted({s.d_ctc for s in loops}):
        group = [s for s in loops if s.d_ctc == d]
        alone = [solve_alone(s, selection) for s in group]
        refused = [x for x in alone if isinstance(x, SolverError)]
        event(f"{len(group) - len(refused)} solved, {len(refused)} refused")
        if refused:
            with pytest.raises(SolverError) as err:
                _fixed_points(np.stack([s.matrix for s in group]), d,
                              selection)
            assert str(err.value) == str(refused[0])
            assert err.value.residual == refused[0].residual
        solved = [(s, fp) for s, fp in zip(group, alone)
                  if not isinstance(fp, SolverError)]
        if not solved:
            continue
        _, stacked = _fixed_points(np.stack([s.matrix for s, _ in solved]),
                                   d, selection)
        assert len(stacked) == len(solved)
        for got, (_, want) in zip(stacked, solved):
            assert np.array_equal(got.sigma, want.sigma)
            assert (got.residual, got.fixed_space_dim, got.method,
                    got.selection) == (want.residual, want.fixed_space_dim,
                                       want.method, want.selection)


@st.composite
def leak_channels(draw):
    """A channel on C^d (d <= 6) that keeps m >= 2 levels and leaks each of
    the other d - m into a random pure state of the kept span at rate gamma
    in [0.05, 0.9], in a Haar-scrambled basis: the decaying modes have
    eigenvalues 1 - gamma and sqrt(1 - gamma), not 0, so the X term of the
    canonical point carries the leaked weight. Returns the Superoperator and
    the limit of iterating from I/d: (P_kept + sum_k |phi_k><phi_k|) / d."""
    d = draw(st.integers(3, 6))
    m = draw(st.integers(2, d - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gammas = rng.uniform(0.05, 0.9, d - m)
    keep = np.concatenate([np.ones(m), np.sqrt(1 - gammas)])
    kraus, limit = [np.diag(keep).astype(complex)], np.diag(keep == 1) / d
    for k, gamma in zip(range(m, d), gammas):
        phi = np.zeros(d, dtype=complex)
        phi[:m] = random_unitary(m, rng)[:, 0]
        kraus.append(np.sqrt(gamma) * np.outer(phi, np.eye(d)[k]))
        limit = limit + proj(phi) / d
    v = random_unitary(d, rng)
    return (kraus_superoperator([v @ k @ dagger(v) for k in kraus], d),
            v @ limit @ dagger(v))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(leak_channels())
def test_canonical_point_is_the_limit_of_scrambled_leaks(case):
    # the fixed space is degenerate (m^2 >= 4), so LU refuses and the Schur
    # form answers; its canonical point is where iteration from I/d lands
    s, limit = case
    fp = fixed_point_exact(s)
    assert lu_point(s) is None and fp.fixed_space_dim >= 4
    assert trace_distance(fp.sigma, fixed_point_cesaro(s).sigma) <= 1e-8
    assert trace_distance(fp.sigma, limit) <= 1e-9


def lapack_lu_rule(s):
    """The LAPACK LU rule, kept apart from the solver as a reference: zgetrf
    and zgetrs solve the bordered system, and the answer is taken when
    zgecon's estimate of ||A^-1||_1, 1 / (rcond ||A||_1), is at most 1e6 and
    times ||A v - e_0||_1 at most 1e-9. Returns (sigma or None, A, rcond)."""
    n = len(s.matrix)
    a = s.matrix - np.eye(n)
    a[0] = vec(np.eye(s.d_ctc))
    lu, piv, info = scipy.linalg.lapack.zgetrf(a)
    if info != 0:
        return None, a, 0.0
    anorm = np.linalg.norm(a, 1)
    rcond = scipy.linalg.lapack.zgecon(lu, anorm)[0]
    e0 = np.eye(n, dtype=complex)[0]
    v = scipy.linalg.lapack.zgetrs(lu, piv, e0)[0]
    if not (rcond * anorm >= 1e-6 and
            np.abs(a @ v - e0).sum() / (rcond * anorm) <= 1e-9):
        return None, a, rcond
    sigma = _hermitize(v.reshape(s.d_ctc, s.d_ctc, order="F"))
    return sigma / sigma.trace().real, a, rcond


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    loop_circuits().filter(lambda case: case[0].ctc_dim <= 4).map(
        circuit_loop_map),
    slow_loops()))
def test_inverse_branch_of_lu_agrees_with_the_lapack_rule(s):
    # at n = dc^2 <= 16 the solver takes ||A^-1||_1 exactly from numpy's
    # inverse; the LAPACK estimate never exceeds it (up to round-off), so
    # the inverse branch accepts only what the estimate accepts, and the
    # two solves of A v = e_0 agree to round-off
    assert s.matrix.shape[0] <= 16
    sigma = lu_point(s)
    reference, a, rcond = lapack_lu_rule(s)
    if rcond > 0:
        exact = np.abs(np.linalg.inv(a)).sum(axis=0).max()
        assert exact * (1 + 1e-12) >= 1 / (rcond * np.linalg.norm(a, 1))
    event(f"inverse {'accepts' if sigma is not None else 'refuses'}, "
          f"LAPACK {'accepts' if reference is not None else 'refuses'}")
    if sigma is not None:
        assert reference is not None
        assert np.abs(sigma - reference).max() <= 1e-12


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.one_of(
    loop_circuits().filter(lambda case: case[0].ctc_dim > 4).map(
        circuit_loop_map),
    st.builds(near_degenerate_superoperator,
              st.floats(-6, -2).map(lambda e: 10.0 ** e),
              st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1),
              st.sampled_from((6, 8)))))
def test_lapack_branch_of_lu_agrees_with_the_lapack_rule(s):
    # above n = 16 the solver factors item by item with LAPACK: it accepts
    # exactly the loops the reference rule accepts, with the same sigma. The
    # slow loops put the norm and residual cuts inside the drawn range
    assert s.matrix.shape[0] > 16
    sigma = lu_point(s)
    reference = lapack_lu_rule(s)[0]
    event(f"n = {s.matrix.shape[0]}, LAPACK "
          f"{'accepts' if reference is not None else 'refuses'}")
    assert (sigma is None) == (reference is None)
    if sigma is not None:
        assert np.abs(sigma - reference).max() <= 1e-12


def real_vec(m):
    """vec(Re m + Im m), the solver's real coordinates of a Hermitian m."""
    return vec(m.real + m.imag)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(loop_circuits(), st.integers(0, 2 ** 32 - 1))
def test_real_form_maps_real_coordinates_like_the_loop(case, seed):
    # M_R h(sigma) = h(E(sigma)) for Hermitian sigma, with E applied by a
    # dense conjugation and partial trace
    circuit, rho = case
    u = compile_unitary(circuit)
    s = induced_superoperator(u, rho, circuit.cr_dims, circuit.ctc_dims)
    g = np.random.default_rng(seed).standard_normal((2, circuit.ctc_dim,
                                                     circuit.ctc_dim))
    sigma = _hermitize(g[0] + 1j * g[1]) / circuit.ctc_dim
    image = apply_map_directly(u, rho, sigma, circuit.cr_dim, circuit.ctc_dim)
    m_r = _real_form(s.matrix)
    assert m_r.dtype == float
    assert np.abs(m_r @ real_vec(sigma) - real_vec(image)).max() <= 1e-14


def rotated_slow_loop(eps, d_ctc, v_seed):
    """A slow loop followed by a Haar rotation V . V+ of the CTC wire: the
    rotation puts ||A||_1 near d_ctc, the slow loop ||A^-1||_1 near 1/eps^2."""
    v = random_unitary(d_ctc, v_seed)
    slow = near_degenerate_superoperator(eps, d_ctc=d_ctc).matrix
    return Superoperator(d_ctc, np.kron(v.conj(), v) @ slow)


@pytest.mark.parametrize("d_ctc, v_seed", [(5, 1), (6, 0), (6, 1)])
def test_lapack_lu_reads_the_norm_of_a(d_ctc, v_seed):
    # dgecon returns rcond = 1 / (||A||_1 ||A^-1||_1): these loops have
    # ||A^-1||_1 between 1e6 / ||A||_1 and the 1e6 cut, so rcond alone would
    # refuse what the rule and its complex reference accept. The two solves
    # agree to the forward error, about ||A^-1||_1 eps_mach
    s = rotated_slow_loop(1e-3, d_ctc, v_seed)
    n = d_ctc * d_ctc
    a = _real_form(s.matrix) - np.eye(n)
    a[0] = vec(np.eye(d_ctc))
    anorm = np.linalg.norm(a, 1)
    rcond = scipy.linalg.lapack.dgecon(scipy.linalg.lapack.dgetrf(a)[0], anorm)[0]
    assert anorm > 5 and 1e6 / anorm < 1 / (rcond * anorm) < 1e6 < 1 / rcond
    sigma, reference = lu_point(s), lapack_lu_rule(s)[0]
    assert sigma is not None and reference is not None
    assert np.abs(sigma - reference).max() <= 1e-10


@pytest.mark.parametrize("d_ctc", [4, 5], ids=["inverse", "lapack"])
def test_lu_refuses_a_solve_off_by_round_off_times_a_million(monkeypatch,
                                                             d_ctc):
    # v off by 1e-6 on a well-conditioned Haar loop leaves a residual far
    # above round-off: the LU rule refuses it, and the Schur form answers
    s = haar_loop(d_ctc, 2)
    want = fixed_point_exact(s)
    if d_ctc <= 4:
        inv = np.linalg.inv

        def off(a):
            out = inv(a)
            out[..., 0] += 1e-6
            return out

        monkeypatch.setattr(np.linalg, "inv", off)
    else:
        dgetrs = scipy.linalg.lapack.dgetrs
        monkeypatch.setattr(scipy.linalg.lapack, "dgetrs",
                            lambda *args: (dgetrs(*args)[0] + 1e-6, 0))
    schur_calls = []

    def counted(m, d, selection):
        schur_calls.append(m.shape)
        return _schur_fixed_point(m, d, selection)

    monkeypatch.setattr(ctc_module, "_schur_fixed_point", counted)
    assert lu_point(s) is None
    fp = fixed_point_exact(s)
    assert schur_calls == [(d_ctc ** 2, d_ctc ** 2)]
    assert fp.fixed_space_dim == 1
    assert np.abs(fp.sigma - want.sigma).max() <= 1e-12


def rotating_leak(d, m, gamma, seed):
    """A leak of the d - m upper levels into the kept m (rate gamma) whose
    leaking levels also pick up random phases, in a Haar-scrambled basis:
    the decaying modes come in complex conjugate pairs."""
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.uniform(size=d - m))
    kraus = [np.diag(np.concatenate([np.ones(m), np.sqrt(1 - gamma) * phases]))]
    for k in range(m, d):
        phi = np.zeros(d, dtype=complex)
        phi[:m] = random_unitary(m, rng)[:, 0]
        kraus.append(np.sqrt(gamma) * np.outer(phi, np.eye(d)[k]))
    v = random_unitary(d, rng)
    return kraus_superoperator([v @ k @ dagger(v) for k in kraus], d)


@pytest.mark.parametrize("d, m, gamma, seed", [(4, 2, 0.1, 1), (6, 3, 0.5, 3)])
def test_resolvent_bound_reads_the_bumps_of_t22(monkeypatch, d, m, gamma, seed):
    # T22 - I is quasi-triangular: its 2x2 bumps hold the complex pairs. The
    # solver's estimate of ||(T22 - I)^-1||_1 (dgetrf + dgecon on the whole
    # block) must be the dense norm's lower bound within a factor 3; a
    # triangular estimator, blind to the bumps, reads above it here
    s = rotating_leak(d, m, gamma, seed)
    estimates = []
    dgecon = scipy.linalg.lapack.dgecon

    def recorded(lu, anorm):
        rcond, info = dgecon(lu, anorm)
        estimates.append(1 / (rcond * anorm))
        return rcond, info

    monkeypatch.setattr(scipy.linalg.lapack, "dgecon", recorded)
    fp = fixed_point_exact(s)
    m_r = _real_form(s.matrix)
    t, z, sdim = scipy.linalg.schur(
        m_r, output="real",
        sort=lambda re, im: abs(complex(re, im) - 1) <= EIGENVALUE_ONE_WINDOW)
    assert fp.fixed_space_dim == sdim == m * m
    resolvent = t[sdim:, sdim:] - np.eye(len(t) - sdim)
    assert np.count_nonzero(np.diag(resolvent, -1)) >= 2
    dense = np.abs(np.linalg.inv(resolvent)).sum(axis=0).max()
    assert dense / 3 <= estimates[-1] <= dense * (1 + 1e-12)
    triangular = 1 / (scipy.linalg.lapack.dtrcon(resolvent)[0]
                      * np.linalg.norm(resolvent, 1))
    assert triangular > dense * (1 + 1e-12)
    h = real_vec(fp.sigma)
    assert dense * np.abs(z[:, sdim:].T @ (m_r @ h - h)).sum() <= 1e-9


def test_dtrsyl_info_is_refused(monkeypatch):
    # info 1: T11 and T22 have close eigenvalues, so X solves a perturbed
    # Sylvester equation; the canonical point is refused, not returned
    dtrsyl = scipy.linalg.lapack.dtrsyl

    def perturbed(*args, **kwargs):
        return dtrsyl(*args, **kwargs)[:2] + (1,)

    monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl", perturbed)
    for selection in ("canonical", "max_entropy"):
        with pytest.raises(SolverError, match="dtrsyl info 1: close eigen"):
            fixed_point_exact(block_superoperator(), selection)


# --- Cesaro solver -----------------------------------------------------------

def test_cesaro_constant_map_converges_immediately():
    swap = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)
    rho = random_density(2, 11)
    s = induced_superoperator(swap, rho, (2,), (2,))
    fp = fixed_point_cesaro(s, max_iter=2)  # constant maps need no doubling
    assert fp.method == "cesaro"
    assert trace_distance(fp.sigma, rho) < 1e-9


def test_cesaro_epr():
    s, _ = epr_superoperator()
    fp = fixed_point_cesaro(s)
    assert trace_distance(fp.sigma, np.eye(2) / 2) < 1e-9


def test_cesaro_matches_exact_on_seeded_circuits():
    for trial in range(20):
        rng = np.random.default_rng([77, trial])
        u = random_unitary(4, rng)
        rho = random_density(2, rng)
        s = induced_superoperator(u, rho, (2,), (2,))
        exact = fixed_point_exact(s)
        if exact.fixed_space_dim != 1:
            continue
        cesaro = fixed_point_cesaro(s)
        assert trace_distance(cesaro.sigma, exact.sigma) < 1e-7


def test_cesaro_iteration_cap_raises():
    theta = 0.05  # slow spectral gap
    psi = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    circuit = build_bhw2(psi)
    u = compile_unitary(circuit)
    s = induced_superoperator(u, proj(KET0), circuit.cr_dims, circuit.ctc_dims)
    with pytest.raises(ConvergenceError) as err:
        fixed_point_cesaro(s, max_iter=4)
    assert err.value.residual is not None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [0.5, 1.1, -1.1, 0.0])
def test_cesaro_rejects_maps_that_do_not_preserve_trace(c):
    # the iterate's trace leaves 1: it shrinks toward 0 (c = 0.5, -1.1 and
    # the zero map) or grows (c = 1.1); no 0/0 on the way
    with pytest.raises(ConvergenceError):
        fixed_point_cesaro(Superoperator(d_ctc=2, matrix=c * np.eye(4)))


@pytest.mark.parametrize("matrix, error, message", [
    (np.outer(vec(np.diag([1.5, -0.5])), vec(np.eye(2))), SolverError,
     "eigenvalue -5.000e-01 below the PSD floor"),
    (np.array([[1, 0, 0, 0], [1, 3, 0, 0], [1, 0, 3, 0], [0, 0, 0, 1]]),
     ConvergenceError, "power iteration blew up at N=16"),
], ids=["non-psd-fixed-point", "eigenvalue-three"])
def test_cesaro_refuses_a_limit_that_is_not_a_state(matrix, error, message):
    # X -> tr(X) diag(1.5, -0.5) converges at once onto a matrix below the
    # PSD floor. The second map preserves trace, E(|0><0|) = |0><0| + X and
    # E(|1><1|) = |1><1|, but triples the off-diagonal units: the powers of
    # (I + E)/2 grow as 2^N while the iterate never settles
    with pytest.raises(error, match=message) as err:
        fixed_point_cesaro(Superoperator(d_ctc=2, matrix=matrix.astype(complex)))
    assert type(err.value) is error


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_cesaro_converges_on_slow_loops(eps):
    # the second eigenvalue sits about eps^2 from 1: slow to converge, but
    # the fixed point is unique
    s = near_degenerate_superoperator(eps)
    fp = fixed_point_cesaro(s)
    assert fp.residual <= 1e-9
    assert trace_distance(fp.sigma, mpmath_fixed_point(s)) <= 1e-8


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(loop_circuits())
def test_cesaro_agrees_with_exact_on_random_loops(case):
    circuit, rho = case
    assert parse_circuit(json.loads(serialize_circuit(circuit))) == circuit
    s = induced_superoperator(compile_unitary(circuit), rho, circuit.cr_dims,
                              circuit.ctc_dims)
    assert validate_superoperator(s).ok
    event("LU accepted" if lu_point(s) is not None else "Schur fallback")
    # fixed_space_dim is not compared: round(tr L^N) overcounts on some
    # degenerate loops
    assert trace_distance(fixed_point_cesaro(s).sigma,
                          fixed_point_exact(s).sigma) <= 1e-8


# --- evolution ---------------------------------------------------------------

def test_evolve_given_ctc_state_is_plain_linear_evolution():
    u = random_unitary(4, 5)
    rho = random_density(2, 6)
    sigma = random_density(2, 7)
    expected = partial_trace(u @ kron(rho, sigma) @ dagger(u), (2, 2), keep=[0])
    assert np.allclose(evolve_given_ctc_state(u, rho, sigma, 2, 2), expected)


def test_epr_run_disentangles():
    circuit = build_epr_swap()
    rho_out, fp = ctc_evolve(circuit, proj(BELL))
    assert trace_distance(rho_out, np.eye(4) / 4) < 1e-9
    assert abs(mutual_information(proj(BELL), (2, 2)) - 2.0) < 1e-12
    assert mutual_information(rho_out, (2, 2)) < 1e-9
    assert fp.fixed_space_dim == 1


def test_bhw2_pure_runs():
    circuit = build_bhw2(PLUS)
    out0, _ = ctc_evolve(circuit, proj(KET0))
    outp, _ = ctc_evolve(circuit, proj(PLUS))
    assert trace_distance(out0, proj(KET0)) < 1e-9
    assert trace_distance(outp, proj(KET1)) < 1e-9


def test_evolution_is_not_convex_linear():
    # mixing the designated |0> with the non-designated |1>: evolving the
    # mixture differs from mixing the evolved components by 1/(2 sqrt 6)
    circuit = build_bhw2(PLUS)
    out_mix, _ = ctc_evolve(circuit, np.eye(2, dtype=complex) / 2)
    out0, _ = ctc_evolve(circuit, proj(KET0))
    out1, _ = ctc_evolve(circuit, proj(KET1))
    violation = trace_distance(out_mix, (out0 + out1) / 2)
    assert violation > 0.01
    assert abs(violation - 0.2041241452319315) < 1e-12


def test_ctc_evolve_validates_input():
    circuit = build_epr_swap()
    with pytest.raises(ValidationError):
        ctc_evolve(circuit, proj(KET0))  # wrong CR dimension
    with pytest.raises(ValidationError):
        ctc_evolve(circuit, np.eye(4, dtype=complex))  # trace 4
    with pytest.raises(ValidationError, match="nonempty shape"):
        ctc_evolve(circuit, np.zeros((0, 0)))
    with pytest.raises(ValidationError, match="square shape"):
        ctc_evolve(circuit, np.ones((4, 2)) / 4)


def test_ctc_evolve_is_the_loop_map_solve_then_the_output():
    circuit = build_bhw2(PLUS)
    rho = proj(PLUS)
    u = compile_unitary(circuit)
    superop = induced_superoperator(u, rho, circuit.cr_dims, circuit.ctc_dims)
    fp = fixed_point_exact(superop)
    rho_out, fp_evolved = ctc_evolve(circuit, rho)
    assert np.array_equal(fp_evolved.sigma, fp.sigma)
    assert np.array_equal(rho_out, evolve_given_ctc_state(u, rho, fp.sigma, 2, 2))


def test_solver_error_hierarchy():
    assert issubclass(ConvergenceError, SolverError)
    assert issubclass(SolverError, RuntimeError)


# --- contraction kernels against the matrix-unit loops ------------------------

def loop_superoperator(u, rho, cr_dim, dc):
    """Slow reference: one full conjugation and partial trace per matrix unit."""
    m = np.zeros((dc * dc, dc * dc), dtype=complex)
    for j in range(dc):
        for i in range(dc):
            unit = np.zeros((dc, dc), dtype=complex)
            unit[i, j] = 1.0
            joint = u @ kron(rho, unit) @ dagger(u)
            m[:, j * dc + i] = vec(partial_trace(joint, (cr_dim, dc), keep=[1]))
    return m


def loop_choi(m, d):
    """Slow reference: sum_ij E(|i><j|) x |i><j| from the columns of m."""
    choi = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for i in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            choi += kron(m[:, j * d + i].reshape(d, d, order="F"), unit)
    return choi


@pytest.mark.parametrize("cr_dims, ctc_dims", [
    ((3,), (2,)), ((2, 3), (3,)), ((2, 2), (2, 2, 2)),
    ((2, 2, 2, 2), (2, 2, 2, 2))])
def test_superoperator_and_choi_match_matrix_unit_loops(cr_dims, ctc_dims):
    cr_dim, dc = int(np.prod(cr_dims)), int(np.prod(ctc_dims))
    rng = np.random.default_rng([17, cr_dim, dc])
    u = random_unitary(cr_dim * dc, rng)
    rho = random_density(cr_dim, rng)
    s = induced_superoperator(u, rho, cr_dims, ctc_dims)
    want = loop_superoperator(u, rho, cr_dim, dc)
    assert np.abs(s.matrix - want).max() < 1e-12
    assert np.abs(choi_matrix(s) - loop_choi(want, dc)).max() < 1e-12


@pytest.mark.parametrize("cr_dim, dc", [(3, 2), (6, 3), (4, 8), (64, 2), (2, 16)])
def test_evolve_given_ctc_state_matches_dense_conjugation(cr_dim, dc):
    rng = np.random.default_rng([23, cr_dim, dc])
    u = random_unitary(cr_dim * dc, rng)
    rho = random_density(cr_dim, rng)
    sigma = random_density(dc, rng)
    expected = partial_trace(u @ kron(rho, sigma) @ dagger(u), (cr_dim, dc),
                             keep=[0])
    got = evolve_given_ctc_state(u, rho, sigma, cr_dim, dc)
    assert np.abs(got - expected).max() < 1e-12


def test_a_cached_6_plus_1_qubit_evolve_peaks_below_three_and_a_half_unitaries():
    # with U compiled, an op holds three U-sized arrays at once: the operands
    # xbar and w and the output's y; rho, its checks and the 4x4 loop are
    # small. Transposed copies of U for the loop map or the output, as in a
    # layout that keeps U's own index order, peak at 4 U or more
    circuit = Circuit(cr_dims=(2,) * 6, ctc_dims=(2,), gates=(
        Gate("u", tuple(range(7)), random_unitary(128, 43)),))
    rho = random_density(64, 44)
    u = compile_unitary(circuit)
    ctc_evolve(circuit, rho)
    tracemalloc.start()
    try:
        ctc_evolve(circuit, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * u.nbytes, peak / u.nbytes
