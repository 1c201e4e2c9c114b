"""Tests for the fixed-point engine: superoperators, solvers, evolution."""

import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ctcsim.ctc as ctc_module
from ctcsim.circuit import (Circuit, Gate, build_bhw2, build_epr_swap,
                            compile_unitary, complete_unitary, parse_circuit,
                            serialize_circuit)
from ctcsim.ctc import (ConvergenceError, SolverError, Superoperator,
                        _hermitize, _lu_fixed_point, _schur_fixed_cluster,
                        _spectral_projector, choi_matrix, ctc_evolve,
                        evolve_given_ctc_state, fixed_point_cesaro,
                        fixed_point_exact, induced_superoperator, solve_loop,
                        validate_superoperator)
from ctcsim.oracle import random_density, random_unitary
from ctcsim.qmat import (ValidationError, dagger, kron, mutual_information,
                         partial_trace, trace_distance, von_neumann_entropy)

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


def schur_canonical_point(s):
    """The Schur fallback's canonical sigma and fixed_space_dim, computed
    without the LU path."""
    t, z, sdim = _schur_fixed_cluster(s.matrix)
    d = s.d_ctc
    sigma = _hermitize((_spectral_projector(t, z, sdim) @ vec(np.eye(d) / d)
                        ).reshape(d, d, order="F"))
    return sigma / sigma.trace().real, sdim


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(loop_circuits())
def test_lu_path_agrees_with_schur_projector(case):
    circuit, rho = case
    s = induced_superoperator(compile_unitary(circuit), rho, circuit.cr_dims,
                              circuit.ctc_dims)
    schur_sigma, sdim = schur_canonical_point(s)
    fp = fixed_point_exact(s)
    if _lu_fixed_point(s) is None:
        event("Schur fallback")
        assert fp.fixed_space_dim == sdim
        return
    event("LU accepted")
    assert sdim == 1 and fp.fixed_space_dim == 1
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
    assert _lu_fixed_point(s) is None
    for selection in ("canonical", "max_entropy"):
        assert fixed_point_exact(s, selection).fixed_space_dim == fixed_space_dim


def near_degenerate_superoperator(eps):
    """U = expm(-i eps H) on one CR and one CTC qubit: the second eigenvalue
    of the loop map sits about eps^2 from 1."""
    rng = np.random.default_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = scipy.linalg.expm(-1j * eps * (g + dagger(g)) / 2)
    return induced_superoperator(u, random_density(2, 5), (2,), (2,))


@pytest.mark.parametrize("eps, lu_taken, fixed_space_dim", [
    (1e-2, True, 1), (1e-4, False, 1), (3e-5, False, 2), (1e-5, False, 2)])
def test_near_degenerate_loops_fall_back_to_schur(monkeypatch, eps, lu_taken,
                                                  fixed_space_dim):
    # the condition estimate of the bordered system grows as 1/eps^2
    # (1.2e4 at 1e-2, 1.2e10 at 1e-5); above 1e6 the Schur window decides
    schur_calls = []

    def counted(m):
        schur_calls.append(m.shape)
        return _schur_fixed_cluster(m)

    monkeypatch.setattr(ctc_module, "_schur_fixed_cluster", counted)
    s = near_degenerate_superoperator(eps)
    fp = fixed_point_exact(s)
    assert (not schur_calls) == lu_taken
    assert (_lu_fixed_point(s) is not None) == lu_taken
    assert fp.fixed_space_dim == fixed_space_dim


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


def test_cesaro_honors_custom_start():
    s = Superoperator(d_ctc=2, matrix=np.eye(4, dtype=complex))
    start = np.diag([0.9, 0.1]).astype(complex)
    fp = fixed_point_cesaro(s, init=start)
    assert trace_distance(fp.sigma, start) < 1e-12


def test_cesaro_iteration_cap_raises():
    theta = 0.05  # slow spectral gap
    psi = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    circuit = build_bhw2(psi)
    u = compile_unitary(circuit)
    s = induced_superoperator(u, proj(KET0), circuit.cr_dims, circuit.ctc_dims)
    with pytest.raises(ConvergenceError) as err:
        fixed_point_cesaro(s, max_iter=4)
    assert err.value.residual is not None


def test_cesaro_init_validation():
    s, _ = epr_superoperator()
    with pytest.raises(ValidationError):
        fixed_point_cesaro(s, init=np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(ValidationError):
        fixed_point_cesaro(s, tol=-1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", [0.5, 1.1, -1.1, 0.0])
def test_cesaro_rejects_maps_that_do_not_preserve_trace(c):
    # the iterate's trace leaves 1: it shrinks toward 0 (c = 0.5, -1.1 and
    # the zero map) or grows (c = 1.1); no 0/0 on the way
    with pytest.raises(ConvergenceError):
        fixed_point_cesaro(Superoperator(d_ctc=2, matrix=c * np.eye(4)))


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4])
def test_cesaro_converges_on_slow_loops(eps):
    # the second eigenvalue sits about eps^2 from 1: slow to converge, but
    # the fixed point is unique
    s = near_degenerate_superoperator(eps)
    fp = fixed_point_cesaro(s)
    assert fp.residual <= 1e-9
    assert trace_distance(fp.sigma, fixed_point_exact(s).sigma) <= 1e-8


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(loop_circuits())
def test_cesaro_agrees_with_exact_on_random_loops(case):
    circuit, rho = case
    assert parse_circuit(json.loads(serialize_circuit(circuit))) == circuit
    s = induced_superoperator(compile_unitary(circuit), rho, circuit.cr_dims,
                              circuit.ctc_dims)
    assert validate_superoperator(s).ok
    event("LU accepted" if _lu_fixed_point(s) is not None else "Schur fallback")
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


def test_solve_loop_is_the_step_behind_ctc_evolve():
    circuit = build_bhw2(PLUS)
    rho = proj(PLUS)
    u = compile_unitary(circuit)
    # the compile is deterministic, so ctc_evolve's own compile is this U
    assert np.array_equal(u, compile_unitary(circuit))
    superop, fp = solve_loop(u, rho, circuit.cr_dim, circuit.ctc_dim)
    assert np.array_equal(superop.matrix, induced_superoperator(
        u, rho, circuit.cr_dims, circuit.ctc_dims).matrix)
    assert np.array_equal(fp.sigma, fixed_point_exact(superop).sigma)
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


@pytest.mark.parametrize("cr_dim, dc", [(3, 2), (6, 3), (4, 8)])
def test_evolve_given_ctc_state_matches_dense_conjugation(cr_dim, dc):
    rng = np.random.default_rng([23, cr_dim, dc])
    u = random_unitary(cr_dim * dc, rng)
    rho = random_density(cr_dim, rng)
    sigma = random_density(dc, rng)
    expected = partial_trace(u @ kron(rho, sigma) @ dagger(u), (cr_dim, dc),
                             keep=[0])
    got = evolve_given_ctc_state(u, rho, sigma, cr_dim, dc)
    assert np.abs(got - expected).max() < 1e-12
