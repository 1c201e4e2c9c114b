"""Tests for the brute-force oracle and its random-object helpers."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ctcsim.circuit import (Circuit, Gate, build_bhw2, build_epr_swap,
                            compile_unitary)
from ctcsim.ctc import ctc_evolve, fixed_point_exact, induced_superoperator
from ctcsim.oracle import (CHECK_EVERY, DEDUP_DISTANCE, RECORD_RESIDUAL,
                           STOP_RESIDUAL, UNITS_PER_CALL, OracleReport,
                           fixed_point_bruteforce, random_density,
                           random_unitary)
from ctcsim.qmat import (ValidationError, dagger, kron, partial_trace,
                         trace_distance, validate)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def proj(v):
    return np.outer(v, v.conj())


# --- random generators -------------------------------------------------------

def test_random_density_dim_one_is_trivial():
    assert np.allclose(random_density(1, 0), [[1.0]])


def test_random_density_deterministic_per_seed():
    a = random_density(4, 42)
    b = random_density(4, 42)
    c = random_density(4, 43)
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_random_density_is_valid_density():
    for seed in range(200):
        rho = random_density(4, seed)
        report = validate(rho, "density")
        assert report.ok, f"seed {seed}: {report.message()}"


def test_random_density_accepts_generator():
    rng = np.random.default_rng(5)
    a = random_density(3, rng)
    b = random_density(3, rng)
    assert not np.allclose(a, b)  # generator state advances


def test_random_unitary_is_unitary_and_deterministic():
    for seed in range(50):
        u = random_unitary(4, seed)
        assert np.allclose(dagger(u) @ u, np.eye(4), atol=1e-12)
    assert np.array_equal(random_unitary(4, 7), random_unitary(4, 7))


def test_random_generators_reject_bad_dims():
    with pytest.raises(ValidationError):
        random_density(0, 1)
    with pytest.raises(ValidationError):
        random_unitary(0, 1)


# --- brute-force fixed points ------------------------------------------------

def test_bruteforce_epr_unique_limit():
    circuit = build_epr_swap()
    report = fixed_point_bruteforce(circuit, proj(BELL), trials=8, seed=0)
    assert isinstance(report, OracleReport)
    assert report.converged == report.trials == 8
    assert len(report.distinct_limits) == 1
    assert report.max_pairwise_distance < 1e-6
    assert trace_distance(report.distinct_limits[0], np.eye(2) / 2) < 1e-7


def test_bruteforce_identity_keeps_every_start():
    # with U = I every density matrix is a fixed point, so each trial
    # converges immediately to its own start
    from ctcsim.circuit import Circuit
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=())
    report = fixed_point_bruteforce(circuit, proj(PLUS), trials=6, iters=10,
                                    seed=3)
    assert report.converged == 6
    assert len(report.distinct_limits) == 6


def test_bruteforce_bhw2_plus():
    circuit = build_bhw2(PLUS)
    report = fixed_point_bruteforce(circuit, proj(PLUS), trials=8, seed=1)
    assert report.converged == 8
    assert len(report.distinct_limits) == 1
    target = np.array([[0, 0], [0, 1]], dtype=complex)
    assert trace_distance(report.distinct_limits[0], target) < 1e-7


def test_bruteforce_limits_are_certified():
    # every reported limit must satisfy the fixed-point equation when the
    # map is recomputed here from scratch
    circuit = build_epr_swap()
    rho = proj(BELL)
    u = compile_unitary(circuit)
    report = fixed_point_bruteforce(circuit, rho, trials=4, seed=9)
    for sigma in report.distinct_limits:
        image = partial_trace(u @ kron(rho, sigma) @ dagger(u), (4, 2),
                              keep=[1])
        assert trace_distance(image, sigma) <= 1e-7


def test_bruteforce_agrees_with_engine():
    ket0 = np.array([1, 0], dtype=complex)
    circuit = build_bhw2(PLUS)
    _, fp = ctc_evolve(circuit, proj(ket0))
    report = fixed_point_bruteforce(circuit, proj(ket0), trials=4, seed=2)
    assert len(report.distinct_limits) == 1
    assert trace_distance(report.distinct_limits[0], fp.sigma) < 1e-6


def test_bruteforce_validation():
    circuit = build_epr_swap()
    with pytest.raises(ValidationError):
        fixed_point_bruteforce(circuit, proj(BELL), trials=0)
    with pytest.raises(ValidationError):
        fixed_point_bruteforce(circuit, np.eye(4, dtype=complex))  # trace 4


# --- the batch against one trial at a time -----------------------------------

def serial_bruteforce(circuit, rho, trials, iters, seed):
    """The oracle run one trial at a time, as a reference for the batch.

    Returns the converged limits in trial order and the step each trial
    stopped at."""
    u = compile_unitary(circuit)
    dims = (circuit.cr_dim, circuit.ctc_dim)

    def apply_map(sigma):
        return partial_trace(u @ kron(rho, sigma) @ dagger(u), dims, keep=[1])

    limits, stops = [], []
    for trial in range(trials):
        sigma = random_density(circuit.ctc_dim, [seed, trial])
        acc = np.zeros_like(sigma)
        best_sigma, best_res = None, np.inf
        for it in range(1, iters + 1):
            sigma = apply_map(sigma)
            acc += sigma
            if it % CHECK_EVERY == 0 or it == iters:
                mean = (acc / it + dagger(acc / it)) / 2
                mean = mean / mean.trace().real
                for cand in (sigma, mean):
                    r = trace_distance(apply_map(cand), cand)
                    if r < best_res:
                        best_sigma, best_res = cand, r
                if best_res <= STOP_RESIDUAL:
                    break
        stops.append(it)
        if best_res <= RECORD_RESIDUAL:
            limits.append(best_sigma)
    return limits, stops


def assert_matches_serial(circuit, rho, trials, iters, seed):
    """Run both oracles; return the serial stop steps."""
    report = fixed_point_bruteforce(circuit, rho, trials=trials, iters=iters,
                                    seed=seed)
    limits, stops = serial_bruteforce(circuit, rho, trials, iters, seed)
    distinct = []
    for lim in limits:
        if all(trace_distance(lim, seen) > DEDUP_DISTANCE for seen in distinct):
            distinct.append(lim)
    assert report.converged == len(limits)
    assert len(report.distinct_limits) == len(distinct)
    for got, want in zip(report.distinct_limits, distinct):
        assert np.abs(got - want).max() <= 1e-12
    return stops


@st.composite
def small_loop_circuits(draw):
    """1-3 Haar gates on qubit and qutrit wires, CR and CTC dimension at
    most 4 each, and a random CR input."""
    registers = st.sampled_from(((2,), (3,), (2, 2)))
    cr_dims, ctc_dims = draw(registers), draw(registers)
    dims = cr_dims + ctc_dims
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gates = []
    for k in range(draw(st.integers(1, 3))):
        wires = tuple(draw(st.lists(st.integers(0, len(dims) - 1), min_size=1,
                                    max_size=3, unique=True)))
        span = int(np.prod([dims[w] for w in wires]))
        gates.append(Gate(f"g{k}", wires, random_unitary(span, rng)))
    circuit = Circuit(cr_dims=cr_dims, ctc_dims=ctc_dims, gates=tuple(gates))
    return circuit, random_density(circuit.cr_dim, rng)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_loop_circuits(), st.integers(1, 4), st.integers(1, 200),
       st.integers(0, 2 ** 32 - 1))
def test_batch_matches_serial_oracle(case, trials, iters, seed):
    circuit, rho = case
    assert_matches_serial(circuit, rho, trials, iters, seed)


def test_batch_matches_serial_when_the_cap_decides():
    # U = I: every start is its own limit; 10 steps end before any
    # 64-step check, so only the check at the cap scores them
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=())
    stops = assert_matches_serial(circuit, proj(PLUS), 6, 10, 3)
    assert stops == [10] * 6


def test_batch_matches_serial_when_trials_stop_at_different_checks():
    # a weakly coupled qutrit loop: how long a trial takes depends on how
    # much of its start lies along the slow modes
    rng = np.random.default_rng(0)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    u = scipy.linalg.expm(-0.1j * (g + dagger(g)))
    circuit = Circuit(cr_dims=(2,), ctc_dims=(3,), gates=(Gate("u", (0, 1), u),))
    stops = assert_matches_serial(circuit, random_density(2, 1), 8, 3000, 0)
    assert len(set(stops)) > 1 and max(stops) < 3000


def test_batch_matches_serial_when_the_step_is_built_in_chunks():
    # two CTC qutrits: 81 matrix units, mapped 64 and then 17 at a time
    circuit = Circuit(cr_dims=(2,), ctc_dims=(3, 3),
                      gates=(Gate("u", (0, 1, 2), random_unitary(18, 4)),))
    assert circuit.ctc_dim ** 2 > UNITS_PER_CALL
    assert_matches_serial(circuit, random_density(2, 5), 3, 70, 1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_loop_circuits())
def test_oracle_limits_lie_at_a_unique_exact_fixed_point(case):
    circuit, rho = case
    fp = fixed_point_exact(induced_superoperator(
        compile_unitary(circuit), rho, circuit.cr_dims, circuit.ctc_dims))
    if fp.fixed_space_dim != 1:
        event("degenerate fixed space")
        return
    report = fixed_point_bruteforce(circuit, rho, iters=320)
    event(f"converged {report.converged} of {report.trials}")
    for lim in report.distinct_limits:
        assert trace_distance(lim, fp.sigma) <= 1e-6


class CountingUnitary(np.ndarray):
    """A compiled U that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            type(self).products += 1
        inputs = [x.view(np.ndarray) if isinstance(x, CountingUnitary) else x
                  for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def count_u_products(monkeypatch, circuit, rho, trials, iters):
    """The matrix products U takes part in over one oracle run."""
    import ctcsim.oracle as oracle_mod
    compile_unitary_ = oracle_mod.compile_unitary
    monkeypatch.setattr(oracle_mod, "compile_unitary",
                        lambda c: compile_unitary_(c).view(CountingUnitary))
    CountingUnitary.products = 0
    report = fixed_point_bruteforce(circuit, rho, trials=trials, iters=iters,
                                    seed=3)
    return CountingUnitary.products, report


@pytest.mark.parametrize("iters", [1, 10, 64])
def test_oracle_takes_u_once_for_its_step_and_once_per_check(monkeypatch, iters):
    # U builds the step matrix in one batched map of the matrix units, and
    # the residual check (here the only one, at the cap or step 64) maps
    # the candidates once more; the steps themselves never touch U
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=())
    for trials in (1, 7, 32):
        products, report = count_u_products(monkeypatch, circuit, proj(PLUS),
                                            trials, iters)
        assert report.converged == trials
        assert products == 2


def test_oracle_takes_u_once_more_at_each_later_check(monkeypatch):
    # a slow loop keeps every trial live past step 64: 200 steps reach the
    # checks at 64, 128 and 192 and the one at the cap
    rng = np.random.default_rng(0)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    u = scipy.linalg.expm(-0.005j * (g + dagger(g)))
    circuit = Circuit(cr_dims=(2,), ctc_dims=(3,), gates=(Gate("u", (0, 1), u),))
    for trials in (1, 7, 32):
        products, report = count_u_products(monkeypatch, circuit,
                                            random_density(2, 1), trials, 200)
        assert report.converged == 0
        assert products == 1 + 4
