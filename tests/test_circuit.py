"""Tests for circuit representation, builders, and the JSON format."""

import copy
import dataclasses
import json
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcsim.circuit import (Circuit, CircuitFormatError, Gate,
                            _gram_schmidt_extend, build_bhw2,
                            build_bhw_multi, build_epr_swap, builtin_matrix,
                            compile_unitary, complete_unitary,
                            pad_with_ancillas, parse_circuit,
                            serialize_circuit)
from ctcsim.ctc import ctc_evolve
from ctcsim.oracle import random_density, random_unitary
from ctcsim.qmat import ValidationError, kron, trace_distance, validate

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)
SWAP4 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)


def proj(v):
    return np.outer(v, v.conj())


def basis(i, d):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


# --- builtins and gate/circuit validation ----------------------------------

def test_builtin_matrices():
    assert np.array_equal(builtin_matrix("swap", (2, 2)), SWAP4)
    h = builtin_matrix("h", (2,))
    assert np.allclose(h @ KET0, PLUS)
    assert np.array_equal(builtin_matrix("x", (2,)),
                          np.array([[0, 1], [1, 0]], dtype=complex))
    cnot = builtin_matrix("cnot", (2, 2))
    assert np.allclose(cnot @ basis(2, 4), basis(3, 4))  # |10> -> |11>
    assert np.allclose(cnot @ basis(0, 4), basis(0, 4))


def test_builtin_rejects_unknown_or_bad_dims():
    with pytest.raises(ValidationError):
        builtin_matrix("toffoli", (2, 2, 2))
    with pytest.raises(ValidationError):
        builtin_matrix("h", (3,))
    with pytest.raises(ValidationError):
        builtin_matrix("swap", (2, 3))
    with pytest.raises(ValidationError, match="cnot needs two qubit wires"):
        builtin_matrix("cnot", (3, 3))


def test_gate_wire_validation():
    with pytest.raises(ValidationError):
        Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("swap", (0, 0)),))
    with pytest.raises(ValidationError):
        Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("swap", (0, 2)),))
    with pytest.raises(ValidationError):
        Circuit(cr_dims=(2,), ctc_dims=(2,),
                gates=(Gate("g", (0,), np.diag([1.0, 2.0]).astype(complex)),))
    with pytest.raises(ValidationError, match="gate 'g' lists no wires"):
        Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("g", (), np.eye(1)),))


def test_circuit_dim_validation():
    with pytest.raises(ValidationError):
        Circuit(cr_dims=(1,), ctc_dims=(2,), gates=())
    with pytest.raises(ValidationError):
        Circuit(cr_dims=(2,), ctc_dims=(), gates=())


def test_circuit_errors_carry_the_field_path():
    swap = Gate("swap", (0, 1))
    cases = [
        (dict(cr_dims=(1,), ctc_dims=(2,)), r"^\$\.cr_dims: "),
        (dict(cr_dims=(2,), ctc_dims=()), r"^\$\.ctc_dims: "),
        (dict(cr_dims=(2,), ctc_dims=(2,), labels=("A",)), r"^\$\.labels: "),
        (dict(cr_dims=(2,), ctc_dims=(2,), gates=(swap, Gate("swap", (0, 2)))),
         r"^\$\.gates\[1\]: gate 'swap' wire 2 out of range"),
    ]
    for kwargs, message in cases:
        with pytest.raises(CircuitFormatError, match=message) as exc:
            Circuit(**kwargs)
        assert isinstance(exc.value, ValidationError)


def test_non_integer_dimensions_and_wires_are_refused():
    swap = Gate("swap", (0, 1))
    cases = [
        (dict(cr_dims=(2.7,), ctc_dims=(2,), gates=(swap,)),
         r"^\$\.cr_dims\[0\]: expected an integer$"),
        (dict(cr_dims=(2,), ctc_dims=(2.0,)),
         r"^\$\.ctc_dims\[0\]: expected an integer$"),
        (dict(cr_dims=(True, 2), ctc_dims=(2,)),
         r"^\$\.cr_dims\[0\]: expected an integer$"),
        (dict(cr_dims=(2,), ctc_dims=(2, "3")),
         r"^\$\.ctc_dims\[1\]: expected an integer$"),
        (dict(cr_dims=(2,), ctc_dims=(2,), gates=(swap, Gate("swap", (0.9, 1.2)))),
         r"^\$\.gates\[1\]: gate 'swap' wires must be integers"),
        (dict(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("swap", (False, 1)),)),
         r"^\$\.gates\[0\]: "),
    ]
    for kwargs, message in cases:
        with pytest.raises(CircuitFormatError, match=message):
            Circuit(**kwargs)


def test_numpy_integer_dimensions_and_wires_are_accepted():
    c = Circuit(cr_dims=(np.int64(2),), ctc_dims=np.array([2], dtype=np.uint8),
                gates=(Gate("swap", (np.int32(0), np.int64(1))),))
    assert c == Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("swap", (0, 1)),))
    assert all(type(v) is int for v in c.dims + c.gates[0].wires)


def test_equality_is_by_value_and_only_between_like_objects():
    gate = Gate("x", (0,))
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(gate,))
    assert gate != "x" and circuit != (2, 2)
    assert gate.__eq__(5) is NotImplemented
    assert circuit.__eq__(5) is NotImplemented
    # a custom gate with a matrix is not its matrix-less namesake
    assert Gate("u", (0,), np.eye(2)) != Gate("u", (0,))
    assert Gate("u", (0,)) != Gate("u", (0,), np.eye(2))
    assert Gate("u", (0,), np.eye(2)) == Gate("u", (0,), np.eye(2))


def test_circuit_stores_matching_builtin_matrix_canonically():
    c = Circuit(cr_dims=(2,), ctc_dims=(2,),
                gates=(Gate("swap", (0, 1), builtin_matrix("swap", (2, 2))),))
    assert c.gates[0].matrix is None
    assert parse_circuit(json.loads(serialize_circuit(c))) == c


def test_parse_checks_each_gate_once(monkeypatch):
    import ctcsim.circuit as circuit_mod

    two = json.loads(serialize_circuit(build_bhw2(PLUS)))
    three = serialize_circuit(build_bhw_multi([KET0, KET1, PLUS]))
    calls = []
    check = circuit_mod._check_gate

    def spy(gate, dims):
        calls.append(gate.name)
        return check(gate, dims)

    monkeypatch.setattr(circuit_mod, "_check_gate", spy)
    parse_circuit(two)
    assert calls == ["cu", "swap"]
    calls.clear()
    parse_circuit(three)
    assert calls == ["select", "swap", "swap"]


def test_builtin_matrices_are_resolved_once(monkeypatch):
    # building checks each builtin gate against its canonical matrix, and
    # compiling reuses that matrix
    import ctcsim.circuit as circuit_mod

    calls = []
    resolve = circuit_mod.builtin_matrix

    def spy(name, wire_dims):
        calls.append(name)
        return resolve(name, wire_dims)

    monkeypatch.setattr(circuit_mod, "builtin_matrix", spy)
    gates = (Gate("h", (0,)), Gate("cnot", (0, 2)), Gate("u", (1, 2), SWAP4),
             Gate("swap", (1, 2), SWAP4), Gate("x", (2,)))
    u = compile_unitary(Circuit(cr_dims=(2, 2), ctc_dims=(2,), gates=gates))
    assert calls == ["h", "cnot", "swap", "x"]
    explicit = tuple(Gate(f"g{k}", g.wires, resolve(g.name, (2,) * len(g.wires))
                          if g.matrix is None else g.matrix)
                     for k, g in enumerate(gates))
    assert np.array_equal(u, compile_unitary(
        Circuit(cr_dims=(2, 2), ctc_dims=(2,), gates=explicit)))


def test_circuit_properties_and_labels():
    c = build_epr_swap()
    assert c.dims == (2, 2, 2)
    assert c.n_wires == 3
    assert c.cr_dim == 4 and c.ctc_dim == 2 and c.total_dim == 8
    assert c.labels == ("A", "B", "CTC")
    with pytest.raises(ValidationError):
        Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(), labels=("only-one",))


# --- compilation ------------------------------------------------------------

def test_compile_empty_circuit_is_identity():
    c = Circuit(cr_dims=(2, 2), ctc_dims=(2,), gates=())
    assert np.array_equal(compile_unitary(c), np.eye(8))


def test_compile_single_swap():
    c = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("swap", (0, 1)),))
    assert np.array_equal(compile_unitary(c), SWAP4)


def test_compile_h_then_cnot_makes_bell():
    c = Circuit(cr_dims=(2, 2), ctc_dims=(2,),
                gates=(Gate("h", (0,)), Gate("cnot", (0, 1))))
    u = compile_unitary(c)
    out = u @ np.kron(np.array([1, 0, 0, 0], dtype=complex),
                      np.array([1, 0], dtype=complex))
    bell = np.kron(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
                   np.array([1, 0], dtype=complex))
    assert np.allclose(out, bell)


def test_compile_respects_temporal_order():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    c = Circuit(cr_dims=(2,), ctc_dims=(2,),
                gates=(Gate("x", (0,)), Gate("h", (0,))))
    # X acts first, so the matrix product is H X
    assert np.allclose(compile_unitary(c), np.kron(h @ x, np.eye(2)))


def test_compile_non_adjacent_and_reversed_wires():
    c = Circuit(cr_dims=(2, 2), ctc_dims=(2,), gates=(Gate("cnot", (0, 2)),))
    u = compile_unitary(c)
    # |1 0 0> -> |1 0 1>
    assert np.allclose(u @ basis(4, 8), basis(5, 8))
    c2 = Circuit(cr_dims=(2, 2), ctc_dims=(2,), gates=(Gate("cnot", (2, 0)),))
    u2 = compile_unitary(c2)
    # control on wire 2: |0 0 1> -> |1 0 1>
    assert np.allclose(u2 @ basis(1, 8), basis(5, 8))


def test_compiled_builders_are_unitary():
    circuits = [build_epr_swap(), build_bhw2(PLUS),
                build_bhw_multi([KET0, KET1, PLUS, MINUS])]
    for c in circuits:
        assert validate(compile_unitary(c), "unitary").ok


def embed_reference(matrix, wires, dims):
    """Slow reference: the gate as a dense full-space matrix (kron with the
    identity on the other wires, scattered through a wire permutation)."""
    n, total = len(dims), int(np.prod(dims))
    rest = [i for i in range(n) if i not in wires]
    perm = np.transpose(np.arange(total).reshape(dims),
                        axes=list(wires) + rest).reshape(-1)
    rest_dim = int(np.prod([dims[i] for i in rest])) if rest else 1
    out = np.zeros((total, total), dtype=complex)
    out[np.ix_(perm, perm)] = np.kron(matrix, np.eye(rest_dim))
    return out


def test_compile_matches_dense_embedding_on_mixed_dims():
    dims = (2, 3, 2, 3)
    rng = np.random.default_rng(31)
    wire_lists = [(3, 0), (2, 1, 0), (1, 3), (0,), (3, 1, 2, 0), (2, 0)]
    gates = []
    for wires in wire_lists:
        span = int(np.prod([dims[w] for w in wires]))
        gates.append(Gate("v", wires, random_unitary(span, rng)))
    gates.append(Gate("swap", (3, 1)))
    gates.append(Gate("cnot", (2, 0)))
    c = Circuit(cr_dims=dims[:2], ctc_dims=dims[2:], gates=tuple(gates))
    want = np.eye(c.total_dim, dtype=complex)
    for g in c.gates:
        m = g.matrix if g.matrix is not None else builtin_matrix(
            g.name, tuple(dims[w] for w in g.wires))
        want = embed_reference(m, g.wires, dims) @ want
    assert np.abs(compile_unitary(c) - want).max() < 1e-12


# --- a first gate on every wire ---------------------------------------------

def gate_tensors(c):
    """(wires, wire dimensions, matrix) of each gate, builtins resolved."""
    for g in c.gates:
        wire_dims = tuple(c.dims[w] for w in g.wires)
        yield g.wires, wire_dims, (builtin_matrix(g.name, wire_dims)
                                   if g.matrix is None else g.matrix)


def identity_start_compile(c):
    """The compile in real arithmetic with every gate, the first included,
    contracted into the identity: a tensordot of each gate's real block
    [[Re g, -Im g], [Im g, Re g]] into the real and imaginary planes. The
    reference for the copied first gate, entry for entry."""
    dims, total = c.dims, c.total_dim
    planes = np.zeros((2, total, total))
    planes[0] = np.eye(total)
    planes = planes.reshape((2,) + dims + (total,))
    for wires, wire_dims, m in gate_tensors(c):
        k = len(wires)
        block = np.block([[m.real, -m.imag], [m.imag, m.real]])
        axes = [0] + [w + 1 for w in wires]
        planes = np.tensordot(block.reshape(((2,) + wire_dims) * 2), planes,
                              axes=(list(range(k + 1, 2 * k + 2)), axes))
        planes = np.moveaxis(planes, list(range(k + 1)), axes)
    u = np.empty((total, total), dtype=complex)
    u.real, u.imag = (p.reshape(total, total) for p in planes)
    return u


def complex_compile(c):
    """The compile in complex arithmetic: a tensordot of each gate's matrix
    into the identity tensor."""
    dims, total = c.dims, c.total_dim
    u = np.eye(total, dtype=complex).reshape(dims + (total,))
    for wires, wire_dims, m in gate_tensors(c):
        k = len(wires)
        u = np.tensordot(m.reshape(wire_dims * 2), u,
                         axes=(list(range(k, 2 * k)), list(wires)))
        u = np.moveaxis(u, list(range(k)), list(wires))
    return u.reshape(total, total)


@pytest.mark.parametrize("cr_dims, ctc_dims",
                         [((2, 2, 2), (2, 2, 2)), ((3,), (2,)), ((2, 3), (2,))])
def test_one_gate_on_every_wire_compiles_to_its_matrix(cr_dims, ctc_dims):
    dims = cr_dims + ctc_dims
    m = random_unitary(int(np.prod(dims)), [61, len(dims)])
    c = Circuit(cr_dims=cr_dims, ctc_dims=ctc_dims,
                gates=(Gate("u", tuple(range(len(dims))), m),))
    u = compile_unitary(c)
    assert np.array_equal(u, m)
    # a copy: the compile shares no memory with the gate
    assert not np.shares_memory(u, c.gates[0].matrix)
    with pytest.raises(ValueError):
        u[0, 0] = 2.0
    builtin = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("swap", (0, 1)),))
    assert np.array_equal(compile_unitary(builtin), SWAP4)


@pytest.mark.parametrize("wires", [(1, 0), (2, 0, 1), (0, 2, 1)])
def test_first_gate_on_every_wire_out_of_order_matches_the_embedding(wires):
    dims = (2, 3, 2)[:len(wires)]
    m = random_unitary(int(np.prod(dims)), [67, len(wires)])
    c = Circuit(cr_dims=dims[:-1], ctc_dims=dims[-1:],
                gates=(Gate("v", wires, m),))
    assert np.array_equal(compile_unitary(c), embed_reference(m, wires, dims))


def test_first_gate_on_every_wire_then_more_gates_equals_an_identity_start():
    rng = np.random.default_rng(71)
    haar = Circuit(
        cr_dims=(2, 2, 2), ctc_dims=(2, 2, 2),
        gates=(Gate("u", tuple(range(6)), random_unitary(64, rng)),
               Gate("h", (3,)), Gate("cnot", (5, 0)),
               Gate("v", (4, 1), random_unitary(4, rng))))
    qutrit = Circuit(
        cr_dims=(3, 2), ctc_dims=(2,),
        gates=(Gate("u", (0, 1, 2), random_unitary(12, rng)),
               Gate("v", (2, 0), random_unitary(6, rng)), Gate("x", (1,))))
    bhw = [build_bhw2(PLUS), build_bhw_multi([KET0, KET1, PLUS, MINUS])]
    for c in [haar, qutrit] + bhw:
        assert c.gates[0].wires == tuple(range(c.n_wires))
        assert len(c.gates) > 1
        assert np.array_equal(compile_unitary(c), identity_start_compile(c))


def cr_heavy_brickwork(seed):
    """6 CR qubits and one CTC qubit (wire 6): eight layers of Haar gates on
    alternating neighbour pairs, each with an h on the idle end wire and a
    cnot between wire 6 and a CR wire, wire 6 as control on odd layers and
    as target on even ones (40 gates)."""
    gates = []
    for layer in range(8):
        first = layer % 2
        gates += [Gate("haar", (w, w + 1), random_unitary(4, [seed, layer, w]))
                  for w in range(first, 6, 2)]
        gates.append(Gate("h", (0 if first else 6,)))
        gates.append(Gate("cnot", (6, layer % 6) if first else (layer % 6, 6)))
    return Circuit(cr_dims=(2,) * 6, ctc_dims=(2,), gates=tuple(gates))


def mixed_wire_order_circuit():
    """(2, 3, 2, 3) wires with reversed, non-adjacent and repeated wire
    tuples, a gate on every wire out of order, and builtin swap and cnot."""
    dims = (2, 3, 2, 3)
    wire_lists = [(3, 0), (2, 1, 0), (1, 3), (1, 3), (0,), (3, 1, 2, 0),
                  (2, 0), (3,), (3,), (0, 2)]
    gates = [Gate(f"v{k}", wires, random_unitary(
        int(np.prod([dims[w] for w in wires])), [73, k]))
        for k, wires in enumerate(wire_lists)]
    gates += [Gate("swap", (3, 1)), Gate("cnot", (2, 0)), Gate("cnot", (0, 2))]
    return Circuit(cr_dims=dims[:2], ctc_dims=dims[2:], gates=tuple(gates))


def qutrit_circuit():
    """A qutrit and two qubits: Haar gates of spans 2 to 12 and builtins,
    no gate on every wire."""
    rng = np.random.default_rng(79)
    return Circuit(cr_dims=(3, 2), ctc_dims=(2,), gates=(
        Gate("v", (2, 0), random_unitary(6, rng)), Gate("h", (1,)),
        Gate("w", (0,), random_unitary(3, rng)), Gate("cnot", (2, 1)),
        Gate("y", (1, 2, 0), random_unitary(12, rng)), Gate("swap", (1, 2))))


@pytest.mark.parametrize("make", [lambda: cr_heavy_brickwork(0),
                                  lambda: cr_heavy_brickwork(1),
                                  mixed_wire_order_circuit, qutrit_circuit],
                         ids=["cr-heavy-0", "cr-heavy-1", "mixed-order",
                              "qutrit"])
def test_compile_is_bit_identical_to_the_tensordot_reference(make):
    c = make()
    u = compile_unitary(c)
    assert np.array_equal(u, identity_start_compile(c))
    # the real arithmetic moves U from the complex product by round-off only
    assert np.abs(u - complex_compile(c)).max() <= 1e-14
    # the loop pipeline reshapes U as views; a strided U would be copied
    assert u.flags.c_contiguous


def test_compile_peaks_at_three_unitaries():
    # the real and imaginary planes, the spare array and U; a U-sized
    # temporary per gate, or planes of another layout, would raise the peak
    c = cr_heavy_brickwork(0)
    nbytes = c.total_dim ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        compile_unitary(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.2 * nbytes, peak / nbytes


@st.composite
def mixed_circuits(draw):
    """3-7 qubit and qutrit wires of total dimension at most 256, and 1-6
    Haar gates on 1-3 wires in random order, after a first gate on every
    wire (ascending or shuffled) in half of the draws."""
    n = draw(st.integers(3, 7))
    # each qutrit multiplies the dimension by 3/2
    max_qutrits = max(k for k in range(n + 1) if 3 ** k * 2 ** (n - k) <= 256)
    qutrits = draw(st.sets(st.integers(0, n - 1), max_size=max_qutrits))
    dims = tuple(3 if w in qutrits else 2 for w in range(n))
    n_ctc = draw(st.integers(1, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    wire_lists = []
    if draw(st.booleans()):
        wire_lists.append(tuple(range(n)) if draw(st.booleans())
                          else tuple(draw(st.permutations(range(n)))))
    for _ in range(draw(st.integers(1, 6))):
        wire_lists.append(tuple(draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=3, unique=True))))
    gates = [Gate(f"g{k}", wires, random_unitary(
        int(np.prod([dims[w] for w in wires])), rng))
        for k, wires in enumerate(wire_lists)]
    return Circuit(cr_dims=dims[:-n_ctc], ctc_dims=dims[-n_ctc:],
                   gates=tuple(gates))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mixed_circuits())
def test_compile_matches_the_product_of_dense_embeddings(c):
    want = np.eye(c.total_dim, dtype=complex)
    for g in c.gates:
        want = embed_reference(g.matrix, g.wires, c.dims) @ want
    assert np.abs(compile_unitary(c) - want).max() < 1e-12


# --- compile once per circuit -----------------------------------------------

def brickwork(seed, cr=3):
    """Haar two-qubit gates on neighbouring wires plus builtin h and cnot,
    over `cr` CR qubits and one CTC qubit."""
    n = cr + 1
    gates = [Gate("haar", (w, w + 1), random_unitary(4, [seed, w]))
             for w in range(n - 1)]
    gates += [Gate("h", (n - 1,)), Gate("cnot", (0, n - 1))]
    return Circuit(cr_dims=(2,) * cr, ctc_dims=(2,), gates=tuple(gates))


def test_compile_returns_the_same_array_on_each_call():
    c = brickwork(0)
    assert compile_unitary(c) is compile_unitary(c)


def test_compiled_unitary_and_gate_matrix_are_read_only():
    c = brickwork(1)
    u = compile_unitary(c)
    with pytest.raises(ValueError):
        u[0, 0] = 2.0
    with pytest.raises(ValueError):
        c.gates[0].matrix[0, 0] = 2.0


def test_mutating_the_source_array_changes_neither_gate_nor_compile():
    source = random_unitary(4, 7)
    c = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("v", (0, 1), source),))
    kept = source.copy()
    u = compile_unitary(c).copy()
    source[:] = 0.0   # no longer unitary; the circuit must not notice
    assert np.array_equal(c.gates[0].matrix, kept)
    assert np.array_equal(compile_unitary(c), u)
    assert np.array_equal(compile_unitary(Circuit(
        cr_dims=(2,), ctc_dims=(2,), gates=(Gate("v", (0, 1), kept),))), u)


@pytest.mark.parametrize("clone", [copy.deepcopy,
                                   lambda c: pickle.loads(pickle.dumps(c))],
                         ids=["deepcopy", "pickle"])
def test_copies_keep_gate_matrices_and_compile_read_only(clone):
    c = build_bhw2(PLUS)
    u = compile_unitary(c)
    twin = clone(c)
    assert twin == c and twin is not c
    assert all(not g.matrix.flags.writeable
               for g in twin.gates if g.matrix is not None)
    assert not compile_unitary(twin).flags.writeable
    assert np.array_equal(compile_unitary(twin), u)
    with pytest.raises(ValueError):
        twin.gates[0].matrix[0, 0] = 2.0


def test_replacing_gates_compiles_afresh():
    c = brickwork(2)
    u = compile_unitary(c)
    swapped = dataclasses.replace(c, gates=c.gates + (Gate("swap", (0, 3)),))
    v = compile_unitary(swapped)
    assert v is not u
    assert np.array_equal(v, compile_unitary(Circuit(
        cr_dims=c.cr_dims, ctc_dims=c.ctc_dims, gates=swapped.gates)))
    assert not np.array_equal(v, u)


def test_reused_circuit_evolves_like_fresh_ones():
    reused = brickwork(3)
    for j in range(4):
        rho = random_density(8, [3, j])
        out, fp = ctc_evolve(reused, rho)
        want_out, want_fp = ctc_evolve(brickwork(3), rho)
        assert np.array_equal(out, want_out)
        assert np.array_equal(fp.sigma, want_fp.sigma)
        assert fp.residual == want_fp.residual


# --- unitary completion -----------------------------------------------------

def test_complete_unitary_fixed_point_constraint():
    u = complete_unitary([(KET1, KET1)], 2)
    assert np.allclose(u, np.eye(2))


def test_complete_unitary_single_constraint():
    u = complete_unitary([(PLUS, KET1)], 2)
    assert np.linalg.norm(u @ PLUS - KET1) < 1e-12
    assert validate(u, "unitary").ok


def test_complete_unitary_rejects_gram_violation():
    with pytest.raises(ValidationError, match="inner product"):
        complete_unitary([(KET0, KET0), (KET1, KET0)], 2)


def test_complete_unitary_rejects_dependent_constraints():
    with pytest.raises(ValidationError):
        complete_unitary([(KET0, KET0), (KET0, KET0)], 2)


def test_complete_unitary_rejects_missing_or_misshaped_constraints():
    with pytest.raises(ValidationError, match="needs at least one constraint"):
        complete_unitary([], 2)
    with pytest.raises(ValidationError, match="constraint 1 vectors must have length"):
        complete_unitary([(KET0, KET0), (KET1, basis(1, 3))], 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
@pytest.mark.parametrize("side", [0, 1])
def test_complete_unitary_refuses_a_non_finite_constraint_by_its_index(bad, side):
    v = np.array([bad, 0])
    pair = [KET1, KET1]
    pair[side] = v
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # refused before any arithmetic on it
        with pytest.raises(ValidationError,
                           match=r"^constraint 1 has non-finite entries$"):
            complete_unitary([(KET0, KET0), tuple(pair)], 2)
        with pytest.raises(ValidationError,
                           match=r"^constraint 0 has non-finite entries$"):
            complete_unitary([(v, v)], 2)


def test_gram_schmidt_skips_a_basis_vector_whose_residual_vanishes():
    # e1 lies in the span of the constraint (e0 + e1)/sqrt(2) and of e0's
    # residual, so it adds no direction: it is skipped, and e2 follows in
    # index order
    e0, e1, e2 = np.eye(3, dtype=complex)
    got = _gram_schmidt_extend([(e0 + e1) / np.sqrt(2)], 3)
    assert len(got) == 3
    assert np.allclose(got, [(e0 + e1) / np.sqrt(2), (e0 - e1) / np.sqrt(2), e2])
    assert np.array_equal(_gram_schmidt_extend([e1], 3), [e1, e0, e2])


def test_gram_schmidt_refuses_a_dependent_constraint_by_its_index():
    e0, e1, _ = np.eye(3, dtype=complex)
    with pytest.raises(ValidationError,
                       match=r"^constraint vectors linearly dependent \(vector 2\)$"):
        _gram_schmidt_extend([e0, e1, (e0 - e1) / np.sqrt(2)], 3)
    with pytest.raises(ValidationError, match=r"\(vector 1\)$"):
        _gram_schmidt_extend([PLUS, -PLUS], 2)


def test_complete_unitary_deterministic():
    cons = [(PLUS, KET1)]
    assert np.array_equal(complete_unitary(cons, 2), complete_unitary(cons, 2))


def test_pad_with_ancillas():
    assert np.array_equal(pad_with_ancillas(KET1, 4), basis(2, 4))
    assert np.array_equal(pad_with_ancillas(KET0, 2), KET0)
    with pytest.raises(ValidationError):
        pad_with_ancillas(KET0, 3)  # not a multiple


# --- builders ---------------------------------------------------------------

def test_epr_swap_compiles_to_expected_permutation():
    u = compile_unitary(build_epr_swap())
    assert np.array_equal(u, kron(np.eye(2, dtype=complex), SWAP4))
    assert np.array_equal(u @ u, np.eye(8))


def test_bhw2_orthogonal_case():
    c = build_bhw2(KET1)
    out0, _ = ctc_evolve(c, proj(KET0))
    out1, _ = ctc_evolve(c, proj(KET1))
    assert trace_distance(out0, proj(KET0)) < 1e-12
    assert trace_distance(out1, proj(KET1)) < 1e-12


def test_bhw2_plus_reproduces_designated_fixed_points():
    c = build_bhw2(PLUS)
    out0, fp0 = ctc_evolve(c, proj(KET0))
    outp, fpp = ctc_evolve(c, proj(PLUS))
    assert trace_distance(fp0.sigma, proj(KET0)) < 1e-9
    assert trace_distance(out0, proj(KET0)) < 1e-9
    assert trace_distance(fpp.sigma, proj(KET1)) < 1e-9
    assert trace_distance(outp, proj(KET1)) < 1e-9


def test_bhw2_small_angle_outputs_orthogonal():
    theta = 0.1
    psi = np.array([np.cos(theta), np.sin(theta)], dtype=complex)
    c = build_bhw2(psi)
    out0, _ = ctc_evolve(c, proj(KET0))
    outp, _ = ctc_evolve(c, proj(psi))
    assert abs(trace_distance(out0, outp) - 1.0) < 1e-9


def test_bhw2_orthogonality_over_theta_and_phase_grid():
    for theta in np.arange(0.1, 1.51, 0.2):
        for phase in (0.0, 0.9, np.pi / 2):
            psi = np.array([np.cos(theta),
                            np.exp(1j * phase) * np.sin(theta)])
            c = build_bhw2(psi)
            out0, _ = ctc_evolve(c, proj(KET0))
            outp, _ = ctc_evolve(c, proj(psi))
            assert abs(trace_distance(out0, outp) - 1.0) < 1e-9


def test_bhw2_rejects_degenerate_state():
    with pytest.raises(ValidationError):
        build_bhw2(KET0)
    with pytest.raises(ValidationError):
        build_bhw2(np.exp(0.3j) * KET0)
    with pytest.raises(ValidationError):
        build_bhw2(np.array([0.9, 0.1], dtype=complex))  # not normalized
    with pytest.raises(ValidationError, match="psi must be a single-qubit state"):
        build_bhw2(basis(1, 3))


def test_bhw_multi_two_orthogonal_states():
    c = build_bhw_multi([KET0, KET1])
    assert c.cr_dims == (2,) and c.ctc_dims == (2,)
    for i, vec in enumerate([KET0, KET1]):
        out, fp = ctc_evolve(c, proj(vec))
        assert fp.fixed_space_dim == 1
        assert trace_distance(out, proj(basis(i, 2))) < 1e-9


def test_bhw_multi_three_states():
    states = [KET0, KET1, PLUS]
    c = build_bhw_multi(states)
    for i, vec in enumerate(states):
        padded = pad_with_ancillas(vec, c.cr_dim)
        out, fp = ctc_evolve(c, proj(padded))
        assert fp.fixed_space_dim == 1
        assert trace_distance(fp.sigma, proj(basis(i, c.ctc_dim))) < 1e-9
        assert trace_distance(out, proj(basis(i, c.cr_dim))) < 1e-9


def test_bhw_multi_four_states_pairwise_orthogonal():
    states = [KET0, KET1, PLUS, MINUS]
    c = build_bhw_multi(states)
    outputs = []
    for i, vec in enumerate(states):
        padded = pad_with_ancillas(vec, c.cr_dim)
        out, fp = ctc_evolve(c, proj(padded))
        assert trace_distance(out, proj(basis(i, 4))) < 1e-9
        outputs.append(out)
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(trace_distance(outputs[i], outputs[j]) - 1.0) < 1e-9


def test_bhw_multi_validation():
    with pytest.raises(ValidationError):
        build_bhw_multi([KET0])
    with pytest.raises(ValidationError, match="coincide"):
        build_bhw_multi([KET0, np.exp(1j * 0.4) * KET0])
    with pytest.raises(ValidationError):
        build_bhw_multi([basis(0, 3), basis(1, 3)])  # dim not a power of two
    with pytest.raises(ValidationError):
        build_bhw_multi([KET0, basis(1, 4)])  # mixed dimensions


def reference_discriminator(states) -> np.ndarray:
    """build_bhw_multi's U from its constraints, by public helpers: one
    complete_unitary per CTC value i, controlled by i on the CTC register,
    then the register swap."""
    n, d_in = len(states), len(states[0])
    total = 1 << (max(n, d_in) - 1).bit_length()
    inputs = [pad_with_ancillas(basis(b, d_in), total) for b in range(d_in)]
    eye = np.eye(total, dtype=complex)
    # the register swap: column (a, b) goes to row (b, a)
    u = np.eye(total ** 2, dtype=complex)[np.arange(total ** 2).reshape(
        total, total).T.reshape(-1)]
    for i in range(total):
        if i < n:
            acc = [pad_with_ancillas(states[i], total)]
            constraints = [(acc[0], basis(i, total))]
            for e in inputs:   # Gram-Schmidt residuals of the input basis
                for q in acc:
                    e = e - q * np.vdot(q, e)
                if np.linalg.norm(e) > 1e-7:
                    acc.append(e / np.linalg.norm(e))
                    out = basis((i + len(acc) - 1) % total, total)
                    constraints.append((acc[-1], out))
        else:
            constraints = [(e, basis((i + 1 + b) % total, total))
                           for b, e in enumerate(inputs)]
        v, p = complete_unitary(constraints, total), proj(basis(i, total))
        u = u @ (kron(v, p) + kron(eye, eye - p))
    return u


@st.composite
def discriminated_states(draw, perturbations=(None, 1e-9, 1e-3)):
    """2-8 states of dimension 2, 4 or 8: Haar (perturbation None), or basis
    vectors |x> plus a complex Gaussian perturbation of the drawn size (Haar
    beyond x = d_in - 1)."""
    n = draw(st.integers(2, 8))
    d_in = draw(st.sampled_from([2, 4, 8]))
    eps = draw(st.sampled_from(perturbations))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    states = []
    for x in range(n):
        if eps is None or x >= d_in:
            states.append(random_unitary(d_in, rng)[:, 0])
        else:
            v = basis(x, d_in) + eps * (rng.standard_normal(d_in)
                                        + 1j * rng.standard_normal(d_in))
            states.append(v / np.linalg.norm(v))
    return states


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(discriminated_states())
def test_bhw_multi_matches_the_controlled_gate_construction(states):
    c = build_bhw_multi(states)
    m = c.n_wires // 2
    assert [(g.name, g.wires) for g in c.gates] == [("select", tuple(range(2 * m)))] + [
        ("swap", (j, m + j)) for j in range(m)]
    assert np.abs(compile_unitary(c) - reference_discriminator(states)).max() <= 1e-10


# basis vectors perturbed by 1e-9 act like exact ones, which can close a
# cycle of control values (see the next test)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(discriminated_states(perturbations=(None, 1e-3)))
def test_bhw_multi_sends_each_padded_state_to_its_label(states):
    c = build_bhw_multi(states)
    for i, vec in enumerate(states):
        out, fp = ctc_evolve(c, proj(pad_with_ancillas(vec, c.cr_dim)))
        assert fp.fixed_space_dim == 1
        assert trace_distance(out, proj(basis(i, c.cr_dim))) < 1e-9


@pytest.mark.xfail(strict=True, reason="basis inputs can close a cycle of "
                   "control values, a second consistent CTC state")
def test_bhw_multi_fixed_point_is_unique_on_basis_inputs():
    # on input |2>, V_1, V_3 and V_6 send it to |3>, |6> and |1>
    states = list(np.eye(8, dtype=complex)[:3])
    _, fp = ctc_evolve(build_bhw_multi(states), proj(states[2]))
    assert fp.fixed_space_dim == 1


# --- JSON format ------------------------------------------------------------

def test_parse_minimal_document():
    doc = {"cr_dims": [2], "ctc_dims": [2],
           "gates": [{"name": "swap", "wires": [0, 1]}]}
    c = parse_circuit(doc)
    assert c.n_wires == 2
    assert len(c.gates) == 1
    assert c.gates[0].matrix is None


def test_roundtrip_is_identity_on_builders():
    for c in (build_epr_swap(), build_bhw2(PLUS),
              build_bhw_multi([KET0, KET1, PLUS])):
        assert parse_circuit(json.loads(serialize_circuit(c))) == c


def test_roundtrip_preserves_custom_matrix_bits():
    m = compile_unitary(build_bhw2(np.array([np.cos(0.3), np.sin(0.3)])))
    c = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("u", (0, 1), m),))
    c2 = parse_circuit(json.loads(serialize_circuit(c)))
    assert np.array_equal(c2.gates[0].matrix, m)


def test_serialize_omits_builtin_matrices():
    doc = json.loads(serialize_circuit(build_epr_swap()))
    assert "matrix" not in doc["gates"][0]


def test_parse_error_paths():
    base = {"cr_dims": [2], "ctc_dims": [2],
            "gates": [{"name": "swap", "wires": [0, 1]}]}

    doc = dict(base)
    del doc["ctc_dims"]
    with pytest.raises(CircuitFormatError, match=r"ctc_dims"):
        parse_circuit(doc)

    doc = dict(base, extra=1)
    with pytest.raises(CircuitFormatError, match="extra"):
        parse_circuit(doc)

    doc = dict(base, cr_dims=[1])
    with pytest.raises(CircuitFormatError, match=r"\$\.cr_dims"):
        parse_circuit(doc)

    doc = dict(base, gates=[{"name": "swap", "wires": [0, 1]},
                            {"name": "g", "wires": [0],
                             "matrix": [[[1, 0], [0, 0]],
                                        [[0, 0], [2, 0]]]}])
    with pytest.raises(CircuitFormatError, match=r"\$\.gates\[1\]"):
        parse_circuit(doc)

    doc = dict(base, gates=[{"name": "g", "wires": [0, 1],
                             "matrix": [[[1, 0]]]}])
    with pytest.raises(CircuitFormatError, match=r"matrix"):
        parse_circuit(doc)

    doc = dict(base, gates=[{"name": "mystery", "wires": [0, 1]}])
    with pytest.raises(CircuitFormatError, match="mystery"):
        parse_circuit(doc)

    doc = dict(base, gates=[{"name": "swap", "wires": [0, 0]}])
    with pytest.raises(CircuitFormatError):
        parse_circuit(doc)

    doc = dict(base, gates=[{"name": "swap", "wires": [0, 3]}])
    with pytest.raises(CircuitFormatError):
        parse_circuit(doc)

    doc = dict(base, cr_dims=[3])  # swap on qutrit and qubit wires
    with pytest.raises(CircuitFormatError, match=r"\$\.gates\[0\]: swap"):
        parse_circuit(doc)

    # each schema error starts with the JSON path of the offending element
    gate = base["gates"][0]
    for doc, path, message in [
        ('{"cr_dims": [2', "$", "not valid JSON"),
        ([base], "$", "top level must be an object"),
        (dict(base, cr_dims=2), "$.cr_dims", "expected an array of integers"),
        (dict(base, ctc_dims=[2, "2"]), "$.ctc_dims[1]", "expected an integer"),
        (dict(base, labels=["A", 1]), "$.labels", "expected an array of strings"),
        (dict(base, gates=gate), "$.gates", "expected an array of gate objects"),
        (dict(base, gates=[gate, "swap"]), "$.gates[1]", "expected a gate object"),
        (dict(base, gates=[dict(gate, arity=2)]), "$.gates[0].arity",
         "unknown key"),
        (dict(base, gates=[{"wires": [0, 1]}]), "$.gates[0]",
         "missing or non-string 'name'"),
        (dict(base, gates=[dict(gate, wires=[0, True])]), "$.gates[0]",
         "gate 'swap' wires must be integers"),
        (dict(base, gates=[dict(gate, wires=0)]), "$.gates[0]",
         "missing or non-integer-array 'wires'"),
        (dict(base, gates=[dict(gate, matrix=[])]), "$.gates[0].matrix",
         "expected a nonempty array of rows"),
        (dict(base, gates=[dict(gate, matrix=[[[1, 0]], "row"])]),
         "$.gates[0].matrix[1]", "expected an array of [re, im] pairs"),
        (dict(base, gates=[dict(gate, matrix=[[[1, 0], [0, 0]], [[0, 0]]])]),
         "$.gates[0].matrix[1]", "row length 1 != 2"),
        (dict(base, gates=[dict(gate, matrix=[[[1, 0], [0, "0"]]])]),
         "$.gates[0].matrix[0][1]", "expected an [re, im] number pair")]:
        with pytest.raises(CircuitFormatError) as err:
            parse_circuit(doc)
        assert err.value.path == path
        assert str(err.value).startswith(f"{path}: {message}")


def test_parse_builtin_with_matching_matrix_canonicalized():
    doc = {"cr_dims": [2], "ctc_dims": [2],
           "gates": [{"name": "swap", "wires": [0, 1],
                      "matrix": [[[float(x), 0.0] for x in row]
                                 for row in SWAP4.real]}]}
    c = parse_circuit(doc)
    assert c.gates[0].matrix is None


def test_parse_builtin_with_wrong_matrix_rejected():
    wrong = np.eye(4)
    doc = {"cr_dims": [2], "ctc_dims": [2],
           "gates": [{"name": "swap", "wires": [0, 1],
                      "matrix": [[[float(x), 0.0] for x in row]
                                 for row in wrong]}]}
    with pytest.raises(CircuitFormatError, match="swap"):
        parse_circuit(doc)


def test_parse_labels():
    doc = {"cr_dims": [2], "ctc_dims": [2], "labels": ["A", "CTC"],
           "gates": []}
    assert parse_circuit(doc).labels == ("A", "CTC")
    doc["labels"] = ["A"]
    with pytest.raises(CircuitFormatError, match="labels"):
        parse_circuit(doc)
